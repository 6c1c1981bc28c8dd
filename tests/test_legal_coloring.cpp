#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"
#include "core/legal_coloring.hpp"
#include "graph/generators.hpp"

namespace dvc {
namespace {

TEST(LegalColoring, Algorithm2ProducesLegalOAColoring) {
  const int a = 16;
  Graph g = planted_arboricity(4096, a, 1);
  sim::Runtime rt(g);
  const LegalColoringResult res = legal_coloring(rt, a, /*p=*/4);
  EXPECT_TRUE(is_legal_coloring(g, res.colors));
  EXPECT_EQ(res.distinct, static_cast<int>(palette_span(res.colors)));
  EXPECT_GE(res.iterations, 1);
}

TEST(LegalColoring, Theorem43LinearColors) {
  // O(a) colors: with mu = 2/3 the constant is (3+eps)^(4/mu')-ish; on real
  // runs the distinct count stays within a modest multiple of a.
  const int a = 16;
  Graph g = planted_arboricity(4096, a, 2);
  sim::Runtime rt(g);
  const LegalColoringResult res = legal_coloring_linear(rt, a, /*mu=*/0.66);
  EXPECT_TRUE(is_legal_coloring(g, res.colors));
  EXPECT_LE(res.distinct, 24 * a);
}

TEST(LegalColoring, RejectsTinyP) {
  Graph g = planted_arboricity(128, 4, 3);
  sim::Runtime rt(g);
  EXPECT_THROW(legal_coloring(rt, 4, 3), precondition_error);
}

TEST(LegalColoring, SkipsLoopWhenArboricityBelowP) {
  Graph t = random_tree(512, 4);
  sim::Runtime rt(t);
  const LegalColoringResult res = legal_coloring(rt, 1, 8);
  EXPECT_TRUE(is_legal_coloring(t, res.colors));
  EXPECT_EQ(res.iterations, 0);
  // Lemma 2.2(1) alone: floor(2.25*1)+1 = 3 colors.
  EXPECT_LE(res.distinct, 3);
}

TEST(LegalColoring, Corollary46NearLinear) {
  const int a = 8;
  Graph g = planted_arboricity(4096, a, 5);
  sim::Runtime rt(g);
  const LegalColoringResult res = legal_coloring_near_linear(rt, a, /*eta=*/0.5);
  EXPECT_TRUE(is_legal_coloring(g, res.colors));
  // Rounds O(log a log n): very generous envelope.
  const double logn = std::log2(4096.0);
  EXPECT_LE(res.total.rounds, 64 * std::log2(static_cast<double>(a) + 1) * logn + 512);
}

TEST(LegalColoring, Theorem45SlowFunction) {
  const int a = 32;
  Graph g = planted_arboricity(4096, a, 6);
  sim::Runtime rt(g);
  const LegalColoringResult res = legal_coloring_slow_fn(rt, a, /*f=*/16);
  EXPECT_TRUE(is_legal_coloring(g, res.colors));
  EXPECT_GE(res.iterations, 2);  // small p => several refinement phases
}

TEST(LegalColoring, PhaseLogCoversAllStages) {
  Graph g = planted_arboricity(1024, 8, 7);
  sim::Runtime rt(g);
  const LegalColoringResult res = legal_coloring(rt, 8, 4);
  // Expect at least: one arbdefective span (with its orientation subtree)
  // plus the final-coloring span and its four stages.
  EXPECT_GE(res.phases.size(), 5u);
  for (std::size_t i = 0; i < res.phases.size(); ++i) {
    EXPECT_FALSE(res.phases.name(i).empty());
  }
  // Top-level spans partition the run: their stats compose to the total.
  const sim::RunStats total = res.phases.total();
  EXPECT_EQ(total.rounds, res.total.rounds);
  EXPECT_EQ(total.messages, res.total.messages);
  EXPECT_EQ(total.words, res.total.words);
  // The refinement iteration appears as a named span whose subtree exposes
  // the partial-orientation pipeline.
  bool found_arbdefective = false, found_h_partition = false;
  for (std::size_t i = 0; i < res.phases.size(); ++i) {
    if (res.phases.name(i).starts_with("arbdefective(")) {
      EXPECT_TRUE(res.phases[i].span);
      EXPECT_EQ(res.phases[i].depth, 0);
      found_arbdefective = true;
    }
    if (res.phases.name(i) == "h-partition") {
      EXPECT_FALSE(res.phases[i].span);
      EXPECT_GT(res.phases[i].depth, 0);
      found_h_partition = true;
    }
  }
  EXPECT_TRUE(found_arbdefective);
  EXPECT_TRUE(found_h_partition);
}

TEST(LegalColoring, WorksOnBoundedDegreeGraphs) {
  // Arboricity <= Delta always; the algorithm must handle degree-bounded
  // inputs out of the box.
  Graph g = random_near_regular(2048, 8, 8);
  sim::Runtime rt(g);
  const LegalColoringResult res = legal_coloring(rt, 8, 4);
  EXPECT_TRUE(is_legal_coloring(g, res.colors));
}

TEST(LegalColoring, InitialGroupsAreRespected) {
  // Two planted components with disjoint groups and per-group arboricity 4.
  const V half = 512;
  Graph a4 = planted_arboricity(half, 4, 8);
  EdgeList edges = a4.edges();
  for (const auto& [u, v] : planted_arboricity(half, 4, 9).edges()) {
    edges.emplace_back(u + half, v + half);
  }
  Graph g = Graph::from_edges(2 * half, edges);
  sim::Runtime rt(g);
  std::vector<std::int64_t> groups(static_cast<std::size_t>(2 * half), 0);
  for (V v = half; v < 2 * half; ++v) groups[static_cast<std::size_t>(v)] = 1;
  const LegalColoringResult res = legal_coloring(rt, 4, 4, 0.25, &groups, 4);
  EXPECT_TRUE(is_legal_coloring(g, res.colors));
}

TEST(LegalColoring, Corollary47DeltaPlusOne) {
  // a = 3 but Delta ~ 192: the coloring must fit in Delta+1 colors and run
  // much faster than Delta rounds would suggest.
  Graph g = low_arboricity_high_degree(8192, 3, 192, 10);
  sim::Runtime rt(g);
  const LegalColoringResult res = delta_plus_one_low_arb(rt, 3);
  EXPECT_TRUE(is_legal_coloring(g, res.colors));
  EXPECT_LE(res.distinct, g.max_degree() + 1);
  // o(Delta) colors in fact.
  EXPECT_LT(res.distinct, g.max_degree() / 2);
}

TEST(LegalColoring, DeterministicAcrossRuns) {
  Graph g = planted_arboricity(1024, 6, 11);
  sim::Runtime rt(g);
  const LegalColoringResult r1 = legal_coloring(rt, 6, 4);
  const LegalColoringResult r2 = legal_coloring(rt, 6, 4);
  EXPECT_EQ(r1.colors, r2.colors);
  EXPECT_EQ(r1.total.rounds, r2.total.rounds);
  EXPECT_EQ(r1.total.messages, r2.total.messages);
}

class LegalSweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(LegalSweep, LegalAcrossFamiliesAndP) {
  const auto [n, a, p] = GetParam();
  Graph g = planted_arboricity(n, a, static_cast<std::uint64_t>(n + a + p));
  sim::Runtime rt(g);
  const LegalColoringResult res = legal_coloring(rt, a, p);
  EXPECT_TRUE(is_legal_coloring(g, res.colors));
  EXPECT_LE(static_cast<std::uint64_t>(res.distinct), res.palette_formula);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LegalSweep,
    ::testing::Combine(::testing::Values(256, 1024, 4096),
                       ::testing::Values(4, 8, 16),
                       ::testing::Values(4, 8)));

}  // namespace
}  // namespace dvc
