#include <gtest/gtest.h>

#include "common/math.hpp"
#include "defective/kuhn.hpp"
#include "graph/generators.hpp"

namespace dvc {
namespace {

TEST(Linial, LegalColoringOnRegularGraph) {
  Graph g = random_near_regular(512, 8, 1);
  sim::Runtime rt(g);
  const DefectiveResult res = linial_coloring(rt, g.max_degree());
  EXPECT_TRUE(is_legal_coloring(g, res.colors));
  // O(Delta^2) palette: the fixed point is below ~ (3 Delta)^2.
  EXPECT_LE(res.palette, 9L * 8 * 8 + 64);
  // O(log* n) rounds.
  EXPECT_LE(res.stats.rounds, 8);
}

TEST(Linial, RingGetsConstantPalette) {
  Graph ring = cycle_graph(100000);
  sim::Runtime rt(ring);
  const DefectiveResult res = linial_coloring(rt, 2);
  EXPECT_TRUE(is_legal_coloring(ring, res.colors));
  EXPECT_LE(res.palette, 64);  // O(Delta^2) with Delta = 2
  EXPECT_LE(res.stats.rounds, 8);
}

TEST(KuhnDefective, Lemma21DefectAndPalette) {
  // Lemma 2.1: floor(Delta/p)-defective O(p^2)-coloring in O(log* n) time.
  Graph g = random_near_regular(1024, 32, 2);
  sim::Runtime rt(g);
  const int delta = g.max_degree();
  for (const int p : {2, 4, 8}) {
    const DefectiveResult res = kuhn_defective_p(rt, p);
    EXPECT_LE(coloring_defect(g, res.colors), delta / p) << "p=" << p;
    EXPECT_LE(res.stats.rounds, 10);
    // Palette O(p^2) with the polynomial-family constants (d * p * 2)^2-ish;
    // assert the asymptotic shape loosely.
    EXPECT_LE(res.palette, 64L * p * p + 512) << "p=" << p;
  }
}

TEST(KuhnDefective, ZeroBudgetEqualsLinial) {
  Graph g = random_near_regular(256, 6, 3);
  sim::Runtime rt(g);
  const DefectiveResult a = kuhn_defective(rt, g.max_degree(), 0);
  const DefectiveResult b = linial_coloring(rt, g.max_degree());
  EXPECT_EQ(a.colors, b.colors);
  EXPECT_EQ(a.palette, b.palette);
}

TEST(KuhnDefective, RespectsExplicitBudget) {
  Graph g = random_near_regular(512, 24, 4);
  sim::Runtime rt(g);
  for (const int budget : {1, 3, 6, 12}) {
    const DefectiveResult res = kuhn_defective(rt, g.max_degree(), budget);
    EXPECT_LE(coloring_defect(g, res.colors), budget) << budget;
  }
}

TEST(KuhnDefective, GroupsIsolateSubgraphs) {
  // Vertices 0..n/2-1 and n/2..n-1 get separate groups; defect within groups
  // must respect the budget even though cross-group edges are dense.
  Graph g = complete_bipartite(40, 40);
  sim::Runtime rt(g);
  std::vector<std::int64_t> groups(80, 0);
  for (V v = 40; v < 80; ++v) groups[static_cast<std::size_t>(v)] = 1;
  // Within groups there are no edges at all: degree bound 0, budget 0.
  const DefectiveResult res = kuhn_defective(rt, 0, 0, &groups);
  (void)res;  // must simply not throw: no same-group collisions possible
}

TEST(KuhnDefective, StartsFromProvidedColoring) {
  Graph g = random_near_regular(300, 10, 5);
  sim::Runtime rt(g);
  const DefectiveResult first = linial_coloring(rt, g.max_degree());
  // Feeding the O(Delta^2) coloring back in converges in <= 1-2 rounds.
  const DefectiveResult second = linial_coloring(rt, g.max_degree(), nullptr,
                                                 &first.colors, first.palette);
  EXPECT_TRUE(is_legal_coloring(g, second.colors));
  EXPECT_LE(second.stats.rounds, 2);
}

TEST(KuhnDefective, PaletteBoundHolds) {
  Graph g = random_near_regular(400, 16, 6);
  sim::Runtime rt(g);
  const DefectiveResult res = kuhn_defective(rt, 16, 4);
  for (const auto c : res.colors) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, res.palette);
  }
}

class DefectiveSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(DefectiveSweep, DefectWithinBudgetAcrossFamilies) {
  const auto [n, d, p] = GetParam();
  Graph g = random_near_regular(n, d, static_cast<std::uint64_t>(n + d + p));
  sim::Runtime rt(g);
  const int delta = g.max_degree();
  if (delta == 0) return;
  const DefectiveResult res = kuhn_defective_p(rt, p);
  EXPECT_LE(coloring_defect(g, res.colors), delta / p);
  EXPECT_LE(res.stats.rounds, 2 + log_star(static_cast<std::uint64_t>(n)) + 4);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DefectiveSweep,
    ::testing::Combine(::testing::Values(128, 512, 2048),
                       ::testing::Values(4, 12, 24),
                       ::testing::Values(2, 3, 5)));

}  // namespace
}  // namespace dvc
