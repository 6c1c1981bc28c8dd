// Cross-module integration: the paper's end-to-end pipelines on diverse
// graph families, with round-complexity envelopes and palette guarantees
// checked together.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "baselines/greedy.hpp"
#include "core/api.hpp"
#include "core/legal_coloring.hpp"
#include "core/mis.hpp"
#include "defective/kuhn.hpp"
#include "graph/arboricity.hpp"
#include "graph/generators.hpp"

namespace dvc {
namespace {

struct Family {
  std::string name;
  std::function<Graph()> make;
  int arboricity_bound;
};

std::vector<Family> families() {
  return {
      {"tree", [] { return random_tree(2000, 1); }, 1},
      {"cycle", [] { return cycle_graph(2001); }, 2},
      {"grid", [] { return grid_graph(40, 50); }, 2},
      {"torus", [] { return torus_graph(40, 50); }, 3},
      {"hypercube", [] { return hypercube_graph(11); }, 6},
      {"planted-a4", [] { return planted_arboricity(2000, 4, 2); }, 4},
      {"planted-a8", [] { return planted_arboricity(2000, 8, 3); }, 8},
      {"ba-k5", [] { return barabasi_albert(2000, 5, 4); }, 5},
      {"geometric", [] { return random_geometric(2000, 0.03, 5); }, 12},
      {"near-regular-d8", [] { return random_near_regular(2000, 8, 6); }, 8},
  };
}

TEST(Integration, LinearColorsAcrossAllFamilies) {
  for (const Family& f : families()) {
    Graph g = f.make();
    const LegalColoringResult res =
        color_graph(g, f.arboricity_bound, Preset::LinearColors);
    EXPECT_TRUE(is_legal_coloring(g, res.colors)) << f.name;
    // O(a) colors with the library's constants: <= 32a + 8 on every family
    // we ship (recorded in EXPERIMENTS.md).
    EXPECT_LE(res.distinct, 32 * f.arboricity_bound + 8) << f.name;
  }
}

TEST(Integration, MisAcrossAllFamilies) {
  for (const Family& f : families()) {
    Graph g = f.make();
    const MisResult res = mis_graph(g, f.arboricity_bound);
    EXPECT_TRUE(is_maximal_independent_set(g, res.in_mis)) << f.name;
  }
}

TEST(Integration, RoundsScalePolylogarithmicallyInN) {
  // Corollary 4.6 regime: fix a, grow n; rounds/log2(n) must stay bounded
  // (the paper's headline claim). We allow a generous constant.
  const int a = 4;
  double worst_ratio = 0;
  for (const V n : {1 << 9, 1 << 11, 1 << 13, 1 << 15}) {
    Graph g = planted_arboricity(n, a, 7);
    sim::Runtime rt(g);
    const LegalColoringResult res = legal_coloring_near_linear(rt, a);
    EXPECT_TRUE(is_legal_coloring(g, res.colors));
    const double ratio = res.total.rounds / std::log2(static_cast<double>(n));
    worst_ratio = std::max(worst_ratio, ratio);
  }
  EXPECT_LE(worst_ratio, 200.0);
}

TEST(Integration, ColorsStayLinearAsNGrows) {
  const int a = 6;
  for (const V n : {1 << 10, 1 << 12, 1 << 14}) {
    Graph g = planted_arboricity(n, a, 8);
    sim::Runtime rt(g);
    const LegalColoringResult res = legal_coloring_linear(rt, a, 0.66);
    EXPECT_LE(res.distinct, 24 * a) << n;  // independent of n
  }
}

TEST(Integration, DefectiveThenArbdefectiveThenLegalAgree) {
  // The full zig-zag: every intermediate object validated on one graph.
  const int a = 8;
  Graph g = planted_arboricity(1500, a, 9);
  sim::Runtime rt(g);

  const DefectiveResult def = kuhn_defective_p(rt, 4);
  EXPECT_LE(coloring_defect(g, def.colors), g.max_degree() / 4);

  const LegalColoringResult legal = legal_coloring(rt, a, 4);
  EXPECT_TRUE(is_legal_coloring(g, legal.colors));

  const MisResult mis = mis_from_coloring(rt, legal.colors, legal.distinct);
  EXPECT_TRUE(is_maximal_independent_set(g, mis.in_mis));
}

TEST(Integration, GreedySequentialNeverBeatsArboricityLowerBound) {
  // Sanity relation between the baseline color counts and the theory:
  // degeneracy+1 >= arboricity bounds' low end.
  Graph g = planted_arboricity(1000, 6, 10);
  const GreedyResult greedy = greedy_coloring(g, GreedyOrder::ByDegeneracy);
  const auto [lo, hi] = arboricity_bounds(g);
  EXPECT_GE(greedy.colors_used, lo);
  EXPECT_LE(greedy.colors_used, 2 * hi + 1);
}

TEST(Integration, MessageCountsAreLinearPerRound) {
  // The engine counts every message; per round at most 2m messages flow.
  Graph g = planted_arboricity(1000, 4, 11);
  sim::Runtime rt(g);
  const LegalColoringResult res = legal_coloring(rt, 4, 4);
  EXPECT_LE(res.total.messages,
            static_cast<std::uint64_t>(res.total.rounds + 8) *
                static_cast<std::uint64_t>(2 * g.num_edges()));
}

TEST(Integration, DisconnectedGraphsWork) {
  // Two components, one of them a single vertex.
  EdgeList edges = planted_arboricity(500, 3, 12).edges();
  Graph g = Graph::from_edges(501, edges);
  sim::Runtime rt(g);
  const LegalColoringResult res = legal_coloring(rt, 3, 4);
  EXPECT_TRUE(is_legal_coloring(g, res.colors));
  const MisResult mis = mis_graph(g, 3);
  EXPECT_TRUE(is_maximal_independent_set(g, mis.in_mis));
}

TEST(Integration, EmptyAndTinyGraphs) {
  Graph empty = Graph::from_edges(0, {});
  sim::Runtime empty_rt(empty);
  EXPECT_TRUE(is_legal_coloring(empty, legal_coloring(empty_rt, 1, 4).colors));

  Graph single = Graph::from_edges(1, {});
  sim::Runtime single_rt(single);
  const LegalColoringResult res = legal_coloring(single_rt, 1, 4);
  EXPECT_EQ(res.distinct, 1);

  Graph pair = path_graph(2);
  sim::Runtime pair_rt(pair);
  const LegalColoringResult res2 = legal_coloring(pair_rt, 1, 4);
  EXPECT_TRUE(is_legal_coloring(pair, res2.colors));
}

}  // namespace
}  // namespace dvc
