#include <gtest/gtest.h>

#include "common/check.hpp"
#include "defective/kuhn.hpp"
#include "defective/reduce.hpp"
#include "defective/small_degree.hpp"
#include "graph/generators.hpp"
#include "graph/orientation.hpp"

namespace dvc {
namespace {

TEST(GreedyByOrientation, DirectedPathUsesTwoColors) {
  Graph p = path_graph(6);
  sim::Runtime rt(p);
  Orientation o(p);
  for (V v = 0; v + 1 < 6; ++v) o.orient_out(v, p.port_of(v, v + 1));
  const ReduceResult res = greedy_by_orientation(rt, o, 2);
  EXPECT_TRUE(is_legal_coloring(p, res.colors));
  EXPECT_LT(palette_span(res.colors), 3);
  // Rounds ~ orientation length + 2.
  EXPECT_LE(res.stats.rounds, o.length() + 3);
}

TEST(GreedyByOrientation, CompleteGraphNeedsFullPalette) {
  Graph k5 = complete_graph(5);
  sim::Runtime rt(k5);
  Orientation o(k5);
  o.complete_acyclic();
  const ReduceResult res = greedy_by_orientation(rt, o, 5);
  EXPECT_TRUE(is_legal_coloring(k5, res.colors));
  EXPECT_EQ(distinct_colors(res.colors), 5);
}

TEST(GreedyByOrientation, ThrowsWhenPaletteTooSmall) {
  Graph k5 = complete_graph(5);
  sim::Runtime rt(k5);
  Orientation o(k5);
  o.complete_acyclic();
  EXPECT_THROW(greedy_by_orientation(rt, o, 4), invariant_error);
}

TEST(KwReduce, ShrinksPaletteToDeltaPlusOne) {
  Graph g = random_near_regular(256, 7, 2);
  sim::Runtime rt(g);
  const DefectiveResult linial = linial_coloring(rt, g.max_degree());
  const ReduceResult res =
      kw_reduce(rt, linial.colors, linial.palette, g.max_degree());
  EXPECT_TRUE(is_legal_coloring(g, res.colors));
  EXPECT_LT(palette_span(res.colors), g.max_degree() + 2);
}

TEST(KwReduce, FasterThanNaiveOnBigPalettes) {
  Graph g = random_near_regular(512, 8, 3);
  sim::Runtime rt(g);
  const DefectiveResult linial = linial_coloring(rt, g.max_degree());
  const ReduceResult kw =
      kw_reduce(rt, linial.colors, linial.palette, g.max_degree());
  EXPECT_TRUE(is_legal_coloring(g, kw.colors));
  // The naive schedule recolors one class per round: palette - (Delta + 1).
  EXPECT_LT(kw.stats.rounds, linial.palette - (g.max_degree() + 1));
}

TEST(KwReduce, NoopWhenAlreadySmall) {
  Graph p = path_graph(10);
  sim::Runtime rt(p);
  Coloring c(10);
  for (V v = 0; v < 10; ++v) c[static_cast<std::size_t>(v)] = v % 2;
  const ReduceResult res = kw_reduce(rt, c, 2, 2);
  EXPECT_EQ(res.stats.rounds, 0);
  EXPECT_EQ(res.colors, c);
}

TEST(KwReduce, GroupsUseDisjointLogic) {
  // Two cliques, one per group; each reduces to Delta_group+1 = 4 colors in
  // parallel even though the union has larger palette needs.
  EdgeList edges = complete_graph(4).edges();
  for (const auto& [u, v] : complete_graph(4).edges()) edges.emplace_back(u + 4, v + 4);
  Graph g = Graph::from_edges(8, edges);
  sim::Runtime rt(g);
  std::vector<std::int64_t> groups{0, 0, 0, 0, 1, 1, 1, 1};
  Coloring init(8);
  for (V v = 0; v < 8; ++v) init[static_cast<std::size_t>(v)] = v;  // legal
  const ReduceResult res = kw_reduce(rt, init, 8, 3, &groups);
  EXPECT_TRUE(is_legal_coloring(g, res.colors));  // cliques are group-local
  EXPECT_LT(palette_span(res.colors), 5);

  // Two K5s in separate groups, plus edges from vertex 9 to all of the
  // first K5. Vertex 9 recolors first and fits in 5 colors only if it
  // ignores its five cross-group neighbors (colors 0..4).
  EdgeList k5s = complete_graph(5).edges();
  for (const auto& [u, v] : complete_graph(5).edges()) k5s.emplace_back(u + 5, v + 5);
  EdgeList crossed = k5s;
  for (V u = 0; u < 5; ++u) crossed.emplace_back(u, 9);
  Graph g2 = Graph::from_edges(10, crossed);
  sim::Runtime rt2(g2);
  std::vector<std::int64_t> groups2{0, 0, 0, 0, 0, 1, 1, 1, 1, 1};
  Coloring init2(10);
  for (V v = 0; v < 10; ++v) init2[static_cast<std::size_t>(v)] = v;
  const ReduceResult res2 = kw_reduce(rt2, init2, 10, 4, &groups2);
  EXPECT_TRUE(is_legal_coloring(Graph::from_edges(10, k5s), res2.colors));
  EXPECT_LT(palette_span(res2.colors), 6);
}

TEST(LegalSmallDegree, DeltaPlusOneEndToEnd) {
  for (const int d : {3, 6, 12}) {
    Graph g = random_near_regular(400, d, static_cast<std::uint64_t>(d));
    sim::Runtime rt(g);
    const ReduceResult res = legal_small_degree(rt, g.max_degree());
    EXPECT_TRUE(is_legal_coloring(g, res.colors));
    EXPECT_LT(palette_span(res.colors), g.max_degree() + 2);
    // O(log* n + Delta log Delta) rounds; generous envelope.
    EXPECT_LE(res.stats.rounds, 16 * (d + 1) + 32);
  }
}

TEST(LegalSmallDegree, WorksOnPathAndCycle) {
  Graph p = path_graph(1000);
  sim::Runtime path_rt(p);
  const ReduceResult rp = legal_small_degree(path_rt, 2);
  EXPECT_TRUE(is_legal_coloring(p, rp.colors));
  EXPECT_LE(palette_span(rp.colors), 3);

  Graph c = cycle_graph(999);
  sim::Runtime cycle_rt(c);
  const ReduceResult rc = legal_small_degree(cycle_rt, 2);
  EXPECT_TRUE(is_legal_coloring(c, rc.colors));
  EXPECT_LE(palette_span(rc.colors), 3);
}

}  // namespace
}  // namespace dvc
