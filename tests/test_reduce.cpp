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

TEST(NaiveReduce, ShrinksPaletteToDeltaPlusOne) {
  Graph g = random_near_regular(128, 5, 1);
  sim::Runtime rt(g);
  const DefectiveResult linial = linial_coloring(rt, g.max_degree());
  const std::int64_t target = g.max_degree() + 1;
  const ReduceResult res =
      reduce_colors_naive(rt, linial.colors, linial.palette, target);
  EXPECT_TRUE(is_legal_coloring(g, res.colors));
  EXPECT_LT(palette_span(res.colors), target + 1);
  // Rounds ~ palette - target.
  EXPECT_LE(res.stats.rounds, linial.palette - target + 2);
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
  const ReduceResult naive =
      reduce_colors_naive(rt, linial.colors, linial.palette, g.max_degree() + 1);
  const ReduceResult kw =
      kw_reduce(rt, linial.colors, linial.palette, g.max_degree());
  EXPECT_TRUE(is_legal_coloring(g, kw.colors));
  EXPECT_LT(kw.stats.rounds, naive.stats.rounds);
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
