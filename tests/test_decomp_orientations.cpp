#include <gtest/gtest.h>

#include <cmath>

#include "common/math.hpp"
#include "decomp/orientations.hpp"
#include "graph/generators.hpp"

namespace dvc {
namespace {

TEST(OrientByIds, Lemma24Properties) {
  Graph g = planted_arboricity(1024, 4, 1);
  sim::Runtime rt(g);
  const OrientationResult res = orient_by_ids(rt, 4);
  EXPECT_TRUE(res.sigma.is_complete());
  EXPECT_TRUE(res.sigma.is_acyclic());
  EXPECT_LE(res.sigma.max_out_degree(), res.hp.threshold);  // floor(2.25*4)=9
  // O(log n) rounds.
  EXPECT_LE(res.total.rounds, 6 * std::log(1024.0) + 16);
}

TEST(CompleteOrientation, Lemma33Properties) {
  const V n = 2048;
  const int a = 3;
  Graph g = planted_arboricity(n, a, 2);
  sim::Runtime rt(g);
  const CompleteOrientationResult res = complete_orientation(rt, a);
  EXPECT_TRUE(res.sigma.is_complete());
  EXPECT_TRUE(res.sigma.is_acyclic());
  EXPECT_LE(res.sigma.max_out_degree(), res.hp.threshold);
  // Length O(a log n): each layer contributes <= palette-1 in-layer hops and
  // there are num_levels layer crossings.
  const int palette = static_cast<int>(palette_span(res.layer_coloring.colors));
  EXPECT_LE(res.sigma.length(), res.hp.num_levels * palette + res.hp.num_levels);
}

TEST(PartialOrientation, Theorem35Properties) {
  const V n = 2048;
  const int a = 8;
  Graph g = planted_arboricity(n, a, 3);
  sim::Runtime rt(g);
  for (const int t : {2, 4, 8}) {
    const PartialOrientationResult res = partial_orientation(rt, a, t);
    EXPECT_TRUE(res.sigma.is_acyclic());
    // Out-degree <= floor((2+eps) a).
    EXPECT_LE(res.sigma.max_out_degree(), res.hp.threshold) << "t=" << t;
    // Deficit <= floor(a/t).
    EXPECT_LE(res.sigma.max_deficit(), a / t) << "t=" << t;
    EXPECT_EQ(res.deficit_bound, a / t);
    // Length O(t^2 log n): in-layer palette O(t^2), layer crossings O(log n).
    const std::int64_t palette = res.layer_coloring.palette;
    EXPECT_LE(res.sigma.length(), res.hp.num_levels * (palette + 1)) << "t=" << t;
    // O(log n) rounds overall -- the defective coloring is O(log* n).
    EXPECT_LE(res.total.rounds, 6 * std::log(static_cast<double>(n)) + 32)
        << "t=" << t;
  }
}

TEST(PartialOrientation, LargerTMeansSmallerDeficitLongerPaths) {
  Graph g = planted_arboricity(4096, 8, 4);
  sim::Runtime rt(g);
  const PartialOrientationResult coarse = partial_orientation(rt, 8, 2);
  const PartialOrientationResult fine = partial_orientation(rt, 8, 8);
  EXPECT_GE(coarse.deficit_bound, fine.deficit_bound);
  // Finer defective colorings use more colors -> longer in-layer paths.
  EXPECT_LE(coarse.layer_coloring.palette, fine.layer_coloring.palette);
}

TEST(PartialOrientation, TEqualsOneOrientsAlmostNothingInLayers) {
  // t = 1: deficit budget a, defective coloring may be very coarse.
  Graph g = planted_arboricity(512, 4, 5);
  sim::Runtime rt(g);
  const PartialOrientationResult res = partial_orientation(rt, 4, 1);
  EXPECT_LE(res.sigma.max_deficit(), 4);
  EXPECT_TRUE(res.sigma.is_acyclic());
}

TEST(Orientations, GroupsLeaveCrossEdgesUnoriented) {
  Graph g = complete_bipartite(6, 6);
  sim::Runtime rt(g);
  std::vector<std::int64_t> groups(12, 0);
  for (V v = 6; v < 12; ++v) groups[static_cast<std::size_t>(v)] = 1;
  // Within groups there are no edges; bound 1 suffices.
  const OrientationResult res = orient_by_ids(rt, 1, 0.25, &groups);
  EXPECT_EQ(res.sigma.num_oriented_edges(), 0);
}

// Figure 1's structure: directed paths alternate in-layer segments with
// level-crossing hops; crossings are bounded by num_levels - 1.
TEST(PartialOrientation, Figure1PathStructure) {
  Graph g = planted_arboricity(2048, 6, 6);
  sim::Runtime rt(g);
  const PartialOrientationResult res = partial_orientation(rt, 6, 3);
  // Walk the longest directed path greedily and count level crossings.
  const auto lens = res.sigma.lengths();
  V v = 0;
  for (V u = 0; u < g.num_vertices(); ++u) {
    if (lens[static_cast<std::size_t>(u)] > lens[static_cast<std::size_t>(v)]) v = u;
  }
  int crossings = 0;
  V cur = v;
  while (true) {
    const int deg = g.degree(cur);
    V next = -1;
    for (int p = 0; p < deg; ++p) {
      if (!res.sigma.is_out(cur, p)) continue;
      const V u = g.neighbor(cur, p);
      if (lens[static_cast<std::size_t>(u)] == lens[static_cast<std::size_t>(cur)] - 1) {
        next = u;
        break;
      }
    }
    if (next < 0) break;
    crossings += res.hp.level[static_cast<std::size_t>(next)] !=
                 res.hp.level[static_cast<std::size_t>(cur)];
    cur = next;
  }
  EXPECT_LE(crossings, res.hp.num_levels - 1);
}

}  // namespace
}  // namespace dvc
