#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"
#include "core/mis.hpp"
#include "graph/generators.hpp"

namespace dvc {
namespace {

TEST(MisSweep, ProducesMaximalIndependentSet) {
  Graph g = planted_arboricity(1024, 4, 1);
  sim::Runtime rt(g);
  Coloring c(1024);
  // Simple legal coloring to drive the sweep: use greedy-by-id offline.
  for (V v = 0; v < 1024; ++v) {
    std::vector<std::int64_t> taken;
    for (const V u : g.neighbors(v)) {
      if (u < v) taken.push_back(c[static_cast<std::size_t>(u)]);
    }
    std::sort(taken.begin(), taken.end());
    std::int64_t pick = 0;
    for (const auto t : taken) {
      if (t == pick) ++pick;
      if (t > pick) break;
    }
    c[static_cast<std::size_t>(v)] = pick;
  }
  const int num_colors = static_cast<int>(palette_span(c));
  const MisResult res = mis_from_coloring(rt, c, num_colors);
  EXPECT_TRUE(is_maximal_independent_set(g, res.in_mis));
  EXPECT_LE(res.total.rounds, num_colors + 1);
}

TEST(MisSweep, RejectsIllegalColoring) {
  Graph p = path_graph(4);
  sim::Runtime rt(p);
  EXPECT_THROW(mis_from_coloring(rt, {0, 0, 1, 1}, 2), precondition_error);
}

TEST(DeterministicMis, EndToEndOnPlantedGraphs) {
  for (const int a : {2, 4, 8}) {
    Graph g = planted_arboricity(2048, a, static_cast<std::uint64_t>(a));
    sim::Runtime rt(g);
    const MisResult res = deterministic_mis(rt, a);
    EXPECT_TRUE(is_maximal_independent_set(g, res.in_mis)) << "a=" << a;
    // Section 1.2: O(a + a^eps log n) rounds -- the sweep part is O(colors)
    // = O(a) and the coloring part is polylog for fixed a.
    EXPECT_GT(res.colors_used, 0);
  }
}

TEST(DeterministicMis, PathGetsLargeSet) {
  Graph p = path_graph(999);
  sim::Runtime rt(p);
  const MisResult res = deterministic_mis(rt, 1);
  EXPECT_TRUE(is_maximal_independent_set(p, res.in_mis));
  int size = 0;
  for (const auto b : res.in_mis) size += b;
  EXPECT_GE(size, 999 / 3);  // any MIS of a path has >= n/3 vertices
}

TEST(DeterministicMis, DeterministicAcrossRuns) {
  Graph g = planted_arboricity(512, 4, 7);
  sim::Runtime rt(g);
  const MisResult r1 = deterministic_mis(rt, 4);
  const MisResult r2 = deterministic_mis(rt, 4);
  EXPECT_EQ(r1.in_mis, r2.in_mis);
  EXPECT_EQ(r1.total.rounds, r2.total.rounds);
}

TEST(DeterministicMis, StarSelectsHubOrAllLeaves) {
  Graph s = star_graph(100);
  sim::Runtime rt(s);
  const MisResult res = deterministic_mis(rt, 1);
  EXPECT_TRUE(is_maximal_independent_set(s, res.in_mis));
}

}  // namespace
}  // namespace dvc
