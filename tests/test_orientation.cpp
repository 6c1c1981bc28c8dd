#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/prng.hpp"
#include "graph/generators.hpp"
#include "graph/orientation.hpp"

namespace dvc {
namespace {

TEST(Orientation, StartsUnoriented) {
  Graph p = path_graph(3);
  Orientation o(p);
  EXPECT_EQ(o.num_oriented_edges(), 0);
  EXPECT_EQ(o.max_deficit(), 2);
  EXPECT_FALSE(o.is_complete());
  EXPECT_TRUE(o.is_acyclic());
  EXPECT_EQ(o.length(), 0);
}

TEST(Orientation, MirrorConsistency) {
  Graph p = path_graph(2);
  Orientation o(p);
  o.orient_out(0, 0);
  EXPECT_TRUE(o.is_out(0, 0));
  EXPECT_TRUE(o.is_in(1, 0));
  o.orient_in(0, 0);
  EXPECT_TRUE(o.is_in(0, 0));
  EXPECT_TRUE(o.is_out(1, 0));
  o.clear(0, 0);
  EXPECT_TRUE(o.is_unoriented(0, 0));
  EXPECT_TRUE(o.is_unoriented(1, 0));
}

TEST(Orientation, DegreesAndDeficit) {
  Graph s = star_graph(5);  // hub 0
  Orientation o(s);
  o.orient_out(0, 0);
  o.orient_out(0, 1);
  o.orient_in(0, 2);
  EXPECT_EQ(o.out_degree(0), 2);
  EXPECT_EQ(o.in_degree(0), 1);
  EXPECT_EQ(o.deficit(0), 1);
  EXPECT_EQ(o.max_out_degree(), 2);
}

TEST(Orientation, DetectsCycle) {
  // A directed cycle of every length 3..8 with an acyclic tail vertex
  // pointing into it, so the cycle is not the whole graph.
  for (V k = 3; k <= 8; ++k) {
    EdgeList edges;
    for (V v = 0; v < k; ++v) edges.emplace_back(v, (v + 1) % k);
    edges.emplace_back(0, k);
    const Graph g = Graph::from_edges(k + 1, edges);
    Orientation o(g);
    for (V v = 0; v < k; ++v) o.orient_out(v, g.port_of(v, (v + 1) % k));
    o.orient_out(k, g.port_of(k, 0));
    SCOPED_TRACE("cycle length " + std::to_string(k));
    EXPECT_FALSE(o.is_acyclic());
    EXPECT_THROW(o.topological_order_parents_first(), invariant_error);
    EXPECT_THROW(o.lengths(), invariant_error);
    EXPECT_THROW(o.length(), invariant_error);
  }
}

TEST(Orientation, LengthOfDirectedPath) {
  Graph p = path_graph(5);
  Orientation o(p);
  for (V v = 0; v + 1 < 5; ++v) o.orient_out(v, p.port_of(v, v + 1));
  EXPECT_TRUE(o.is_acyclic());
  EXPECT_EQ(o.length(), 4);
  const auto len = o.lengths();
  EXPECT_EQ(len[0], 4);
  EXPECT_EQ(len[4], 0);
}

TEST(Orientation, ParentsFirstOrderRespectsArrows) {
  Graph p = path_graph(4);
  Orientation o(p);
  for (V v = 0; v + 1 < 4; ++v) o.orient_out(v, p.port_of(v, v + 1));
  const auto order = o.topological_order_parents_first();
  std::vector<int> pos(4);
  for (int i = 0; i < 4; ++i) pos[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = i;
  // Edge v -> v+1 (v+1 is v's parent): parent first.
  for (V v = 0; v + 1 < 4; ++v) EXPECT_LT(pos[static_cast<std::size_t>(v + 1)], pos[static_cast<std::size_t>(v)]);
}

TEST(Orientation, CompleteAcyclicLemma31) {
  // Partial orientation of a 4-cycle plus chords; completion must stay
  // acyclic and orient everything.
  Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}});
  Orientation o(g);
  o.orient_out(0, g.port_of(0, 1));
  o.orient_out(2, g.port_of(2, 1));
  ASSERT_TRUE(o.is_acyclic());
  o.complete_acyclic();
  EXPECT_TRUE(o.is_complete());
  EXPECT_TRUE(o.is_acyclic());
  // Previously oriented edges keep their direction.
  EXPECT_TRUE(o.is_out(0, g.port_of(0, 1)));
  EXPECT_TRUE(o.is_out(2, g.port_of(2, 1)));
}

TEST(Orientation, CompleteAcyclicOnEmptyOrientation) {
  Graph k4 = complete_graph(4);
  Orientation o(k4);
  o.complete_acyclic();
  EXPECT_TRUE(o.is_complete());
  EXPECT_TRUE(o.is_acyclic());
  // A complete acyclic orientation of K4 has length exactly 3.
  EXPECT_EQ(o.length(), 3);
}

TEST(Orientation, AppendixALengthBoundsChromaticNumber) {
  // Appendix A: a complete acyclic orientation of length l yields a legal
  // (l+1)-coloring, hence l >= chi - 1. For K_n, chi = n, so any complete
  // acyclic orientation has length >= n-1.
  for (V n : {3, 5, 8}) {
    Graph k = complete_graph(n);
    Orientation o(k);
    o.complete_acyclic();
    EXPECT_GE(o.length(), n - 1);
  }
}

/// Longest directed path from v by plain DFS over the out-edges: exponential
/// in general, exact and obviously correct on the <= 8-vertex DAGs below.
int dfs_length(const Orientation& o, V v) {
  int best = 0;
  for (int p = 0; p < o.graph().degree(v); ++p) {
    if (o.is_out(v, p)) {
      best = std::max(best, 1 + dfs_length(o, o.graph().neighbor(v, p)));
    }
  }
  return best;
}

TEST(Orientation, LengthsMatchBruteForceDfsOnRandomSmallDags) {
  Rng rng(17);
  for (int trial = 0; trial < 400; ++trial) {
    const auto n = static_cast<V>(rng.uniform_in(1, 8));
    // Random edge set; arrows follow a random vertex ranking (acyclic), and
    // about a quarter of the edges stay unoriented (a partial orientation).
    EdgeList edges;
    for (V u = 0; u < n; ++u) {
      for (V v = u + 1; v < n; ++v) {
        if (rng.uniform(2) == 0) edges.emplace_back(u, v);
      }
    }
    std::vector<std::uint64_t> rank(static_cast<std::size_t>(n));
    for (auto& r : rank) r = rng.next_u64();
    const Graph g = Graph::from_edges(n, edges);
    Orientation o(g);
    for (const auto& [u, v] : edges) {
      if (rng.uniform(4) == 0) continue;
      const bool up = rank[static_cast<std::size_t>(u)] <
                      rank[static_cast<std::size_t>(v)];
      o.orient_out(up ? u : v, up ? g.port_of(u, v) : g.port_of(v, u));
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    ASSERT_TRUE(o.is_acyclic());
    const std::vector<int> len = o.lengths();
    ASSERT_EQ(len.size(), static_cast<std::size_t>(n));
    int longest = 0;
    for (V v = 0; v < n; ++v) {
      EXPECT_EQ(len[static_cast<std::size_t>(v)], dfs_length(o, v));
      longest = std::max(longest, len[static_cast<std::size_t>(v)]);
    }
    EXPECT_EQ(o.length(), longest);
  }
}

}  // namespace
}  // namespace dvc
