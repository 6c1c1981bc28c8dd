#include <gtest/gtest.h>

#include <algorithm>

#include "common/check.hpp"
#include "graph/graph.hpp"

namespace dvc {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g = Graph::from_edges(0, {});
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.max_degree(), 0);
}

TEST(Graph, DedupesAndDropsSelfLoops) {
  Graph g = Graph::from_edges(4, {{0, 1}, {1, 0}, {0, 1}, {2, 2}, {1, 2}});
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_EQ(g.degree(2), 1);
  EXPECT_EQ(g.degree(3), 0);
}

TEST(Graph, RejectsOutOfRangeEndpoints) {
  EXPECT_THROW(Graph::from_edges(2, {{0, 2}}), precondition_error);
  EXPECT_THROW(Graph::from_edges(2, {{-1, 0}}), precondition_error);
}

TEST(Graph, AdjacencySortedAndQueryable) {
  Graph g = Graph::from_edges(5, {{3, 1}, {3, 0}, {3, 4}, {3, 2}});
  const auto nb = g.neighbors(3);
  ASSERT_EQ(nb.size(), 4u);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
  EXPECT_TRUE(g.has_edge(3, 0));
  EXPECT_TRUE(g.has_edge(0, 3));
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_EQ(g.port_of(3, 2), 2);
  EXPECT_EQ(g.port_of(3, 3), -1);
}

TEST(Graph, PortOfCoversFirstLastAndAbsentNeighbors) {
  // Exercise both lookup paths: degree <= 16 takes the early-exit linear
  // scan, larger degrees the binary search. A star center of degree 40
  // with only even-indexed leaves attached gives first/last/absent cases
  // on the search path; a small path graph covers the scan path.
  EdgeList star_edges;
  for (V u = 1; u <= 80; u += 2) star_edges.emplace_back(0, u);
  const Graph star = Graph::from_edges(81, star_edges);
  ASSERT_EQ(star.degree(0), 40);
  EXPECT_EQ(star.port_of(0, 1), 0);    // first neighbor
  EXPECT_EQ(star.port_of(0, 79), 39);  // last neighbor
  EXPECT_EQ(star.port_of(0, 2), -1);   // absent, between neighbors
  EXPECT_EQ(star.port_of(0, 0), -1);   // absent, below the first
  EXPECT_EQ(star.port_of(0, 80), -1);  // absent, above the last
  EXPECT_EQ(star.port_of(1, 0), 0);    // leaf side: sole neighbor
  EXPECT_EQ(star.port_of(1, 3), -1);
  EXPECT_EQ(star.port_of(2, 0), -1);   // isolated vertex: empty adjacency

  const Graph path = Graph::from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  EXPECT_EQ(path.port_of(2, 1), 0);   // first
  EXPECT_EQ(path.port_of(2, 3), 1);   // last
  EXPECT_EQ(path.port_of(2, 0), -1);  // absent below
  EXPECT_EQ(path.port_of(2, 2), -1);  // absent between (self)
  EXPECT_EQ(path.port_of(2, 4), -1);  // absent above

  // Cross-check both paths against a reference scan on every (v, u) pair.
  for (const Graph& g : {star, path}) {
    for (V v = 0; v < g.num_vertices(); ++v) {
      for (V u = 0; u < g.num_vertices(); ++u) {
        const auto nb = g.neighbors(v);
        const auto it = std::find(nb.begin(), nb.end(), u);
        const int want =
            it == nb.end() ? -1 : static_cast<int>(it - nb.begin());
        ASSERT_EQ(g.port_of(v, u), want) << "v=" << v << " u=" << u;
      }
    }
  }
}

TEST(Graph, MirrorSlotsAreInvolutive) {
  Graph g = Graph::from_edges(6, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {1, 4}, {4, 5}});
  for (std::int64_t s = 0; s < g.num_slots(); ++s) {
    const std::int64_t m = g.mirror_slot(s);
    EXPECT_EQ(g.mirror_slot(m), s);
    EXPECT_NE(g.slot_owner(s), g.slot_owner(m));
    // Slot (v, p) points at neighbor u; the mirror is owned by u and points
    // back at v.
    const V v = g.slot_owner(s);
    const int p = g.slot_port(s);
    EXPECT_EQ(g.slot_owner(m), g.neighbor(v, p));
    EXPECT_EQ(g.neighbor(g.slot_owner(m), g.slot_port(m)), v);
  }
}

TEST(Graph, EdgesRoundTrip) {
  EdgeList edges{{0, 1}, {1, 2}, {0, 2}, {2, 3}};
  Graph g = Graph::from_edges(4, edges);
  std::sort(edges.begin(), edges.end());
  EXPECT_EQ(g.edges(), edges);  // edges() emits sorted (u, v), u < v
}

TEST(Graph, AverageDegree) {
  Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_DOUBLE_EQ(g.average_degree(), 1.5);
}

// ---------------------------------------------------------------------------
// Graph::digest(): the content hash the service layer interns topologies by.

TEST(GraphDigest, EqualGraphsCollideRegardlessOfEdgeInputOrder) {
  const EdgeList edges = {{0, 1}, {1, 2}, {2, 3}, {0, 3}, {1, 3}};
  EdgeList shuffled = {{1, 3}, {2, 3}, {0, 1}, {0, 3}, {1, 2}};
  EdgeList reversed_endpoints = {{1, 0}, {2, 1}, {3, 2}, {3, 0}, {3, 1}};
  const Graph a = Graph::from_edges(4, edges);
  const Graph b = Graph::from_edges(4, shuffled);
  const Graph c = Graph::from_edges(4, reversed_endpoints);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.digest(), c.digest());
  // Duplicate edges and self loops are normalized away before hashing.
  const Graph d = Graph::from_edges(4, {{0, 1}, {1, 0}, {0, 0}, {1, 2}, {2, 3},
                                        {0, 3}, {1, 3}, {1, 3}});
  EXPECT_EQ(a.digest(), d.digest());
}

TEST(GraphDigest, PermutedLabelsDoNotCollide) {
  // A star centered at 0 vs the same star centered at 1: isomorphic, but
  // the digest is a labeled-topology hash, so they must differ.
  const Graph star0 = Graph::from_edges(4, {{0, 1}, {0, 2}, {0, 3}});
  const Graph star1 = Graph::from_edges(4, {{1, 0}, {1, 2}, {1, 3}});
  EXPECT_NE(star0.digest(), star1.digest());
  // Path 0-1-2 vs path 0-2-1: same degree sequence, different adjacency.
  const Graph p012 = Graph::from_edges(3, {{0, 1}, {1, 2}});
  const Graph p021 = Graph::from_edges(3, {{0, 2}, {2, 1}});
  EXPECT_NE(p012.digest(), p021.digest());
}

TEST(GraphDigest, StructuralChangesChangeTheDigest) {
  const Graph path = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  const Graph cycle = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  EXPECT_NE(path.digest(), cycle.digest());
  // Same edges, extra isolated vertex: different graph, different digest.
  const Graph padded = Graph::from_edges(5, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_NE(path.digest(), padded.digest());
}

TEST(GraphDigest, EmptyAndSingletonEdgeCases) {
  const Graph default_constructed;
  const Graph empty = Graph::from_edges(0, {});
  EXPECT_EQ(default_constructed.digest(), empty.digest())
      << "a default Graph must digest like the empty graph";
  const Graph one = Graph::from_edges(1, {});
  const Graph two = Graph::from_edges(2, {});
  EXPECT_NE(empty.digest(), one.digest());
  EXPECT_NE(one.digest(), two.digest());
  const Graph single_edge = Graph::from_edges(2, {{0, 1}});
  EXPECT_NE(two.digest(), single_edge.digest());
}

TEST(GraphDigest, StableAcrossCopies) {
  const Graph g = Graph::from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}});
  const Graph copy = g;
  EXPECT_EQ(g.digest(), copy.digest());
  EXPECT_EQ(g.digest(), g.digest()) << "digest is a pure cached value";
}

}  // namespace
}  // namespace dvc
