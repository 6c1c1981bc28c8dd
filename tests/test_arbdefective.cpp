#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "core/arbdefective.hpp"
#include "graph/generators.hpp"
#include "graph/arboricity.hpp"

namespace dvc {
namespace {

// One induced subgraph per color class, in ascending color order.
std::vector<Graph> color_class_subgraphs(const Graph& g, const Coloring& c) {
  std::map<std::int64_t, std::vector<V>> classes;
  for (V v = 0; v < g.num_vertices(); ++v) {
    classes[c[static_cast<std::size_t>(v)]].push_back(v);
  }
  std::vector<V> local(static_cast<std::size_t>(g.num_vertices()));
  for (const auto& [color, members] : classes) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      local[static_cast<std::size_t>(members[i])] = static_cast<V>(i);
    }
  }
  std::vector<Graph> out;
  for (const auto& [color, members] : classes) {
    EdgeList edges;
    for (const V v : members) {
      for (const V u : g.neighbors(v)) {
        if (u > v && c[static_cast<std::size_t>(u)] == color) {
          edges.emplace_back(local[static_cast<std::size_t>(v)],
                             local[static_cast<std::size_t>(u)]);
        }
      }
    }
    out.push_back(Graph::from_edges(static_cast<V>(members.size()), edges));
  }
  return out;
}

TEST(ArbdefectiveColoring, Corollary36Bound) {
  const int a = 8;
  Graph g = planted_arboricity(2048, a, 1);
  sim::Runtime rt(g);
  for (const int t : {2, 4}) {
    for (const int k : {2, 4}) {
      const ArbdefectiveColoringResult res = arbdefective_coloring(rt, a, t, k);
      EXPECT_LT(palette_span(res.colors), k + 1);
      const Orientation witness =
          make_arbdefect_witness(g, res.colors, res.orientation.sigma);
      const int measured = certified_arbdefect(g, res.colors, witness);
      EXPECT_LE(measured, res.arbdefect_bound) << "t=" << t << " k=" << k;
      // Corollary 3.6 shape: floor(a/t) + floor(floor((2+eps)a)/k).
      EXPECT_EQ(res.arbdefect_bound,
                a / t + static_cast<int>(std::floor(2.25 * a)) / k);
    }
  }
}

TEST(ArbdefectiveColoring, ClassArboricityCertifiedByFlow) {
  // Independent certification: compute exact arboricity bounds of each
  // color-class subgraph and compare with the witness bound.
  const int a = 6;
  Graph g = planted_arboricity(768, a, 2);
  sim::Runtime rt(g);
  const int t = 3, k = 3;
  const ArbdefectiveColoringResult res = arbdefective_coloring(rt, a, t, k);
  const auto classes = color_class_subgraphs(g, res.colors);
  for (const Graph& cls : classes) {
    if (cls.num_edges() == 0) continue;
    const auto [lo, hi] = arboricity_bounds(cls);
    EXPECT_LE(lo, res.arbdefect_bound);
  }
}

TEST(ArbdefectiveColoring, RoundsAreTSquaredLogN) {
  // Theorem 3.5 + Theorem 3.2: O(t^2 log n) rounds.
  const int a = 8;
  for (const V n : {1 << 10, 1 << 12}) {
    Graph g = planted_arboricity(n, a, 3);
    sim::Runtime rt(g);
    const int t = 2;
    const ArbdefectiveColoringResult res = arbdefective_coloring(rt, a, t, t);
    const double logn = std::log2(static_cast<double>(n));
    // Generous envelope: c * (t^2 + threshold) * log n.
    EXPECT_LE(res.total.rounds,
              8.0 * (t * t + res.orientation.hp.threshold) * logn + 64);
  }
}

TEST(ArbdefectiveColoring, DecompositionViewTEqualsK) {
  // With t = k the result is a decomposition into k subgraphs of arboricity
  // <= floor((3+eps)a/k) each (paper, end of Section 3).
  const int a = 9;
  const int k = 3;
  Graph g = planted_arboricity(1024, a, 4);
  sim::Runtime rt(g);
  const ArbdefectiveColoringResult res = arbdefective_coloring(rt, a, k, k);
  EXPECT_LE(res.arbdefect_bound, a / k + static_cast<int>((2.25 * a)) / k);
  const Orientation witness =
      make_arbdefect_witness(g, res.colors, res.orientation.sigma);
  EXPECT_LE(certified_arbdefect(g, res.colors, witness), res.arbdefect_bound);
}

TEST(ArbdefectiveColoring, GroupsRefineIndependently) {
  // Pre-partition into two groups; classes never mix groups.
  Graph g = planted_arboricity(512, 4, 5);
  sim::Runtime rt(g);
  std::vector<std::int64_t> groups(512, 0);
  for (V v = 256; v < 512; ++v) groups[static_cast<std::size_t>(v)] = 1;
  const ArbdefectiveColoringResult res =
      arbdefective_coloring(rt, 4, 2, 2, 0.25, &groups);
  // Witness within groups: combine (group, color) into one coloring.
  Coloring combined(512);
  for (V v = 0; v < 512; ++v) {
    combined[static_cast<std::size_t>(v)] =
        groups[static_cast<std::size_t>(v)] * 2 + res.colors[static_cast<std::size_t>(v)];
  }
  const Orientation witness =
      make_arbdefect_witness(g, combined, res.orientation.sigma);
  EXPECT_LE(certified_arbdefect(g, combined, witness), res.arbdefect_bound);
}

}  // namespace
}  // namespace dvc
