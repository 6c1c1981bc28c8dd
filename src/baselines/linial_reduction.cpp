#include "baselines/linial_reduction.hpp"

#include "baselines/luby.hpp"
#include "common/check.hpp"

namespace dvc {

Graph mis_coloring_product(const Graph& g, int palette) {
  DVC_REQUIRE(palette >= 1, "palette must be positive");
  const std::int64_t total =
      static_cast<std::int64_t>(g.num_vertices()) * palette;
  DVC_REQUIRE(total <= (std::int64_t{1} << 26),
              "product graph too large to simulate");
  EdgeList edges;
  auto id = [palette](V v, int c) {
    return static_cast<V>(static_cast<std::int64_t>(v) * palette + c);
  };
  for (V v = 0; v < g.num_vertices(); ++v) {
    // Clique over the palette copies of v.
    for (int c = 0; c < palette; ++c) {
      for (int c2 = c + 1; c2 < palette; ++c2) {
        edges.emplace_back(id(v, c), id(v, c2));
      }
    }
    // Same-color copies of adjacent vertices conflict.
    for (const V u : g.neighbors(v)) {
      if (u <= v) continue;
      for (int c = 0; c < palette; ++c) edges.emplace_back(id(v, c), id(u, c));
    }
  }
  return Graph::from_edges(static_cast<V>(total), edges);
}

RandColoringResult coloring_via_mis_reduction(const Graph& g, std::uint64_t seed) {
  const int palette = g.max_degree() + 1;
  const Graph product = mis_coloring_product(g, palette);
  // Simulates on the derived product graph, so it cannot join a session
  // bound to g: it opens its own.
  sim::Runtime rt(product);
  const MisResult mis = luby_mis(rt, seed);

  RandColoringResult out;
  out.palette = palette;
  out.stats = mis.total;
  out.colors.assign(static_cast<std::size_t>(g.num_vertices()), -1);
  for (V v = 0; v < g.num_vertices(); ++v) {
    for (int c = 0; c < palette; ++c) {
      if (mis.in_mis[static_cast<std::size_t>(
              static_cast<std::int64_t>(v) * palette + c)]) {
        DVC_ENSURE(out.colors[static_cast<std::size_t>(v)] < 0,
                   "MIS picked two colors for one vertex");
        out.colors[static_cast<std::size_t>(v)] = c;
      }
    }
    DVC_ENSURE(out.colors[static_cast<std::size_t>(v)] >= 0,
               "maximality must assign every vertex a color");
  }
  return out;
}

}  // namespace dvc
