// E3 -- Lemma 3.3 vs Theorem 3.5 (and Figure 1): complete orientations are
// long (Theta(a log n)); partial orientations are short (O(t^2 log n)) with
// deficit floor(a/t).
//
// Paper prediction: the partial orientation's length is dramatically below
// the complete one's for small t, lengths grow ~t^2, and both run in
// O(log n) rounds. The path-structure columns mirror Figure 1: a directed
// path alternates in-layer segments with <= layers-1 crossings.
#include <cmath>
#include <iostream>

#include "common/table.hpp"
#include "decomp/orientations.hpp"
#include "graph/generators.hpp"

int main() {
  using namespace dvc;
  std::cout << "E3 (Lemma 3.3 / Theorem 3.5 / Figure 1): orientation length, "
               "deficit, out-degree\n\n";
  const int a = 8;
  Table table({"n", "variant", "out-deg", "deficit", "deficit-bound", "length",
               "layers", "rounds"});
  for (const V n : {1 << 12, 1 << 14, 1 << 16}) {
    const Graph g = planted_arboricity(n, a, 21);
    sim::Runtime rt(g);
    {
      const CompleteOrientationResult r = complete_orientation(rt, a);
      table.row(n, "complete (Lemma 3.3)", r.sigma.max_out_degree(),
                r.sigma.max_deficit(), 0, r.sigma.length(), r.hp.num_levels,
                r.total.rounds);
    }
    for (const int t : {1, 2, 4, 8}) {
      const PartialOrientationResult r = partial_orientation(rt, a, t);
      table.row(n, "partial t=" + std::to_string(t), r.sigma.max_out_degree(),
                r.sigma.max_deficit(), r.deficit_bound, r.sigma.length(),
                r.hp.num_levels, r.total.rounds);
    }
  }
  table.print(std::cout);

  // Figure 1 companion: decompose the longest directed path of a partial
  // orientation into in-layer segments and layer crossings.
  std::cout << "\nFigure 1 structure (longest directed path, n=2^14, t=4):\n";
  const Graph g = planted_arboricity(1 << 14, a, 21);
  sim::Runtime rt(g);
  const PartialOrientationResult r = partial_orientation(rt, a, 4);
  const auto lens = r.sigma.lengths();
  V cur = 0;
  for (V v = 0; v < g.num_vertices(); ++v) {
    if (lens[static_cast<std::size_t>(v)] > lens[static_cast<std::size_t>(cur)]) cur = v;
  }
  int crossings = 0, in_layer = 0;
  while (true) {
    V next = -1;
    const int deg = g.degree(cur);
    for (int p = 0; p < deg; ++p) {
      if (!r.sigma.is_out(cur, p)) continue;
      const V u = g.neighbor(cur, p);
      if (lens[static_cast<std::size_t>(u)] == lens[static_cast<std::size_t>(cur)] - 1) {
        next = u;
        break;
      }
    }
    if (next < 0) break;
    if (r.hp.level[static_cast<std::size_t>(next)] ==
        r.hp.level[static_cast<std::size_t>(cur)]) {
      ++in_layer;
    } else {
      ++crossings;
    }
    cur = next;
  }
  Table fig({"path length", "in-layer hops", "layer crossings", "layers-1"});
  fig.row(in_layer + crossings, in_layer, crossings, r.hp.num_levels - 1);
  fig.print(std::cout);
  std::cout << "\nShape check: crossings <= layers-1 (Figure 1); partial "
               "length << complete length; length grows with t^2.\n";
  return 0;
}
