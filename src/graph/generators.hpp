// Graph generators for tests, examples, and the benchmark workloads.
//
// Every generator is deterministic in its seed. Where the family has a known
// arboricity bound it is stated in the doc comment; the benches rely on these
// certified bounds (and the validators in graph/arboricity.hpp cross-check
// them).
//
// Streaming construction (see DESIGN.md, "Memory layout & giant graphs"):
// every generator feeds its edges straight into a two-pass CsrBuilder and
// never materializes an EdgeList -- the edge stream is produced twice
// (degree count, then adjacency fill) from the same seed, so peak memory is
// the final CSR plus the generator's own state instead of 8 bytes per raw
// edge on top. The giant-graph families (RMAT, Barabasi-Albert) also expose
// their streaming cores as emit_* templates so custom pipelines
// (partitioned builds, IO, external tools) can consume the same
// deterministic stream directly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/prng.hpp"
#include "graph/graph.hpp"

namespace dvc {

/// Simple path v0-v1-...-v(n-1). Arboricity 1.
Graph path_graph(V n);

/// Cycle on n >= 3 vertices, vertex v adjacent to (v+-1) mod n. Arboricity 2
/// (exactly 2 for n >= 3 since m = n).
Graph cycle_graph(V n);

/// Complete graph K_n. Arboricity ceil(n/2).
Graph complete_graph(V n);

/// Complete bipartite K_{n1,n2}.
Graph complete_bipartite(V n1, V n2);

/// Star with one hub and n-1 leaves. Arboricity 1.
Graph star_graph(V n);

/// rows x cols grid. Arboricity 2; planar.
Graph grid_graph(V rows, V cols);

/// rows x cols torus (wrap-around grid), rows, cols >= 3. 4-regular.
Graph torus_graph(V rows, V cols);

/// d-dimensional hypercube (2^d vertices, d-regular). Arboricity <= ceil(d/2)+1.
Graph hypercube_graph(int dim);

/// Uniform random graph with exactly m distinct edges.
Graph random_gnm(V n, std::int64_t m, std::uint64_t seed);

/// Erdos-Renyi G(n, p) (only sensible for small n*p).
Graph random_gnp(V n, double p, std::uint64_t seed);

/// Random d-regular-ish graph via the pairing model; self loops and parallel
/// edges are dropped, so some vertices can have degree slightly below d.
/// Max degree <= d.
Graph random_near_regular(V n, int d, std::uint64_t seed);

/// Uniform random labelled tree (random attachment process). Arboricity 1.
Graph random_tree(V n, std::uint64_t seed);

/// Forest with `trees` components, ~n vertices total. Arboricity 1.
Graph random_forest(V n, int trees, std::uint64_t seed);

/// Union of `a` independent random spanning trees on the same vertex set
/// (duplicate edges removed). Arboricity <= a, and at least
/// ceil(m/(n-1)) >= a - o(a) in practice, so `a` is essentially tight.
Graph planted_arboricity(V n, int a, std::uint64_t seed);

/// Preferential-attachment (Barabasi-Albert) graph: each new vertex attaches
/// to `k` existing vertices. Degeneracy <= k, hence arboricity <= k.
Graph barabasi_albert(V n, int k, std::uint64_t seed);

/// Low-arboricity / high-degree family for Corollary 4.7 experiments:
/// union of (a-1) random spanning trees plus a perfect star forest whose
/// hubs have degree ~hub_degree. Arboricity <= a while max degree ~hub_degree.
Graph low_arboricity_high_degree(V n, int a, int hub_degree, std::uint64_t seed);

/// Random geometric graph: n points in the unit square, edge iff distance
/// <= radius (grid-hashed; intended for sparse radii). Models the wireless
/// sensor networks that motivate distributed coloring (TDMA, [14] in paper).
Graph random_geometric(V n, double radius, std::uint64_t seed);

// ---------------------------------------------------------------------------
// Giant-graph streaming families (Graph500-style parameters).

/// Streaming R-MAT edge core: emits edgefactor * 2^scale directed edge
/// draws over n = 2^scale vertices by recursive quadrant descent with
/// probabilities (a, b, c, 1-a-b-c). Each edge has its own splitmix-derived
/// PRNG stream, so the emission is deterministic AND restartable -- the
/// two-pass CSR build replays it bit-identically, and a partitioned
/// pipeline can regenerate any edge range independently. Self loops and
/// duplicates are emitted here and normalized away by the builder.
template <class Sink>
void emit_rmat(int scale, int edgefactor, std::uint64_t seed, Sink&& sink,
               double a = 0.57, double b = 0.19, double c = 0.19) {
  DVC_REQUIRE(scale >= 1 && scale <= 30, "rmat scale out of range [1, 30]");
  DVC_REQUIRE(edgefactor >= 1, "rmat edgefactor must be positive");
  DVC_REQUIRE(a > 0 && b >= 0 && c >= 0 && a + b + c < 1.0,
              "rmat quadrant probabilities must satisfy a+b+c < 1");
  const std::int64_t m = static_cast<std::int64_t>(edgefactor) << scale;
  const double ab = a + b;
  const double abc = a + b + c;
  for (std::int64_t i = 0; i < m; ++i) {
    Rng rng(seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i + 1));
    V u = 0, v = 0;
    for (int level = 0; level < scale; ++level) {
      const double r = rng.uniform_real();
      u <<= 1;
      v <<= 1;
      if (r < a) {
        // top-left quadrant: both bits 0
      } else if (r < ab) {
        v |= 1;
      } else if (r < abc) {
        u |= 1;
      } else {
        u |= 1;
        v |= 1;
      }
    }
    sink(u, v);
  }
}

/// Streaming Barabasi-Albert core: the same preferential-attachment process
/// as barabasi_albert(), emitting into `sink`. Needs the repeated-endpoint
/// list as state (2m vertex ids -- inherent to exact preferential
/// attachment) but no edge list.
template <class Sink>
void emit_barabasi_albert(V n, int k, std::uint64_t seed, Sink&& sink) {
  DVC_REQUIRE(n > k && k >= 1, "BA needs n > k >= 1");
  Rng rng(seed);
  std::vector<V> endpoints;
  endpoints.reserve(2 * static_cast<std::size_t>(n) * static_cast<std::size_t>(k));
  for (V v = 0; v < k; ++v) {
    sink(v, static_cast<V>(k));
    endpoints.push_back(v);
    endpoints.push_back(static_cast<V>(k));
  }
  // Sorted small-set dedup of the k targets keeps the emission order (and
  // thus the Rng protocol) identical to the historical EdgeList builder.
  std::vector<V> targets;
  targets.reserve(static_cast<std::size_t>(k));
  for (V v = k + 1; v < n; ++v) {
    targets.clear();
    while (static_cast<int>(targets.size()) < k) {
      const V t = endpoints[rng.uniform(endpoints.size())];
      if (t == v) continue;
      const auto it = std::lower_bound(targets.begin(), targets.end(), t);
      if (it != targets.end() && *it == t) continue;
      targets.insert(it, t);
    }
    for (const V t : targets) {
      sink(t, v);
      endpoints.push_back(t);
      endpoints.push_back(v);
    }
  }
}

/// R-MAT graph with Graph500-style parameters: n = 2^scale vertices,
/// edgefactor * 2^scale edge draws (fewer survive dedupe/self-loop
/// removal), built fully streaming -- no edge list is ever held.
Graph rmat_graph(int scale, int edgefactor, std::uint64_t seed,
                 double a = 0.57, double b = 0.19, double c = 0.19);

/// Barabasi-Albert with Graph500-style sizing: n = 2^scale vertices, each
/// attaching to k = edgefactor targets. Degeneracy <= edgefactor.
Graph barabasi_albert_scale(int scale, int edgefactor, std::uint64_t seed);

}  // namespace dvc
