// Procedure Legal-Coloring (Algorithm 2, Section 4) and its parameter
// drivers.
//
// The while-loop repeatedly invokes Procedure Arbdefective-Coloring with
// t = k = p in parallel on every subgraph of the current decomposition,
// refining it into p-times more subgraphs of ~(3+eps)/p-times smaller
// arboricity. When the arboricity bound drops to <= p, every subgraph is
// colored legally with floor((2+eps)alpha)+1 colors via Procedure
// Complete-Orientation + greedy (Lemma 2.2(1)); disjoint palettes per
// subgraph give a legal coloring of G.
//
// Drivers (paper results):
//   * legal_coloring_linear: Theorem 4.3 -- O(a) colors, O(a^mu log n) time,
//     p = ceil(a^(mu/2)).
//   * legal_coloring_near_linear: Corollary 4.6 -- O(a^(1+eta)) colors,
//     O(log a log n) time, constant p = 2^ceil(2/eta).
//   * legal_coloring_slow_fn: Theorem 4.5 -- a^(1+o(1)) colors,
//     O(f(a) log a log n) time, p = ceil(sqrt(f(a))).
//   * delta_plus_one_low_arb: Corollary 4.7 -- (Delta+1) colors (indeed
//     o(Delta)) when a <= Delta^(1-nu), in O(log a log n) time.
//
// Bookkeeping note (see DESIGN.md): subgraph labels are renamed
// order-preservingly between phases to keep machine integers bounded; the
// algorithm only ever compares labels for equality/order within one phase,
// so behaviour and round counts are unchanged. Reported `distinct` counts
// actual colors; `palette_formula` tracks the paper's A * |G| accounting
// (saturating).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/coloring.hpp"
#include "graph/graph.hpp"
#include "sim/runtime.hpp"

namespace dvc {

/// CONGEST contract of the final-orient exchange in Legal-Coloring's last
/// stage: every message is {group, H-level, layer color} -- three words.
constexpr int final_orient_max_words() { return 3; }

struct LegalColoringResult {
  Coloring colors;  // dense values in [0, distinct)
  int distinct = 0;
  std::uint64_t palette_formula = 0;  // paper-style A*|G| bound (saturating)
  int iterations = 0;                 // while-loop refinement phases
  sim::RunStats total;
  /// Tree of every simulated phase this run executed, as recorded by the
  /// session Runtime: refinement iterations are spans named
  /// "arbdefective(p=..,alpha=..)" whose subtrees expose the
  /// partial-orientation/kuhn/simple-arbdefective pipeline, followed by the
  /// "final-coloring" span.
  sim::PhaseLog phases;
};

/// Algorithm 2, run as part of the session `rt`. `initial_groups` /
/// `initial_alpha` allow running the procedure in parallel on a
/// pre-existing decomposition (Theorems 5.2/5.3): every group must induce a
/// subgraph of arboricity <= initial_alpha.
LegalColoringResult legal_coloring(sim::Runtime& rt, int arboricity_bound, int p,
                                   double eps = 0.25,
                                   const std::vector<std::int64_t>* initial_groups = nullptr,
                                   int initial_alpha = -1);

/// Theorem 4.3 (and Corollary 4.4): O(a)-coloring in O(a^mu log n) time.
LegalColoringResult legal_coloring_linear(sim::Runtime& rt, int arboricity_bound,
                                          double mu = 0.5, double eps = 0.25);

/// Corollary 4.6: O(a^(1+eta))-coloring in O(log a log n) time.
LegalColoringResult legal_coloring_near_linear(sim::Runtime& rt, int arboricity_bound,
                                               double eta = 0.5, double eps = 0.25);

/// Theorem 4.5: a^(1+o(1))-coloring in O(f(a) log a log n) time; pass the
/// value f = f(a) of an arbitrarily slow-growing function.
LegalColoringResult legal_coloring_slow_fn(sim::Runtime& rt, int arboricity_bound,
                                           int f_value, double eps = 0.25);

/// Corollary 4.7: for graphs with a <= Delta^(1-nu), a (Delta+1)-coloring
/// (in fact o(Delta) colors) in O(log a log n) time. Falls back to a
/// Kuhn-Wattenhofer reduction if the constant-factor palette exceeds
/// Delta+1 on small instances; the fallback rounds are reported.
LegalColoringResult delta_plus_one_low_arb(sim::Runtime& rt, int arboricity_bound,
                                           double eta = 0.5, double eps = 0.25);

}  // namespace dvc
