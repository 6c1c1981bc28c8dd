// Section 5: Algorithm Arb-Kuhn (Procedure Arb-Recolor iterated) and the
// resulting "even faster coloring" tradeoffs.
//
//  * arb_kuhn_arbdefective(): (a/t)-arbdefective O(t^2)-coloring in O(log n)
//    rounds -- the Lemma 2.4 orientation (out-degree A = floor((2+eps)a))
//    followed by O(log* n) Arb-Recolor iterations in which collisions are
//    counted against parents only (Lemma 5.1).
//
//  * fast_subquadratic_coloring(): Theorem 5.2 -- O(a^2/g(a)) colors in
//    O(log g(a) log n) rounds: decompose into O((a/d)^2) subgraphs of
//    arboricity <= d = f(a), then run Procedure Legal-Coloring on all
//    subgraphs in parallel with distinct palettes.
//
//  * tradeoff_coloring(): Theorem 5.3 -- O(a*t) colors in O((a/t)^mu log n)
//    rounds, sweeping the full time/colors tradeoff curve.
#pragma once

#include <cstdint>
#include <vector>

#include "core/legal_coloring.hpp"
#include "decomp/orientations.hpp"
#include "defective/kuhn.hpp"
#include "graph/coloring.hpp"
#include "graph/graph.hpp"
#include "sim/runtime.hpp"

namespace dvc {

struct ArbKuhnResult {
  Coloring colors;
  std::int64_t palette = 0;     // O((A/d)^2)
  int arbdefect_budget = 0;     // certified class arboricity bound
  OrientationResult orientation;
  std::vector<RecolorStep> schedule;
  sim::RunStats total;
};

ArbKuhnResult arb_kuhn_arbdefective(sim::Runtime& rt, int arboricity_bound,
                                    int arbdefect_budget, double eps = 0.25,
                                    const std::vector<std::int64_t>* groups = nullptr);

/// Theorem 5.2 driver. `class_arboricity` plays the role of f(a) = g(a)
/// up to the eta of the inner Legal-Coloring run.
LegalColoringResult fast_subquadratic_coloring(sim::Runtime& rt, int arboricity_bound,
                                               int class_arboricity,
                                               double eta = 0.5, double eps = 0.25);

/// Theorem 5.3 driver: O(a*t) colors in O((a/t)^mu log n) rounds.
LegalColoringResult tradeoff_coloring(sim::Runtime& rt, int arboricity_bound, int t,
                                      double mu = 0.5, double eps = 0.25);

}  // namespace dvc
