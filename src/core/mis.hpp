// Maximal independent set from coloring (Section 1.2).
//
// Given a legal C-coloring, sweep color classes: in round c every
// still-undecided vertex of color c joins the MIS and notifies its
// neighbors (C rounds). Composed with the O(a)-coloring of Theorem 4.3 this
// yields the paper's deterministic MIS in O(a + a^eps log n) rounds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/coloring.hpp"
#include "graph/graph.hpp"
#include "sim/runtime.hpp"

namespace dvc {

/// CONGEST contract of the mis-color-sweep program: the only message is a
/// one-word "joined" notification.
constexpr int mis_sweep_max_words() { return 1; }

struct MisResult {
  std::vector<std::uint8_t> in_mis;
  int colors_used = 0;  // 0 when the algorithm is not coloring-based
  sim::RunStats total;
  std::string algorithm;
  /// Per-phase tree recorded by the session Runtime (coloring + sweep).
  sim::PhaseLog phases;
};

/// Color-class sweep; `colors` must be legal with dense values in
/// [0, num_colors).
MisResult mis_from_coloring(sim::Runtime& rt, const Coloring& colors, int num_colors);

/// The paper's deterministic MIS: Theorem 4.3 coloring + sweep.
MisResult deterministic_mis(sim::Runtime& rt, int arboricity_bound, double mu = 0.5,
                            double eps = 0.25);

}  // namespace dvc
