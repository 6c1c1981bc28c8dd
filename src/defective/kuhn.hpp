// Defective and arbdefective recoloring via polynomial families.
//
//  * kuhn_defective(): Lemma 2.1 / [17] -- from an initial M0-coloring
//    (default: the ids) computes a coloring with O((d*D/B)^2) colors and
//    defect <= B among same-group neighbors, in O(log* M0) rounds. With
//    B = 0 this is exactly Linial's legal O(Delta^2)-coloring [19, 20]
//    (exposed as linial_coloring()).
//
//  * arb_recolor_iterated(): Section 5 / Algorithm 3 (Procedure Arb-Recolor
//    iterated a la Algorithm Arb-Kuhn) -- same machinery, but collisions are
//    counted only against *parents* under a given acyclic orientation, so
//    the result is a coloring whose classes have bounded out-degree, i.e.
//    an arbdefective coloring (Lemma 5.1).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "fields/poly_family.hpp"
#include "graph/coloring.hpp"
#include "graph/graph.hpp"
#include "graph/orientation.hpp"
#include "sim/runtime.hpp"

namespace dvc {

/// CONGEST contract of the shared recoloring program (kuhn-defective,
/// linial, arb-recolor): every message is {group, color} -- two words.
constexpr int recolor_max_words() { return 2; }

struct DefectiveResult {
  Coloring colors;
  std::int64_t palette = 0;  // colors are in [0, palette)
  int defect_budget = 0;     // guaranteed defect bound
  sim::RunStats stats;
  std::vector<RecolorStep> schedule;
};

/// Defective coloring with explicit budget: every vertex has at most
/// `relevant_degree_bound` same-group neighbors (precondition, checked
/// during the run by the alpha-existence assertion) and ends with at most
/// `defect_budget` same-colored same-group neighbors.
DefectiveResult kuhn_defective(sim::Runtime& rt, std::int64_t relevant_degree_bound,
                               int defect_budget,
                               const std::vector<std::int64_t>* groups = nullptr,
                               const Coloring* initial = nullptr,
                               std::int64_t initial_palette = 0);

/// Lemma 2.1 interface: floor(Delta/p)-defective O(p^2)-coloring.
DefectiveResult kuhn_defective_p(sim::Runtime& rt, int p);

/// Linial's legal O(Delta^2)-coloring in O(log* n) rounds: defect budget 0.
/// degree_bound defaults to the max degree of (each group of) g.
DefectiveResult linial_coloring(sim::Runtime& rt, std::int64_t degree_bound,
                                const std::vector<std::int64_t>* groups = nullptr,
                                const Coloring* initial = nullptr,
                                std::int64_t initial_palette = 0);

/// Arbdefective recoloring (Section 5): collisions counted against parents
/// only (same-group out-neighbors under sigma). Produces a coloring whose
/// same-group monochromatic out-degree is at most `arbdefect_budget`; with
/// sigma acyclic this certifies arbdefect <= budget (Lemma 2.5).
DefectiveResult arb_recolor_iterated(sim::Runtime& rt, const Orientation& sigma,
                                     std::int64_t out_degree_bound,
                                     int arbdefect_budget,
                                     const std::vector<std::int64_t>* groups = nullptr);

}  // namespace dvc
