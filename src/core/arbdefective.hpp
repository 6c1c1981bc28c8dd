// Procedure Arbdefective-Coloring (Corollary 3.6): Partial-Orientation
// composed with Simple-Arbdefective.
//
// On a (group of a) graph with arboricity <= a it produces a
// (floor(a/t) + floor(floor((2+eps)a)/k))-arbdefective k-coloring in
// O(t^2 log n) rounds. Invoked with t = k it decomposes the graph into k
// subgraphs of arboricity <= floor((3+eps)a/t) each -- the refinement step
// of Procedure Legal-Coloring.
#pragma once

#include <cstdint>
#include <vector>

#include "core/simple_arbdefective.hpp"
#include "decomp/orientations.hpp"
#include "graph/coloring.hpp"
#include "graph/graph.hpp"
#include "sim/runtime.hpp"

namespace dvc {

struct ArbdefectiveColoringResult {
  Coloring colors;          // values in [0, k)
  int k = 0;
  int arbdefect_bound = 0;  // floor(a/t) + floor(threshold/k)
  PartialOrientationResult orientation;
  sim::RunStats total;
};

ArbdefectiveColoringResult arbdefective_coloring(
    sim::Runtime& rt, int arboricity_bound, int t, int k, double eps = 0.25,
    const std::vector<std::int64_t>* groups = nullptr);

}  // namespace dvc
