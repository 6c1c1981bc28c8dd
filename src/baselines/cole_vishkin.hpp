// Cole-Vishkin deterministic coin tossing [8]: 3-coloring of an oriented
// ring in log* n + O(1) rounds. The classic deterministic symmetry-breaking
// baseline that predates Linial's lower bound framework.
//
// Expects the ring produced by cycle_graph(n): vertex v's successor is
// (v+1) mod n, so the orientation is known locally from ids (the "oriented
// ring" assumption of [8], footnote 1 of the paper's Section 1.4).
#pragma once

#include "graph/coloring.hpp"
#include "graph/graph.hpp"
#include "sim/runtime.hpp"

namespace dvc {

/// CONGEST contract of the cole-vishkin program: every message is the
/// sender's current color, one word, independent of n.
constexpr int cole_vishkin_max_words() { return 1; }

struct RingColoringResult {
  Coloring colors;  // values in {0, 1, 2}
  sim::RunStats stats;
};

RingColoringResult cole_vishkin_ring(sim::Runtime& rt);

}  // namespace dvc
