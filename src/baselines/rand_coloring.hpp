// Randomized (Delta+1) trial coloring (the folklore form of [22, 1]; see
// also Johansson [15]): every undecided vertex proposes a uniformly random
// color from its remaining palette; proposals that clash with a neighbor's
// proposal or final color are dropped. O(log n) rounds w.h.p. -- the
// randomized baseline against which the paper's deterministic guarantees
// are compared.
#pragma once

#include <cstdint>

#include "graph/coloring.hpp"
#include "graph/graph.hpp"
#include "sim/runtime.hpp"

namespace dvc {

/// CONGEST contract of the randomized-trial-coloring program: every message
/// is {tag, color} -- two words.
constexpr int rand_coloring_max_words() { return 2; }

struct RandColoringResult {
  Coloring colors;
  std::int64_t palette = 0;  // Delta + 1
  sim::RunStats stats;
};

RandColoringResult randomized_delta_plus_one(sim::Runtime& rt, std::uint64_t seed);

}  // namespace dvc
