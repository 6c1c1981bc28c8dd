// Luby's randomized MIS [22] (also Alon-Babai-Itai [1]): the randomized
// O(log n)-round baseline the paper's deterministic results are measured
// against. Each phase: active vertices draw random priorities; local maxima
// join the MIS; their neighbors withdraw. Two rounds per phase.
#pragma once

#include <cstdint>

#include "core/mis.hpp"
#include "graph/graph.hpp"

namespace dvc {

/// CONGEST contract of the luby-mis program: priority announcements carry
/// {tag, draw, id} -- three words, independent of n and Delta.
constexpr int luby_max_words() { return 3; }

MisResult luby_mis(sim::Runtime& rt, std::uint64_t seed);

}  // namespace dvc
