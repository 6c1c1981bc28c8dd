// Procedure Simple-Arbdefective (Section 3, Theorem 3.2).
//
// Input: an acyclic (partial) orientation with out-degree <= m and deficit
// <= tau, and a palette size k. Every vertex waits until all of its parents
// (same-group out-neighbors) have selected colors, then picks the color in
// {0..k-1} used by the fewest parents. By the pigeonhole principle at most
// floor(m/k) parents share the chosen color, so together with the <= tau
// unoriented incident edges each color class has arboricity at most
// tau + floor(m/k) (Lemmas 3.1 + 2.5). Runs in len(sigma) + 2 rounds.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/coloring.hpp"
#include "graph/graph.hpp"
#include "graph/orientation.hpp"
#include "sim/runtime.hpp"

namespace dvc {

/// CONGEST contract of the simple-arbdefective program: round-keyed like
/// greedy-by-orientation -- round-1 messages are one-word group
/// announcements, later messages are {group, color} -- two words.
constexpr int simple_arbdefective_max_words() { return 2; }

struct SimpleArbResult {
  Coloring colors;  // values in [0, k)
  int k = 0;
  sim::RunStats stats;
};

SimpleArbResult simple_arbdefective(sim::Runtime& rt, const Orientation& sigma,
                                    int k,
                                    const std::vector<std::int64_t>* groups = nullptr);

}  // namespace dvc
