// Distributed H-partition (Lemma 2.3 of the paper, machinery from [4]).
//
// Partitions V into layers H_1..H_l, l = O(log n), such that every vertex
// in H_i has at most floor((2+eps)*a) neighbors in H_i u H_{i+1} u ... u H_l.
// Protocol (1 round per iteration): every still-active vertex announces
// itself; a vertex whose count of active same-group neighbors is at most the
// threshold joins the current layer and halts.
//
// The `groups` overlay restricts the partition to run independently inside
// every group (used when the paper's procedures recurse "in parallel on all
// subgraphs"): neighbors in other groups are invisible. All parallel groups
// share rounds, exactly as the paper's parallelism argument requires.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "sim/runtime.hpp"

namespace dvc {

/// CONGEST contract of the h-partition program: every message is the
/// sender's group label, one word, independent of n and Delta.
constexpr int h_partition_max_words() { return 1; }

struct HPartitionResult {
  std::vector<int> level;  // H-index per vertex, 0-based
  int num_levels = 0;
  int threshold = 0;  // floor((2+eps) * arboricity_bound)
  sim::RunStats stats;
};

/// Computes the H-partition as one phase of the session `rt`. Throws
/// invariant_error (via the round cap) if `arboricity_bound` is below the
/// true arboricity of (each group of) the graph, since the partition then
/// stops making progress.
HPartitionResult h_partition(sim::Runtime& rt, int arboricity_bound,
                             double eps = 0.25,
                             const std::vector<std::int64_t>* groups = nullptr);

/// Checks the defining property: every vertex in level i has at most
/// `threshold` same-group neighbors in levels >= i.
bool verify_h_partition(const Graph& g, const HPartitionResult& hp,
                        const std::vector<std::int64_t>* groups = nullptr);

}  // namespace dvc
