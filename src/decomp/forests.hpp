// Forests decomposition (Lemma 2.2(2), machinery from [4]).
//
// Given the Lemma 2.4 orientation with out-degree <= floor((2+eps)*a), every
// vertex labels its out-edges 1..out_degree; the edges carrying label f form
// forest F_f (each vertex has at most one out-edge per label, and the union
// is acyclic because the orientation is). Both endpoints learn the label in
// one round, completing an O(a)-forests decomposition in O(log n) rounds.
#pragma once

#include <cstdint>
#include <vector>

#include "decomp/orientations.hpp"
#include "graph/graph.hpp"
#include "sim/runtime.hpp"

namespace dvc {

/// CONGEST contract of the forest-labels program: each out-edge is told its
/// forest index, one word (indices are < Delta).
constexpr int forest_labels_max_words() { return 1; }

struct ForestsDecomposition {
  /// forest_of_slot[s] = forest index (0-based) of the edge at slot s, the
  /// same value on both slots of an edge; -1 for edges in no forest
  /// (cross-group edges when running group-parallel).
  std::vector<int> forest_of_slot;
  int num_forests = 0;
  OrientationResult orientation;
  sim::RunStats total;
};

ForestsDecomposition forests_decomposition(
    sim::Runtime& rt, int arboricity_bound, double eps = 0.25,
    const std::vector<std::int64_t>* groups = nullptr);

/// Checks that every forest is in fact acyclic (union-find) and that edge
/// labels agree across slots.
bool verify_forests_decomposition(const Graph& g, const ForestsDecomposition& fd);

}  // namespace dvc
