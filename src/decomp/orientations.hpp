// The paper's orientation procedures.
//
// Module ownership note: THIS file (src/decomp/) owns the *distributed
// procedures* that construct orientations (Lemma 2.4, Lemma 3.3,
// Algorithm 1). The similarly named src/graph/orientation.hpp owns the
// Orientation *data structure* they populate. See DESIGN.md, "Orientation
// naming".
//
//  * orient_by_ids(): Lemma 2.4 -- complete (within groups) acyclic
//    orientation with out-degree floor((2+eps)*a): H-partition, then orient
//    every same-group edge towards the greater (H-index, id) pair. Runs in
//    O(log n) rounds. Length may be as large as Theta(n) -- only the
//    out-degree matters to its consumers (forests decomposition, Arb-Kuhn).
//
//  * complete_orientation(): Procedure Complete-Orientation (Lemma 3.3) --
//    H-partition, legal O(a)-coloring of every layer, then orient towards
//    the greater (H-index, layer color). Out-degree floor((2+eps)*a) and
//    length O(a log n).
//
//  * partial_orientation(): Procedure Partial-Orientation (Algorithm 1,
//    Theorem 3.5) -- like Complete-Orientation but layers get a
//    floor(a/t)-defective O(t^2)-coloring instead of a legal one; edges
//    between same-layer same-color vertices stay unoriented. Out-degree
//    floor((2+eps)*a), deficit <= floor(a/t), length O(t^2 log n), all in
//    O(log n) rounds.
#pragma once

#include <cstdint>
#include <vector>

#include "decomp/h_partition.hpp"
#include "defective/kuhn.hpp"
#include "defective/reduce.hpp"
#include "graph/graph.hpp"
#include "graph/orientation.hpp"
#include "sim/runtime.hpp"

namespace dvc {

/// CONGEST contract of the orient-exchange program: every message is
/// {group, key1, key2} -- three words (the widest payload on the paper
/// path; each key is an O(log n)-bit quantity: an H-index, an id or a
/// layer color).
constexpr int orient_exchange_max_words() { return 3; }

struct OrientationResult {
  Orientation sigma;
  HPartitionResult hp;
  sim::RunStats total;  // includes all phases
};

/// Lemma 2.4. Orients every same-group edge; cross-group edges stay
/// unoriented (they belong to no subgraph when running group-parallel).
OrientationResult orient_by_ids(sim::Runtime& rt, int arboricity_bound,
                                double eps = 0.25,
                                const std::vector<std::int64_t>* groups = nullptr);

struct CompleteOrientationResult {
  Orientation sigma;
  HPartitionResult hp;
  ReduceResult layer_coloring;
  sim::RunStats total;
};

/// Procedure Complete-Orientation (Lemma 3.3).
CompleteOrientationResult complete_orientation(
    sim::Runtime& rt, int arboricity_bound, double eps = 0.25,
    const std::vector<std::int64_t>* groups = nullptr);

struct PartialOrientationResult {
  Orientation sigma;
  HPartitionResult hp;
  DefectiveResult layer_coloring;
  int deficit_bound = 0;  // floor(a/t)
  sim::RunStats total;
};

/// Procedure Partial-Orientation (Algorithm 1 / Theorem 3.5).
PartialOrientationResult partial_orientation(
    sim::Runtime& rt, int arboricity_bound, int t, double eps = 0.25,
    const std::vector<std::int64_t>* groups = nullptr);

}  // namespace dvc
