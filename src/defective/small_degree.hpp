// Legal (D+1)-coloring of bounded-degree (sub)graphs: Linial's O(D^2)
// palette in O(log* n) rounds, then Kuhn-Wattenhofer reduction to D+1 in
// O(D log D) rounds.
//
// This is the level-coloring subroutine used by Procedure
// Complete-Orientation (Lemma 3.3) and by the final stage of Procedure
// Legal-Coloring (Algorithm 2). The paper cites the O(D + log* n) algorithm
// of [5] here; we substitute the O(D log D + log* n) pipeline, which leaves
// every end-to-end bound reproduced in this library unchanged -- see
// DESIGN.md, "Substitutions".
#pragma once

#include <cstdint>
#include <vector>

#include "defective/reduce.hpp"
#include "graph/coloring.hpp"
#include "graph/graph.hpp"

namespace dvc {

/// Legal coloring with palette [0, degree_bound + 1) where degree_bound is
/// an upper bound on the same-group degree of every vertex.
ReduceResult legal_small_degree(sim::Runtime& rt, int degree_bound,
                                const std::vector<std::int64_t>* groups = nullptr);

}  // namespace dvc
