// Color-reduction and orientation-greedy coloring subroutines.
//
//  * greedy_by_orientation(): Appendix A of the paper -- given an acyclic
//    orientation that is complete inside every group, each vertex waits for
//    all its parents and picks the smallest palette color unused by them.
//    Legal within groups; takes length(sigma) + 2 rounds.
//
//  * kw_reduce(): Kuhn-Wattenhofer [18] parallel reduction -- pairs palette
//    buckets of size 2(D+1) and reduces each pair to D+1 colors in parallel,
//    halving the palette every D+1 rounds; total O(D log(M/D)) rounds.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/coloring.hpp"
#include "graph/graph.hpp"
#include "graph/orientation.hpp"
#include "sim/runtime.hpp"

namespace dvc {

/// CONGEST contracts. greedy-by-orientation is round-keyed: round-1
/// messages announce the sender's group (one word), later messages carry
/// {group, color} -- two words. kw-reduce broadcasts {group, color}.
constexpr int greedy_by_orientation_max_words() { return 2; }
constexpr int kw_reduce_max_words() { return 2; }

struct ReduceResult {
  Coloring colors;
  std::int64_t palette = 0;
  sim::RunStats stats;
};

/// Greedy coloring along an orientation. `palette` must exceed the maximum
/// same-group out-degree. The orientation must be acyclic and orient every
/// same-group edge.
ReduceResult greedy_by_orientation(sim::Runtime& rt, const Orientation& sigma,
                                   std::int64_t palette,
                                   const std::vector<std::int64_t>* groups = nullptr);

/// Kuhn-Wattenhofer bucket reduction of a legal same-group coloring in
/// [0, M) to [0, degree_bound + 1). degree_bound must be at least the max
/// same-group degree.
ReduceResult kw_reduce(sim::Runtime& rt, const Coloring& initial,
                       std::int64_t initial_palette, int degree_bound,
                       const std::vector<std::int64_t>* groups = nullptr);

}  // namespace dvc
