// The bit-identity contract, checked by one differential oracle
// (tests/determinism_oracle.hpp; DESIGN.md, "Testing"): every preset and
// mis_graph, on every execution axis -- threaded shards, a shared session,
// the port-scan oracle, inline shards, resume at every phase boundary,
// loopback and fork dist -- reproduces its 1-shard reference bit for bit.
// Inputs: every labeled graph on <= 5 vertices, plus a generator sample.
//
// The file name puts it in the `determinism` ctest label, which runs in the
// ASan+UBSan and TSan CI legs.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "graph/arboricity.hpp"
#include "graph/generators.hpp"
#include "determinism_oracle.hpp"

namespace dvc {
namespace {

using dvc_test::OracleInput;
using dvc_test::OracleTally;

/// Every axis runs as a CONGEST algorithm, under the paper-path budget.
const Knobs kPaperPath{.congest_words = kCongestWordsPaperPath};

int degeneracy_bound(const Graph& g) { return std::max(1, degeneracy(g)); }

/// Every labeled graph on `n` vertices: bit i of the mask selects the i-th
/// vertex pair in lexicographic order.
std::vector<Graph> labeled_graphs(V n) {
  std::vector<std::pair<V, V>> pairs;
  for (V u = 0; u < n; ++u) {
    for (V v = u + 1; v < n; ++v) pairs.emplace_back(u, v);
  }
  std::vector<Graph> out;
  for (std::uint32_t mask = 0; mask < (1u << pairs.size()); ++mask) {
    EdgeList edges;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (mask >> i & 1u) edges.push_back(pairs[i]);
    }
    out.push_back(Graph::from_edges(n, edges));
  }
  return out;
}

/// A star joined to a path: one hub holding half the star's slots, then a
/// long degree-2 tail -- the cost-balanced shard cuts land far from equal
/// vertex blocks.
Graph star_and_path(V star, V path) {
  EdgeList edges = star_graph(star).edges();
  for (const auto& [u, v] : path_graph(path).edges()) {
    edges.emplace_back(u + star, v + star);
  }
  edges.emplace_back(star - 1, star);  // a leaf to the path's head
  return Graph::from_edges(star + path, edges);
}

void report(const char* what, const OracleTally& tally,
            std::chrono::steady_clock::time_point start) {
  const double s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  std::printf("[ oracle   ] %s: %llu runs, %llu resume boundaries, %.1f s\n",
              what, static_cast<unsigned long long>(tally.runs),
              static_cast<unsigned long long>(tally.boundaries), s);
}

TEST(DeterminismOracle, EveryLabeledGraphOnAtMostFiveVertices) {
  const auto start = std::chrono::steady_clock::now();
  OracleTally tally;
  int graphs = 0;
  for (V n = 1; n <= 5; ++n) {
    for (Graph& g : labeled_graphs(n)) {
      OracleInput in;
      in.name = "n=" + std::to_string(n) + " #" + std::to_string(graphs);
      in.bound = degeneracy_bound(g);
      // The fork backend forks per phase: sample one graph in 64.
      in.fork = graphs % 64 == 0;
      in.g = std::move(g);
      ++graphs;
      dvc_test::check_every_axis(in, kPaperPath, tally);
      ASSERT_LT(tally.mismatches, 20u) << "stopping after 20 mismatches";
    }
  }
  EXPECT_EQ(graphs, 1 + 2 + 8 + 64 + 1024);
  EXPECT_GT(tally.boundaries, 0u);
  report("labeled graphs on <= 5 vertices", tally, start);
}

TEST(DeterminismOracle, GeneratorSample) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<OracleInput> inputs;
  // R-MAT's heavy quadrant is the top-left one: the hubs hold low ids.
  inputs.push_back({"rmat", rmat_graph(8, 8, 5), 0});
  inputs.push_back({"planted", planted_arboricity(400, 3, 7), 3});
  inputs.push_back({"ba", barabasi_albert(300, 3, 2), 3});
  inputs.push_back({"near-regular", random_near_regular(256, 6, 3), 0});
  inputs.push_back({"star+path", star_and_path(120, 180), 1});
  inputs.push_back({"path", path_graph(300), 1});
  inputs.push_back({"empty", Graph::from_edges(64, {}), 1});
  inputs.push_back({"no vertices", Graph::from_edges(0, {}), 1});
  OracleTally tally;
  for (OracleInput& in : inputs) {
    if (in.bound == 0) in.bound = degeneracy_bound(in.g);
    in.fork = true;
    dvc_test::check_every_axis(in, kPaperPath, tally);
  }
  report("generator sample", tally, start);
}

}  // namespace
}  // namespace dvc
