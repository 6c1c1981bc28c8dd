// Property-based verification suite: sweeps seeds x generator families x
// every public preset and asserts, for each run,
//   1. legality of the produced coloring,
//   2. color-count bounds (distinct <= paper palette formula; preset-
//      specific caps where the paper gives one),
//   3. CONGEST conformance: the whole pipeline runs under the session
//      budget kCongestWordsPaperPath -- a single over-wide send would throw
//      bandwidth_error -- and every PhaseLog leaf respects the per-program
//      max_words contract declared next to its driver,
//   4. bandwidth bookkeeping consistency (the per-round word series sums
//      to the word total).
// Unknown leaf phases fail the suite, so a future VertexProgram cannot land
// without declaring (and being held to) a bandwidth contract. That a run is
// bit-identical at every shard count is tests/test_determinism_oracle.cpp's.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "core/legal_coloring.hpp"
#include "core/mis.hpp"
#include "core/simple_arbdefective.hpp"
#include "decomp/forests.hpp"
#include "decomp/h_partition.hpp"
#include "decomp/orientations.hpp"
#include "defective/kuhn.hpp"
#include "defective/reduce.hpp"
#include "graph/arboricity.hpp"
#include "graph/coloring.hpp"
#include "graph/generators.hpp"
#include "sim/runtime.hpp"

namespace dvc {
namespace {

struct Instance {
  std::string family;
  Graph g;
  int arb_bound;  // certified upper bound fed to the algorithms
};

std::vector<Instance> fuzz_instances(std::uint64_t seed) {
  std::vector<Instance> out;
  out.push_back({"gnp", random_gnp(96, 0.06, seed), 0});
  out.push_back({"near_regular", random_near_regular(128, 6, seed), 0});
  out.push_back({"planted_arboricity", planted_arboricity(128, 3, seed), 3});
  out.push_back({"barabasi_albert", barabasi_albert(128, 3, seed), 3});
  out.push_back({"geometric", random_geometric(150, 0.12, seed), 0});
  for (Instance& inst : out) {
    if (inst.arb_bound == 0) {
      inst.arb_bound = std::max(1, arboricity_bounds(inst.g).second);
    }
  }
  return out;
}

/// Declared worst-case message width of each leaf phase a preset pipeline
/// can record, keyed by the phase label; -1 for unknown labels.
std::int64_t contract_for(std::string_view phase) {
  if (phase == "h-partition") return h_partition_max_words();
  if (phase == "orient-exchange") return orient_exchange_max_words();
  if (phase == "forest-labels") return forest_labels_max_words();
  if (phase == "kuhn-defective" || phase == "linial" || phase == "arb-recolor")
    return recolor_max_words();
  if (phase == "kw-reduce") return kw_reduce_max_words();
  if (phase == "greedy-by-orientation")
    return greedy_by_orientation_max_words();
  if (phase == "simple-arbdefective") return simple_arbdefective_max_words();
  if (phase == "final-orient") return final_orient_max_words();
  if (phase == "mis-color-sweep") return mis_sweep_max_words();
  return -1;
}

void check_bandwidth_bookkeeping(const sim::RunStats& stats) {
  const std::uint64_t sum = std::accumulate(
      stats.words_per_round.begin(), stats.words_per_round.end(),
      std::uint64_t{0});
  EXPECT_EQ(sum, stats.words) << "per-round word series must sum to total";
  for (const std::uint64_t w : stats.words_per_round) {
    EXPECT_LE(w, stats.words);
  }
  EXPECT_LE(stats.max_msg_words, static_cast<std::uint32_t>(
                                     kCongestWordsPaperPath));
}

void check_leaf_contracts(const sim::PhaseLog& log) {
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (log[i].span) continue;
    const std::int64_t contract = contract_for(log.name(i));
    ASSERT_GE(contract, 0) << "phase '" << log.name(i)
                           << "' has no declared max_words contract";
    EXPECT_LE(static_cast<std::int64_t>(log[i].max_msg_words), contract)
        << "phase '" << log.name(i) << "' exceeded its declared contract";
  }
}

TEST(Fuzz, PresetSweepIsLegalBoundedAndCongestConformant) {
  for (const std::uint64_t seed : {1ull, 2ull}) {
    for (const Instance& inst : fuzz_instances(seed)) {
      for (int p = 0; p < kNumPresets; ++p) {
        const auto preset = static_cast<Preset>(p);
        SCOPED_TRACE(inst.family + " seed=" + std::to_string(seed) +
                     " preset=" + preset_name(preset) +
                     " a=" + std::to_string(inst.arb_bound));
        Knobs knobs;
        knobs.congest_words = kCongestWordsPaperPath;
        knobs.t = std::min(2, inst.arb_bound);
        const LegalColoringResult res =
            color_graph(inst.g, inst.arb_bound, preset, knobs);

        // 1. Legality.
        EXPECT_TRUE(is_legal_coloring(inst.g, res.colors));

        // 2. Color-count bounds.
        const V n = inst.g.num_vertices();
        EXPECT_GE(res.distinct, 1);
        EXPECT_LE(res.distinct, static_cast<int>(n));
        EXPECT_LE(static_cast<std::uint64_t>(res.distinct),
                  res.palette_formula);
        if (preset == Preset::DeltaPlusOneLowArb) {
          EXPECT_LE(static_cast<std::int64_t>(res.distinct),
                    static_cast<std::int64_t>(inst.g.max_degree()) + 1);
        }

        // 3+4. CONGEST conformance and bookkeeping (the run itself already
        // enforced the budget; these assert the metering agrees).
        check_bandwidth_bookkeeping(res.total);
        check_leaf_contracts(res.phases);
      }
    }
  }
}

TEST(Fuzz, MisSweepIsMaximalAndCongestConformant) {
  for (const std::uint64_t seed : {3ull, 4ull}) {
    for (const Instance& inst : fuzz_instances(seed)) {
      SCOPED_TRACE(inst.family + " seed=" + std::to_string(seed));
      Knobs knobs;
      knobs.congest_words = kCongestWordsPaperPath;
      const MisResult res = mis_graph(inst.g, inst.arb_bound, knobs);
      EXPECT_TRUE(is_maximal_independent_set(inst.g, res.in_mis));
      check_bandwidth_bookkeeping(res.total);
      check_leaf_contracts(res.phases);
    }
  }
}

TEST(Fuzz, DecompositionDriversHonorTheirContractsUnderTightBudgets) {
  // Each driver runs on a session whose budget equals the WIDEST contract
  // in its own pipeline -- any send beyond a program's declared width (all
  // contracts are <= the pipeline budget, and contracts are enforced
  // program-side regardless of the session budget) aborts the run.
  const Graph g = planted_arboricity(256, 3, 5);
  {
    sim::Runtime rt(g);
    rt.set_congest_words(h_partition_max_words());
    const HPartitionResult hp = h_partition(rt, 3);
    EXPECT_TRUE(verify_h_partition(g, hp));
    EXPECT_LE(hp.stats.max_msg_words,
              static_cast<std::uint32_t>(h_partition_max_words()));
  }
  {
    sim::Runtime rt(g);
    rt.set_congest_words(orient_exchange_max_words());
    const ForestsDecomposition fd = forests_decomposition(rt, 3);
    EXPECT_TRUE(verify_forests_decomposition(g, fd));
    check_leaf_contracts(rt.log());
  }
  {
    sim::Runtime rt(g);
    rt.set_congest_words(recolor_max_words());
    const DefectiveResult def = kuhn_defective(rt, g.max_degree(), 2);
    EXPECT_LE(coloring_defect(g, def.colors), def.defect_budget);
    check_leaf_contracts(rt.log());
  }
  {
    sim::Runtime rt(g);
    rt.set_congest_words(orient_exchange_max_words());
    const CompleteOrientationResult ori = complete_orientation(rt, 3);
    const ReduceResult greedy =
        greedy_by_orientation(rt, ori.sigma, ori.hp.threshold + 1);
    EXPECT_TRUE(is_legal_coloring(g, greedy.colors));
    check_leaf_contracts(rt.log());
  }
}

TEST(Fuzz, GeneratorSweepKeepsCertifiedArboricityUsable) {
  // The harness feeds arboricity_bounds().second to the algorithms; that
  // certified upper bound must stay >= the certified lower bound and the
  // pipelines must terminate within their round caps for every family and
  // seed (a violated bound would throw invariant_error).
  for (const std::uint64_t seed : {5ull, 6ull, 7ull}) {
    for (const Instance& inst : fuzz_instances(seed)) {
      SCOPED_TRACE(inst.family + " seed=" + std::to_string(seed));
      const auto [lo, hi] = arboricity_bounds(inst.g);
      EXPECT_LE(lo, hi);
      EXPECT_GE(inst.arb_bound, lo);
      Knobs knobs;
      knobs.congest_words = kCongestWordsPaperPath;
      const LegalColoringResult res =
          color_graph(inst.g, inst.arb_bound, Preset::NearLinearColors, knobs);
      EXPECT_TRUE(is_legal_coloring(inst.g, res.colors));
    }
  }
}

}  // namespace
}  // namespace dvc
