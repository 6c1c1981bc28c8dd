// The bit-identity oracle (DESIGN.md, "Testing"): colors, RunStats and
// PhaseLog must not depend on how a run is executed. Hook-free: safe to
// include from any test TU (unlike test_support.hpp).
//
//   * bit_identical(want, got) is the one result comparator: every test
//     that asserts two runs agree goes through it, so no result field can
//     drop out of one identity check.
//   * check_every_axis(input, knobs, tally) runs every preset and mis_graph
//     on one (graph, bound, knobs) input: a 1-shard reference once, then
//     every execution axis against it.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "baselines/rand_coloring.hpp"
#include "core/api.hpp"
#include "decomp/forests.hpp"
#include "dist/dist.hpp"
#include "service/service.hpp"
#include "sim/runtime.hpp"
#include "test_helpers.hpp"

namespace dvc_test {

namespace oracle_detail {

inline std::string counters(const dvc::sim::RunStats& s) {
  return "rounds " + std::to_string(s.rounds) + ", messages " +
         std::to_string(s.messages) + ", words " + std::to_string(s.words) +
         ", work_items " + std::to_string(s.work_items) + ", max_msg_words " +
         std::to_string(s.max_msg_words);
}

/// Where two per-vertex (or per-slot) outputs first differ.
template <class T>
std::string first_difference(const std::vector<T>& a, const std::vector<T>& b,
                             const std::string& index = "vertex") {
  if (a.size() != b.size()) {
    return std::to_string(a.size()) + " vs " + std::to_string(b.size()) +
           " entries";
  }
  const auto [x, y] = std::ranges::mismatch(a, b);
  return index + " " + std::to_string(x - a.begin()) + ": " +
         std::to_string(*x) + " vs " + std::to_string(*y);
}

inline ::testing::AssertionResult same_run(const dvc::sim::RunStats& want,
                                           const dvc::sim::RunStats& got,
                                           const dvc::sim::PhaseLog& want_log,
                                           const dvc::sim::PhaseLog& got_log) {
  if (!(want == got)) {
    return ::testing::AssertionFailure()
           << "RunStats differ (counters or per-round series): "
           << counters(want) << " vs " << counters(got);
  }
  if (want_log == got_log) return ::testing::AssertionSuccess();
  for (std::size_t i = 0; i < std::min(want_log.size(), got_log.size()); ++i) {
    if (want_log.name(i) != got_log.name(i) ||
        !(want_log.stats(i) == got_log.stats(i))) {
      return ::testing::AssertionFailure() << "PhaseLog differs at entry " << i
                                           << " ('" << want_log.name(i) << "')";
    }
  }
  return ::testing::AssertionFailure()
         << "PhaseLog differs (" << want_log.size() << " vs " << got_log.size()
         << " entries, or their nesting)";
}

}  // namespace oracle_detail

/// Every deterministic field of two colorings.
inline ::testing::AssertionResult bit_identical(
    const dvc::LegalColoringResult& want, const dvc::LegalColoringResult& got) {
  if (want.colors != got.colors) {
    return ::testing::AssertionFailure()
           << "colors differ at "
           << oracle_detail::first_difference(want.colors, got.colors);
  }
  if (want.distinct != got.distinct ||
      want.palette_formula != got.palette_formula ||
      want.iterations != got.iterations) {
    return ::testing::AssertionFailure()
           << "distinct/palette_formula/iterations " << want.distinct << "/"
           << want.palette_formula << "/" << want.iterations << " vs "
           << got.distinct << "/" << got.palette_formula << "/"
           << got.iterations;
  }
  return oracle_detail::same_run(want.total, got.total, want.phases,
                                 got.phases);
}

/// Every deterministic field of two MIS runs.
inline ::testing::AssertionResult bit_identical(const dvc::MisResult& want,
                                                const dvc::MisResult& got) {
  if (want.in_mis != got.in_mis) {
    return ::testing::AssertionFailure()
           << "in_mis differs at "
           << oracle_detail::first_difference(want.in_mis, got.in_mis);
  }
  if (want.colors_used != got.colors_used || want.algorithm != got.algorithm) {
    return ::testing::AssertionFailure()
           << "colors_used/algorithm " << want.colors_used << "/"
           << want.algorithm << " vs " << got.colors_used << "/"
           << got.algorithm;
  }
  return oracle_detail::same_run(want.total, got.total, want.phases,
                                 got.phases);
}

/// Every deterministic field of two forests decompositions, each with the
/// session log its run recorded into.
inline ::testing::AssertionResult bit_identical(
    const dvc::ForestsDecomposition& want, const dvc::sim::PhaseLog& want_log,
    const dvc::ForestsDecomposition& got, const dvc::sim::PhaseLog& got_log) {
  if (want.forest_of_slot != got.forest_of_slot) {
    return ::testing::AssertionFailure()
           << "forest labels differ at "
           << oracle_detail::first_difference(want.forest_of_slot,
                                              got.forest_of_slot, "slot");
  }
  if (want.num_forests != got.num_forests) {
    return ::testing::AssertionFailure() << "num_forests " << want.num_forests
                                         << " vs " << got.num_forests;
  }
  return oracle_detail::same_run(want.total, got.total, want_log, got_log);
}

/// Every deterministic field of two runs of one phase: its RunStats and
/// the session log each run recorded into (the caller compares the
/// program's own outputs).
inline ::testing::AssertionResult bit_identical(
    const dvc::sim::RunStats& want, const dvc::sim::PhaseLog& want_log,
    const dvc::sim::RunStats& got, const dvc::sim::PhaseLog& got_log) {
  return oracle_detail::same_run(want, got, want_log, got_log);
}

/// Every deterministic field of two randomized trial colorings, each with
/// the session log its run recorded into.
inline ::testing::AssertionResult bit_identical(
    const dvc::RandColoringResult& want, const dvc::sim::PhaseLog& want_log,
    const dvc::RandColoringResult& got, const dvc::sim::PhaseLog& got_log) {
  if (want.colors != got.colors) {
    return ::testing::AssertionFailure()
           << "colors differ at "
           << oracle_detail::first_difference(want.colors, got.colors);
  }
  if (want.palette != got.palette) {
    return ::testing::AssertionFailure()
           << "palette " << want.palette << " vs " << got.palette;
  }
  return bit_identical(want.stats, want_log, got.stats, got_log);
}

/// A service job against the run it must reproduce: the job succeeded and
/// its result is bit-identical.
inline ::testing::AssertionResult bit_identical(
    const dvc::LegalColoringResult& want, const dvc::service::JobResult& job) {
  if (!job.ok) return ::testing::AssertionFailure() << "job failed: " << job.error;
  return bit_identical(want, job.result);
}

/// One (graph, bound) input of the harness.
struct OracleInput {
  std::string name;
  dvc::Graph g;
  int bound = 1;      ///< arboricity bound fed to every program
  bool fork = false;  ///< also run the fork backend (it forks every phase)
};

/// What a harness sweep covered, and how often it failed.
struct OracleTally {
  std::uint64_t runs = 0;        ///< program runs, references included
  std::uint64_t boundaries = 0;  ///< phase boundaries resumed from
  std::uint64_t mismatches = 0;  ///< axes that diverged or threw
};

namespace oracle_detail {

/// The programs the harness drives: every preset, then mis_graph.
inline constexpr int kNumPrograms = dvc::kNumPresets + 1;

/// One program's result; the half the program does not fill stays empty.
struct Outcome {
  dvc::LegalColoringResult coloring;
  dvc::MisResult mis;
};

inline ::testing::AssertionResult same_outcome(const Outcome& want,
                                               const Outcome& got) {
  ::testing::AssertionResult coloring = bit_identical(want.coloring, got.coloring);
  return coloring ? bit_identical(want.mis, got.mis) : coloring;
}

/// Runs `program` on `rt`, or through the one-call facade -- a fresh
/// session per call -- when `rt` is null.
inline Outcome run_program(dvc::sim::Runtime* rt, const OracleInput& in,
                           int program, const dvc::Knobs& knobs) {
  Outcome out;
  const auto preset = static_cast<dvc::Preset>(program);
  if (program == dvc::kNumPresets) {
    out.mis = rt ? dvc::mis_graph(*rt, in.bound, knobs)
                 : dvc::mis_graph(in.g, in.bound, knobs);
  } else {
    out.coloring = rt ? dvc::color_graph(*rt, in.bound, preset, knobs)
                      : dvc::color_graph(in.g, in.bound, preset, knobs);
  }
  return out;
}

}  // namespace oracle_detail

/// Runs every program on every execution axis for `in` and compares each
/// run against the program's 1-shard reference, computed once. The axes:
///   * a fresh session per run, through the one-call facade;
///   * threaded shards 2, 3 and 8, one session each, reused across every
///     program without reset_log() -- the shared-session axis;
///   * inline shards (4 shards, no threads);
///   * resume at every phase boundary: the reference run copies its log at
///     each boundary, and each copy is replayed on a reset_log()'d 3-shard
///     inline session that re-runs the program to the end;
///   * loopback dist at 2 and 3 workers, and fork at 2 workers when
///     in.fork, on the inline session.
/// Shard and worker counts above n are clamped by the runtime. Each
/// divergence or throw is one test failure naming input, program and axis.
inline void check_every_axis(const OracleInput& in, const dvc::Knobs& knobs,
                             OracleTally& tally) {
  namespace sim = dvc::sim;
  namespace dist = dvc::dist;
  using oracle_detail::kNumPrograms;
  std::vector<oracle_detail::Outcome> reference(kNumPrograms);
  const auto fail = [&](int program, const std::string& axis,
                        const std::string& what) {
    ++tally.mismatches;
    ADD_FAILURE() << in.name << " / "
                  << (program < dvc::kNumPresets
                          ? dvc::preset_name(static_cast<dvc::Preset>(program))
                          : "mis")
                  << " / " << axis << ": " << what;
  };
  // Runs `program` on `rt` -- replaying `held` first, if given -- and
  // compares the result with the program's reference.
  const auto check = [&](sim::Runtime* rt, int program, const dvc::Knobs& k,
                         const std::string& axis,
                         const sim::PhaseLog* held = nullptr) {
    ++tally.runs;
    try {
      if (held != nullptr) rt->resume(*held);
      const ::testing::AssertionResult same = oracle_detail::same_outcome(
          reference[static_cast<std::size_t>(program)],
          oracle_detail::run_program(rt, in, program, k));
      if (!same) fail(program, axis, same.message());
    } catch (const std::exception& e) {
      fail(program, axis, std::string("threw: ") + e.what());
    }
  };

  sim::Runtime ref(in.g, 1);
  sim::Runtime threaded[] = {sim::Runtime(in.g, 2), sim::Runtime(in.g, 3),
                             sim::Runtime(in.g, 8)};
  sim::Runtime inline_rt(in.g, 4, /*inline_shards=*/true);
  sim::Runtime resumer(in.g, 3, /*inline_shards=*/true);

  for (int program = 0; program < kNumPrograms; ++program) {
    // The reference, copying its log at every phase boundary on the way.
    std::vector<sim::PhaseLog> held;
    ref.reset_log();
    try {
      const sim::ScopedInterrupt at_boundary(
          ref, [&] { held.push_back(ref.log()); });
      ++tally.runs;
      reference[static_cast<std::size_t>(program)] =
          oracle_detail::run_program(&ref, in, program, knobs);
    } catch (const std::exception& e) {
      fail(program, "1-shard reference", std::string("threw: ") + e.what());
      return;  // nothing to compare this input's axes against
    }
    check(nullptr, program, knobs, "fresh session (facade)");
    for (sim::Runtime& rt : threaded) {
      check(&rt, program, knobs, "threaded shards=" + std::to_string(rt.shards()));
    }
    check(&inline_rt, program, knobs,
          "inline shards=" + std::to_string(inline_rt.shards()));
    for (std::size_t k = 0; k < held.size(); ++k) {
      ++tally.boundaries;
      resumer.reset_log();
      check(&resumer, program, knobs,
            "resume at boundary " + std::to_string(k) + " of " +
                std::to_string(held.size()) + ", shards 1 -> " +
                std::to_string(resumer.shards()),
            &held[k]);
    }
  }

  std::vector<dist::DistConfig> transports = {
      {.workers = 2, .backend = dist::Backend::kLoopback},
      {.workers = 3, .backend = dist::Backend::kLoopback}};
  if (in.fork) transports.push_back({.workers = 2, .backend = dist::Backend::kFork});
  for (const dist::DistConfig& cfg : transports) {
    const dist::DistSession session(inline_rt, cfg);
    const std::string axis = std::string(dist::backend_name(cfg.backend)) +
                             " workers=" + std::to_string(cfg.workers);
    for (int program = 0; program < kNumPrograms; ++program) {
      check(&inline_rt, program, knobs, axis);
    }
  }
}

}  // namespace dvc_test
