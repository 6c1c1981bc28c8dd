// Deterministic fault injection for the simulation runtime.
//
// A FaultPlan is a pure value describing WHICH faults to inject WHERE; the
// Runtime consults it at one fixed point of run_phase: the entry of every
// shard sweep. Every decision is a pure hash of (seed, salt, kind, phase,
// round, shard) through the same splitmix combiner the graph digest uses,
// so a plan replayed against the same session reproduces the same faults
// bit-identically.
//
// The `salt` field separates retry attempts: the service re-runs a failed
// job with salt = attempt number, so a probabilistic fault that killed
// attempt 0 does not deterministically kill every retry, while a Scheduled
// entry with salt = -1 fires on EVERY attempt (for exhaustion/quarantine
// tests). Faults raised by the runtime derive from dvc::transient_error so
// the service can classify them mechanically (see check.hpp).
//
// Fault taxonomy (see DESIGN.md, "Fault model & recovery"):
//   * kShardFailure -- a shard thread dies at sweep entry (fault_error).
//   * kAllocFailure -- std::bad_alloc at sweep entry (the standard library
//                      type, so injected and genuine exhaustion share a
//                      recovery path).
//   * kStall        -- the shard sleeps before sweeping. Never an error:
//                      stalls must be output-invisible, and the chaos tests
//                      assert exactly that.
// Messages are not damaged in-process: in the paper's model a message sent
// in round r arrives intact in round r+1, and the only bytes that cross a
// process boundary -- the dist wire -- carry a frame checksum and their own
// injected damage (dist::DistConfig::corrupt_at_sweep).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "graph/graph.hpp"

namespace dvc::sim {

/// The values are mixed into FaultPlan::decision_hash, so they are pinned:
/// renumbering a kind would move every rate-based fault of that kind.
enum class FaultKind : std::uint8_t {
  kShardFailure = 0,
  kAllocFailure = 3,
  kStall = 4,
};

inline const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kShardFailure: return "shard_failure";
    case FaultKind::kAllocFailure: return "alloc_failure";
    case FaultKind::kStall: return "stall";
  }
  return "unknown";
}

/// An injected shard-level fault (kShardFailure from the plan). Structured
/// so tests and the service can attribute the failure mechanically; carries
/// the phase label so a deep-pipeline failure names the phase that raised
/// it without any caller-side bookkeeping.
class fault_error : public transient_error {
 public:
  fault_error(const std::string& what, FaultKind kind, std::string phase_label,
              int phase, int round, int shard)
      : transient_error(what),
        kind(kind),
        phase_label(std::move(phase_label)),
        phase(phase),
        round(round),
        shard(shard) {}

  FaultKind kind;
  std::string phase_label;  ///< label of the phase the fault fired in
  int phase;                ///< 0-based index of the phase within the session
  int round;                ///< round the sweep was entered for (0 = begin)
  int shard;                ///< the failed shard
};

/// Raised by the runtime watchdog (Runtime::set_watchdog_idle_rounds): the
/// configured number of consecutive rounds passed in which no vertex halted
/// and no message was sent -- a runaway phase burning rounds without
/// progress. A structural failure, NOT a transient_error: re-running the
/// same program would idle identically, so the service fails such jobs
/// permanently instead of retrying them.
class watchdog_error : public invariant_error {
 public:
  watchdog_error(const std::string& what, std::string phase_label, int phase,
                 int round, int idle_rounds)
      : invariant_error(what),
        phase_label(std::move(phase_label)),
        phase(phase),
        round(round),
        idle_rounds(idle_rounds) {}

  std::string phase_label;
  int phase;
  int round;        ///< round the watchdog tripped at
  int idle_rounds;  ///< consecutive progress-free rounds observed
};

/// Seeded, deterministic fault schedule. Install on a session with
/// Runtime::set_fault_plan / ScopedFaultPlan, or per-run via
/// Knobs::fault_plan (the service salts its copy per retry attempt).
struct FaultPlan {
  std::uint64_t seed = 0;
  /// Attempt separator: mixed into every probabilistic decision. The
  /// service sets it to the retry attempt number.
  int salt = 0;

  /// Per-(phase, round, shard) probability that a shard sweep fails.
  double shard_failure_rate = 0.0;
  /// Per-(phase, round, shard) probability of an injected bad_alloc.
  double alloc_failure_rate = 0.0;
  /// Per-(phase, round, shard) probability the sweep stalls stall_us first.
  double stall_rate = 0.0;

  /// Stall duration for kStall faults, microseconds.
  int stall_us = 200;

  /// Exactly-scheduled fault: fires when (phase, round, shard) match,
  /// regardless of the rates. salt = -1
  /// fires on every retry attempt; salt >= 0 only on that attempt.
  struct Scheduled {
    FaultKind kind = FaultKind::kShardFailure;
    int phase = 0;
    int round = 0;
    int shard = -1;  ///< -1 matches any shard
    int salt = -1;
  };
  std::vector<Scheduled> scheduled;

  /// True when this plan can inject anything (rates or schedule non-empty).
  bool armed() const {
    return shard_failure_rate > 0 || alloc_failure_rate > 0 || stall_rate > 0 ||
           !scheduled.empty();
  }

  /// Deterministic decision hash for (kind, phase, round, shard) under this
  /// plan's seed and salt.
  std::uint64_t decision_hash(FaultKind kind, int phase, int round,
                              int shard) const {
    using detail::digest_mix;
    std::uint64_t h = digest_mix(seed, 0x6476636641554c54ULL /* "dvcfFALT" */);
    h = digest_mix(h, static_cast<std::uint64_t>(salt));
    h = digest_mix(h, static_cast<std::uint64_t>(kind));
    h = digest_mix(h, static_cast<std::uint64_t>(phase));
    h = digest_mix(h, static_cast<std::uint64_t>(round));
    h = digest_mix(h, static_cast<std::uint64_t>(shard));
    return h;
  }

  /// Whether a fault of `kind` fires at (phase, round, shard).
  bool fires(FaultKind kind, int phase, int round, int shard) const {
    for (const Scheduled& s : scheduled) {
      if (s.kind == kind && s.phase == phase && s.round == round &&
          (s.shard < 0 || s.shard == shard) &&
          (s.salt < 0 || s.salt == salt)) {
        return true;
      }
    }
    const double rate = kind == FaultKind::kShardFailure ? shard_failure_rate
                        : kind == FaultKind::kAllocFailure ? alloc_failure_rate
                                                           : stall_rate;
    if (rate <= 0) return false;
    // Top 53 bits -> uniform double in [0, 1).
    const double u =
        static_cast<double>(decision_hash(kind, phase, round, shard) >> 11) *
        (1.0 / 9007199254740992.0);
    return u < rate;
  }
};

}  // namespace dvc::sim
