// Chaos suite: deterministic fault injection, replay against a held phase
// log, and the service's self-healing retry path. The contract under test
// is REPRODUCIBILITY OF FAILURE: the same FaultPlan raises the same
// structured error at the same (phase, round, shard) on every run; a
// session that survived a fault keeps serving bit-identical results; a
// replay that diverges from its held log is caught at the first differing
// entry (resume at every phase boundary is an axis of
// tests/test_determinism_oracle.cpp); and a job the service healed through
// a retry is bitwise-equal to a fault-free solo run.
//
// This file is the `chaos` ctest label and runs in BOTH the ASan+UBSan and
// ThreadSanitizer CI legs (see .github/workflows/ci.yml): injected faults
// unwind across the shard pool, which is exactly where a concurrency bug
// would hide.
#include <gtest/gtest.h>

#include <chrono>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "core/api.hpp"
#include "graph/coloring.hpp"
#include "graph/generators.hpp"
#include "service/service.hpp"
#include "sim/fault.hpp"
#include "sim/runtime.hpp"
#include "determinism_oracle.hpp"
#include "test_helpers.hpp"

namespace dvc {
namespace {

using dvc_test::FloodAll;
using service::ColoringService;
using service::GraphRef;
using service::JobResult;
using service::JobSpec;
using service::JobStatus;
using service::JobTicket;
using service::ServiceConfig;

/// Size of the log a run holds when its phase `k` (the k-th run_phase,
/// 0-based) throws: every entry of the fault-free run's log `full` before
/// that phase's leaf, the spans open around it included.
std::size_t held_log_size(const sim::PhaseLog& full, int k) {
  for (std::size_t i = 0; i < full.size(); ++i) {
    if (!full[i].span && k-- == 0) return i;
  }
  return full.size();
}

/// A program that never halts and never speaks: the canonical runaway the
/// progress watchdog exists to convert into a prompt structural failure.
class Silent : public sim::VertexProgram {
 public:
  std::string name() const override { return "silent"; }
  void step(sim::Ctx&, const sim::Inbox&) override {}
};

// ---------------------------------------------------------------------------
// Fault injection: structured and deterministic

TEST(Fault, ScheduledShardFailureIsStructuredAndDeterministic) {
  const Graph g = cycle_graph(96);
  sim::FaultPlan plan;
  plan.seed = 7;
  plan.scheduled.push_back(
      {sim::FaultKind::kShardFailure, /*phase=*/0, /*round=*/2, /*shard=*/0,
       /*salt=*/-1});

  std::string first_what;
  for (int run = 0; run < 2; ++run) {
    sim::Runtime rt(g, 2);
    rt.set_fault_plan(plan);
    FloodAll flood(6);
    try {
      rt.run_phase(flood, 32);
      FAIL() << "scheduled shard failure did not fire (run " << run << ")";
    } catch (const sim::fault_error& e) {
      EXPECT_EQ(e.kind, sim::FaultKind::kShardFailure);
      EXPECT_EQ(e.phase, 0);
      EXPECT_EQ(e.round, 2);
      EXPECT_EQ(e.shard, 0);
      EXPECT_EQ(e.phase_label, "flood");
      EXPECT_NE(std::string(e.what()).find("phase 'flood'"), std::string::npos);
      if (run == 0) first_what = e.what();
      else EXPECT_EQ(first_what, e.what()) << "fault text must reproduce";
    }
    EXPECT_EQ(rt.faults_injected(), 1u);
    EXPECT_EQ(rt.last_phase(), "flood") << "failing phase must be reported";
  }
}

TEST(Fault, SessionStaysSoundAndBitIdenticalAfterInjectedFault) {
  const Graph g = planted_arboricity(160, 3, 11);
  sim::RunStats clean;
  {
    sim::Runtime rt(g, 2);
    FloodAll flood(5);
    clean = rt.run_phase(flood, 32);
  }
  sim::Runtime rt(g, 2);
  sim::FaultPlan plan;
  plan.seed = 3;
  plan.shard_failure_rate = 1.0;  // fails immediately, on every run
  rt.set_fault_plan(plan);
  FloodAll flood(5);
  EXPECT_THROW(rt.run_phase(flood, 32), sim::fault_error);

  // Clear the plan, restart the phase counter: the survivor must now be
  // indistinguishable from a fresh session (the pool-reuse contract).
  rt.set_fault_plan(sim::FaultPlan{});
  rt.reset_log();
  EXPECT_EQ(rt.phases_run(), 0) << "reset_log must restart the phase index";
  FloodAll flood2(5);
  const sim::RunStats after = rt.run_phase(flood2, 32);
  EXPECT_TRUE(clean == after) << "post-fault session diverged from fresh";
}

TEST(Fault, ScheduledAllocFailureRaisesStandardBadAlloc) {
  // Injected allocation failure shares the recovery path with genuine
  // exhaustion: it must surface as the STANDARD std::bad_alloc.
  const Graph g = cycle_graph(64);
  sim::Runtime rt(g, 2);
  sim::FaultPlan plan;
  plan.seed = 29;
  plan.scheduled.push_back(
      {sim::FaultKind::kAllocFailure, /*phase=*/0, /*round=*/0, /*shard=*/0,
       /*salt=*/-1});
  rt.set_fault_plan(plan);
  FloodAll flood(4);
  EXPECT_THROW(rt.run_phase(flood, 32), std::bad_alloc);
  EXPECT_EQ(rt.faults_injected(), 1u);
}

TEST(Fault, StallsAreOutputInvisible) {
  const Graph g = planted_arboricity(160, 3, 31);
  sim::RunStats plain;
  {
    sim::Runtime rt(g, 2);
    FloodAll flood(5);
    plain = rt.run_phase(flood, 32);
  }
  sim::Runtime rt(g, 2);
  sim::FaultPlan plan;
  plan.seed = 37;
  plan.stall_rate = 1.0;
  plan.stall_us = 1;
  rt.set_fault_plan(plan);
  FloodAll flood(5);
  const sim::RunStats stalled = rt.run_phase(flood, 32);
  EXPECT_TRUE(plain == stalled) << "a stall changed the output";
  EXPECT_GT(rt.faults_injected(), 0u);
}

TEST(Fault, SaltSeparatesRetryAttempts) {
  // A fault scheduled for attempt 0 (salt = 0) must leave attempt 1
  // (salt = 1) untouched -- the mechanism the service's retries lean on.
  const Graph g = cycle_graph(96);
  sim::FaultPlan plan;
  plan.seed = 41;
  plan.scheduled.push_back(
      {sim::FaultKind::kShardFailure, /*phase=*/0, /*round=*/1, /*shard=*/-1,
       /*salt=*/0});

  sim::RunStats clean;
  {
    sim::Runtime rt(g, 2);
    FloodAll flood(5);
    clean = rt.run_phase(flood, 32);
  }
  {
    sim::Runtime rt(g, 2);
    plan.salt = 0;
    rt.set_fault_plan(plan);
    FloodAll flood(5);
    EXPECT_THROW(rt.run_phase(flood, 32), sim::fault_error);
  }
  {
    sim::Runtime rt(g, 2);
    plan.salt = 1;
    rt.set_fault_plan(plan);
    FloodAll flood(5);
    const sim::RunStats retry = rt.run_phase(flood, 32);
    EXPECT_TRUE(clean == retry) << "salted retry diverged from clean run";
    EXPECT_EQ(rt.faults_injected(), 0u);
  }
}

TEST(Fault, DecisionHashGoldenValues) {
  // decision_hash mixes in the kind's value, so a kind renumbered by an edit
  // of FaultKind would move every rate-based fault. Pinned hashes of one
  // (seed, salt, phase, round, shard) per kind.
  sim::FaultPlan plan;
  plan.seed = 0x5eed;
  plan.salt = 2;
  EXPECT_EQ(plan.decision_hash(sim::FaultKind::kShardFailure, 3, 5, 1),
            0x5e704f01c32d3422ULL);
  EXPECT_EQ(plan.decision_hash(sim::FaultKind::kAllocFailure, 3, 5, 1),
            0xe0296921787fa210ULL);
  EXPECT_EQ(plan.decision_hash(sim::FaultKind::kStall, 3, 5, 1),
            0x349f7113e910bc97ULL);
}

TEST(Fault, DirectKnobsFaultPlanInstallsForTheCall) {
  // The Knobs::fault_plan path (direct synchronous calls): an
  // output-invisible plan (stalls only) must color bit-identically.
  const Graph g = planted_arboricity(200, 3, 43);
  Knobs knobs;
  knobs.shards = 1;
  const LegalColoringResult plain =
      color_graph(g, 3, Preset::NearLinearColors, knobs);

  sim::FaultPlan plan;
  plan.seed = 47;
  plan.stall_rate = 0.05;
  plan.stall_us = 1;
  Knobs chaos = knobs;
  chaos.fault_plan = plan;
  const LegalColoringResult stalled =
      color_graph(g, 3, Preset::NearLinearColors, chaos);
  EXPECT_TRUE(dvc_test::bit_identical(plain, stalled))
      << "stall-only plan through Knobs";
}

// ---------------------------------------------------------------------------
// Watchdog: runaway programs fail structurally, not transiently

TEST(Watchdog, SilentProgramTripsPromptStructuralFailure) {
  const Graph g = cycle_graph(64);
  sim::Runtime rt(g, 2);
  rt.set_watchdog_idle_rounds(8);
  Silent silent;
  try {
    rt.run_phase(silent, 100000);  // would burn 100k rounds without the dog
    FAIL() << "watchdog did not trip";
  } catch (const sim::watchdog_error& e) {
    EXPECT_EQ(e.idle_rounds, 8);
    EXPECT_EQ(e.phase, 0);
    EXPECT_EQ(e.phase_label, "silent");
    EXPECT_NE(std::string(e.what()).find("in phase 'silent'"),
              std::string::npos);
  }

  // Structural classification: invariant_error (never retried), NOT a
  // transient_error -- re-running a silent program would idle identically.
  rt.reset_log();
  Silent again;
  try {
    rt.run_phase(again, 100000);
    FAIL() << "watchdog did not trip on the second run";
  } catch (const transient_error&) {
    FAIL() << "watchdog_error must not be transient";
  } catch (const invariant_error&) {
    // expected
  }
}

// ---------------------------------------------------------------------------
// Replay against a held log

TEST(Replay, ResumeCatchesEveryDivergentReplayOfAHeldLog) {
  const Graph g = planted_arboricity(200, 3, 53);
  sim::Runtime rt(g, 2);
  FloodAll flood(4);
  rt.run_phase(flood, 32);
  const sim::PhaseLog held = rt.log();
  {  // A faithful replay passes, and the replayed session's log equals the
    // held one.
    sim::Runtime fresh(g, 2);
    fresh.resume(held);
    FloodAll again(4);
    EXPECT_NO_THROW(fresh.run_phase(again, 32));
    EXPECT_TRUE(fresh.log() == held);
  }
  {  // A divergent replay (different phase than the held run) must be
    // caught at the first re-recorded phase.
    sim::Runtime fresh(g, 2);
    fresh.resume(held);
    FloodAll other(4);
    try {
      fresh.run_phase(other, 32, "not-flood");
      FAIL() << "divergent replay was not detected";
    } catch (const invariant_error& e) {
      EXPECT_NE(std::string(e.what()).find("checkpoint replay diverged"),
                std::string::npos)
          << e.what();
    }
  }
  // The replay error names the first divergent log entry and what differs.
  const auto expect_diverged = [](const invariant_error& e,
                                  const std::string& what) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.rfind("checkpoint replay diverged at log entry 0", 0), 0u)
        << msg;
    EXPECT_NE(msg.find(what), std::string::npos) << msg;
  };
  {  // Same phase label, different counters: FloodAll(3) replayed against
    // the FloodAll(4) log.
    sim::Runtime fresh(g, 2);
    fresh.resume(held);
    FloodAll shorter(3);
    try {
      fresh.run_phase(shorter, 32);
      FAIL() << "a replay with different counters was not detected";
    } catch (const invariant_error& e) {
      expect_diverged(e, "counters or per-round series differ");
    }
  }
  {  // A different span name around the same leaf: caught as the span
    // opens, before the leaf runs.
    sim::Runtime spanned(g, 2);
    {
      const sim::PhaseSpan span(spanned, "outer");
      FloodAll same(4);
      spanned.run_phase(same, 32);
    }
    sim::Runtime fresh(g, 2);
    fresh.resume(spanned.log());
    try {
      const sim::PhaseSpan span(fresh, "other");
      FAIL() << "a replay under a different span was not detected";
    } catch (const invariant_error& e) {
      expect_diverged(e, "expected phase 'outer'");
    }
  }
  {  // A held log that ends on a span with no leaf after it (a driver on an
    // empty input): the replay still verifies it, as the span opens.
    sim::Runtime spanned(g, 2);
    { const sim::PhaseSpan span(spanned, "empty"); }
    const sim::PhaseLog span_log = spanned.log();
    sim::Runtime same(g, 2);
    same.resume(span_log);
    { const sim::PhaseSpan span(same, "empty"); }
    EXPECT_TRUE(same.log() == span_log);
    sim::Runtime other(g, 2);
    other.resume(span_log);
    try {
      const sim::PhaseSpan span(other, "full");
      FAIL() << "a replay under a different empty span was not detected";
    } catch (const invariant_error& e) {
      expect_diverged(e, "expected phase 'empty'");
    }
  }
}

TEST(Replay, ResumeOnANonEmptyLogThrowsAndLeavesTheSessionRunnable) {
  const Graph g = planted_arboricity(200, 3, 53);
  sim::Runtime rt(g, 2);
  FloodAll flood(4);
  rt.run_phase(flood, 32);
  const sim::PhaseLog held = rt.log();
  // The session already recorded a phase: arming a replay now would check
  // the held log against entries the re-run did not produce.
  EXPECT_THROW(rt.resume(held), precondition_error);
  // Nothing was armed: a phase the held log does not contain still runs,
  // and the log just grows.
  FloodAll shorter(3);
  EXPECT_NO_THROW(rt.run_phase(shorter, 32, "after-rejected-resume"));
  ASSERT_EQ(rt.log().size(), 2u);
  EXPECT_EQ(rt.log().name(rt.log()[1]), "after-rejected-resume");
  // After reset_log the same held log is accepted and verified.
  rt.reset_log();
  rt.resume(held);
  FloodAll again(4);
  EXPECT_NO_THROW(rt.run_phase(again, 32));
  EXPECT_TRUE(rt.log() == held);
}

// ---------------------------------------------------------------------------
// Service self-healing

TEST(ServiceChaos, RetryHealsTransientFaultBitIdentically) {
  const Graph g = planted_arboricity(400, 4, 9);
  Knobs solo_knobs;
  solo_knobs.shards = 1;
  const LegalColoringResult solo =
      color_graph(g, 4, Preset::NearLinearColors, solo_knobs);

  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.retry.max_attempts = 3;
  cfg.retry.backoff_base_ms = 0.0;  // no wait: unit test, not a schedule
  ColoringService svc(cfg);
  const GraphRef ref = svc.intern(g);

  JobSpec spec;
  spec.graph = ref;
  spec.arboricity_bound = 4;
  spec.preset = Preset::NearLinearColors;
  spec.knobs.fault_plan.seed = 42;
  spec.knobs.fault_plan.scheduled.push_back(
      {sim::FaultKind::kShardFailure, /*phase=*/1, /*round=*/0, /*shard=*/-1,
       /*salt=*/0});  // kills attempt 0 only; the retry runs clean

  const JobResult res = svc.wait(svc.submit(spec));
  ASSERT_EQ(res.status, JobStatus::kOk) << res.error;
  EXPECT_EQ(res.attempts, 2);
  EXPECT_TRUE(res.recovered);
  EXPECT_TRUE(dvc_test::bit_identical(solo, res.result))
      << "healed job vs fault-free solo run";
  // The retry verified every entry attempt 0 held (it died in phase 1).
  EXPECT_EQ(res.replay_verified_entries, held_log_size(solo.phases, 1));
  EXPECT_GT(res.replay_verified_entries, 0u);

  const auto m = svc.metrics();
  EXPECT_EQ(m.retries, 1u);
  EXPECT_EQ(m.recoveries, 1u);
  EXPECT_GE(m.faults_injected, 1u);
  EXPECT_EQ(m.quarantined, 0u);
}

TEST(ServiceChaos, ExhaustedRetriesFailWithStructuredContext) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.retry.max_attempts = 2;
  cfg.retry.backoff_base_ms = 0.0;
  ColoringService svc(cfg);
  const GraphRef ref = svc.intern(planted_arboricity(300, 3, 13));

  JobSpec spec;
  spec.graph = ref;
  spec.arboricity_bound = 3;
  spec.preset = Preset::LinearColors;
  spec.knobs.fault_plan.seed = 61;
  spec.knobs.fault_plan.scheduled.push_back(
      {sim::FaultKind::kShardFailure, /*phase=*/0, /*round=*/0, /*shard=*/-1,
       /*salt=*/-1});  // fires on EVERY attempt

  const JobResult res = svc.wait(svc.submit(spec));
  EXPECT_EQ(res.status, JobStatus::kFailed);
  EXPECT_EQ(res.attempts, 2) << "both attempts must have been consumed";
  EXPECT_FALSE(res.recovered);
  EXPECT_NE(res.error.find("transient fault persisted"), std::string::npos)
      << res.error;
  EXPECT_FALSE(res.failed_phase.empty())
      << "the failing phase must be attributed";
  EXPECT_EQ(svc.metrics().retries, 1u);
  EXPECT_EQ(svc.metrics().recoveries, 0u);
}

TEST(ServiceChaos, QuarantineBreakerStopsBurningRetries) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.retry.max_attempts = 1;  // every transient failure is final...
  cfg.retry.quarantine_threshold = 2;  // ...and two in a row trip the breaker
  ColoringService svc(cfg);
  const GraphRef ref = svc.intern(planted_arboricity(300, 3, 67));

  JobSpec doomed;
  doomed.graph = ref;
  doomed.arboricity_bound = 3;
  doomed.preset = Preset::NearLinearColors;
  doomed.knobs.fault_plan.seed = 71;
  doomed.knobs.fault_plan.scheduled.push_back(
      {sim::FaultKind::kShardFailure, /*phase=*/0, /*round=*/0, /*shard=*/-1,
       /*salt=*/-1});

  const JobResult first = svc.wait(svc.submit(doomed));
  EXPECT_EQ(first.status, JobStatus::kFailed) << first.error;

  const JobResult second = svc.wait(svc.submit(doomed));
  EXPECT_EQ(second.status, JobStatus::kQuarantined) << second.error;

  // The digest is now poisoned: jobs complete structurally WITHOUT a run.
  const JobResult third = svc.wait(svc.submit(doomed));
  EXPECT_EQ(third.status, JobStatus::kQuarantined) << third.error;
  EXPECT_EQ(third.attempts, 0) << "quarantined jobs must not consume runs";

  const auto m = svc.metrics();
  EXPECT_GE(m.quarantined, 2u);
  EXPECT_EQ(m.quarantined_digests, 1u);
}

TEST(ServiceChaos, ConcurrentFaultStormHealsBitIdentically) {
  // A seeded storm through 4 workers: half the jobs carry a shard failure
  // pinned to attempt 0 plus low-rate stalls that re-roll per attempt. Every ticket must end kOk or kFailed with retries
  // exhausted, and every ok job -- healed or not -- must be bitwise-equal
  // to a fault-free solo run.
  ServiceConfig cfg;
  cfg.workers = 4;
  cfg.retry.max_attempts = 4;
  cfg.retry.backoff_base_ms = 0.1;
  cfg.retry.backoff_cap_ms = 2.0;
  // Far above any real idle stretch here: wired in, never tripping.
  cfg.retry.watchdog_idle_rounds = 4096;
  ColoringService svc(cfg);

  struct Input {
    Graph g;
    GraphRef ref;
  };
  std::vector<Input> inputs;
  inputs.push_back({planted_arboricity(600, 4, 1), {}});
  inputs.push_back({barabasi_albert(600, 4, 2), {}});
  for (Input& in : inputs) in.ref = svc.intern(in.g);
  const Preset presets[] = {Preset::NearLinearColors, Preset::LinearColors};

  constexpr int kJobs = 32;
  std::vector<JobTicket> tickets;
  for (int j = 0; j < kJobs; ++j) {
    JobSpec spec;
    spec.graph = inputs[j % 2].ref;
    spec.arboricity_bound = 4;
    spec.preset = presets[(j / 2) % 2];
    if (j % 2 == 0) {
      spec.knobs.fault_plan.seed = 1 + static_cast<std::uint64_t>(j);
      spec.knobs.fault_plan.scheduled.push_back(
          {sim::FaultKind::kShardFailure, /*phase=*/1, /*round=*/0,
           /*shard=*/-1, /*salt=*/0});
      spec.knobs.fault_plan.stall_rate = 0.01;
      spec.knobs.fault_plan.stall_us = 50;
    }
    tickets.push_back(svc.submit(std::move(spec)));
  }
  svc.drain();

  std::optional<LegalColoringResult> solo[2][std::size(presets)];
  int recovered_jobs = 0;
  for (int j = 0; j < kJobs; ++j) {
    const JobResult res = svc.wait(tickets[j]);
    if (!res.ok) {
      EXPECT_EQ(res.status, JobStatus::kFailed)
          << "job " << j << " ended " << service::job_status_name(res.status)
          << ": " << res.error;
      EXPECT_NE(res.error.find("transient fault persisted"), std::string::npos)
          << "job " << j << ": " << res.error;
      continue;
    }
    if (res.recovered) ++recovered_jobs;
    std::optional<LegalColoringResult>& want = solo[j % 2][(j / 2) % 2];
    if (!want) want = color_graph(inputs[j % 2].g, 4, presets[(j / 2) % 2]);
    EXPECT_TRUE(dvc_test::bit_identical(*want, res.result))
        << "job " << j << " (attempts " << res.attempts << ") vs solo run";
    // A healed job's retry verified the whole log attempt 0 held when its
    // phase 1 failed; a job that never failed replayed nothing.
    EXPECT_EQ(res.replay_verified_entries,
              res.recovered ? held_log_size(want->phases, 1) : 0u)
        << "job " << j;
  }
  const auto m = svc.metrics();
  EXPECT_GT(m.faults_injected, 0u);
  EXPECT_GT(m.retries, 0u);
  EXPECT_GT(m.recoveries, 0u);
  EXPECT_GT(recovered_jobs, 0) << "the storm healed no job";
}

TEST(ServiceChaos, CancelDuringFaultRetryBackoffIsTerminal) {
  // Race the cancellation token against a retry sitting in its backoff
  // window: whichever side wins, the ticket must land on a TERMINAL status
  // promptly -- never a hang, never a stuck queue entry.
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.retry.max_attempts = 4;
  cfg.retry.backoff_base_ms = 150.0;
  cfg.retry.backoff_cap_ms = 500.0;
  ColoringService svc(cfg);
  const GraphRef ref = svc.intern(planted_arboricity(300, 3, 73));

  JobSpec spec;
  spec.graph = ref;
  spec.arboricity_bound = 3;
  spec.preset = Preset::NearLinearColors;
  spec.knobs.fault_plan.seed = 79;
  spec.knobs.fault_plan.scheduled.push_back(
      {sim::FaultKind::kShardFailure, /*phase=*/1, /*round=*/0, /*shard=*/-1,
       /*salt=*/0});  // attempt 0 dies; the retry waits out ~150ms of backoff

  const JobTicket ticket = svc.submit(spec);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  svc.cancel(ticket);
  const JobResult res = svc.wait(ticket);
  EXPECT_TRUE(res.status == JobStatus::kCancelled ||
              res.status == JobStatus::kOk)
      << "unexpected terminal status: " << service::job_status_name(res.status)
      << " (" << res.error << ")";
}

TEST(ServiceChaos, StructuralFailureReportsFailingPhase) {
  // A CONGEST-budget violation is structural: one attempt, no retries, and
  // the result names the phase that threw, with the "in phase '...'"
  // context baked into the error text.
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.retry.max_attempts = 3;  // must NOT be consumed by a structural error
  cfg.retry.backoff_base_ms = 0.0;
  ColoringService svc(cfg);
  const GraphRef ref = svc.intern(planted_arboricity(300, 3, 83));

  JobSpec spec;
  spec.graph = ref;
  spec.arboricity_bound = 3;
  spec.preset = Preset::NearLinearColors;
  spec.knobs.congest_words = 1;  // paper path needs 3 words per message

  const JobResult res = svc.wait(svc.submit(spec));
  EXPECT_EQ(res.status, JobStatus::kFailed);
  EXPECT_EQ(res.attempts, 1) << "structural failures must not be retried";
  EXPECT_NE(res.error.find("in phase '"), std::string::npos) << res.error;
  EXPECT_FALSE(res.failed_phase.empty());
  EXPECT_EQ(svc.metrics().retries, 0u);
}

TEST(ServiceChaos, ArmedPlanBypassesResultCacheBothWays) {
  ServiceConfig cfg;
  cfg.workers = 1;
  ColoringService svc(cfg);
  const GraphRef ref = svc.intern(planted_arboricity(300, 3, 89));

  JobSpec clean;
  clean.graph = ref;
  clean.arboricity_bound = 3;
  clean.preset = Preset::NearLinearColors;

  const JobResult fresh = svc.wait(svc.submit(clean));
  ASSERT_TRUE(fresh.ok) << fresh.error;
  EXPECT_FALSE(fresh.cache_hit);

  // Same spec + an armed (but output-invisible) plan: must RUN, not hit.
  JobSpec chaotic = clean;
  chaotic.knobs.fault_plan.seed = 97;
  chaotic.knobs.fault_plan.stall_rate = 0.05;
  chaotic.knobs.fault_plan.stall_us = 1;
  const JobResult stormed = svc.wait(svc.submit(chaotic));
  ASSERT_TRUE(stormed.ok) << stormed.error;
  EXPECT_FALSE(stormed.cache_hit) << "armed plan must bypass the cache";
  EXPECT_TRUE(dvc_test::bit_identical(fresh.result, stormed.result))
      << "stall storm vs clean run";

  // And the faulted run must not have poisoned the cache for clean jobs.
  const JobResult cached = svc.wait(svc.submit(clean));
  ASSERT_TRUE(cached.ok) << cached.error;
  EXPECT_TRUE(cached.cache_hit);
  EXPECT_TRUE(dvc_test::bit_identical(fresh.result, cached.result))
      << "cache after storm";
}

}  // namespace
}  // namespace dvc
