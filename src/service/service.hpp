// ColoringService: a thread-safe, multi-session front end over the
// single-run engine -- the repo's first subsystem aimed at throughput
// (many graphs, many presets, concurrently) rather than the cost of one
// run.
//
// Architecture (see DESIGN.md, "Coloring service" and "Service policy &
// metrics"):
//
//   submit()/submit_batch()  ->  BoundedQueue<Job, 3>  ->  worker threads
//        |  admission control       (priority lanes)       |  deadline/
//        v  (shed when saturated)                          |  cancel check
//   rejected JobResult                                     v
//                                      ResultCache -- hit: answer, no run
//                                                        |  miss
//                                                        v  acquire warm
//                                                   SessionPool
//                                                        |
//                                                   color_graph(rt, ...)
//                                                        |   (interrupt hook
//                                                        |    polls cancel/
//                                                        |    deadline at
//                                                        |    phase bounds)
//                                                   deliver JobResult
//
//   * GraphStore interns submitted topologies under Graph::digest(), so
//     repeated submissions share one Graph binding (see graph_store.hpp).
//   * SessionPool caches warm sim::Runtime sessions keyed by
//     (graph digest, shard count). A steady-state job therefore reuses a
//     session whose arenas are already sized for its graph: it spawns no
//     threads and allocates nothing runtime-side (PR 2's persistent-session
//     guarantee, now amortized across CALLERS, not just across the phases
//     of one pipeline).
//   * The job queue is a bounded MPMC with one lane per Priority: high
//     overtakes normal overtakes low, FIFO within a class. submit() blocks
//     when full (backpressure) unless shedding is enabled, try_submit()
//     probes, submit_batch() enqueues a batch in bulk. Handles are
//     futures-free: submit returns a JobTicket, the result is claimed
//     exactly once with wait()/poll().
//   * Policy (ServiceConfig::shed_on_saturation): a saturated queue sheds
//     kNormal/kLow jobs with a structured JobStatus::kRejected result
//     instead of blocking the submitter (kHigh keeps the blocking
//     backpressure path -- it always gets in); past the high-water mark a
//     kLow job whose digest class already holds half the queue is shed
//     early, so one hot topology cannot starve the rest.
//   * A job may carry a deadline and can be cancelled by ticket. Both fail
//     the job STRUCTURALLY: queued jobs are failed at dequeue without a
//     run, an executing job is abandoned at the next phase boundary via
//     the session's interrupt hook (sim::Runtime::set_interrupt) -- the
//     session stays sound and returns to the pool either way.
//   * Completed results are cached keyed by (digest, preset, arboricity
//     bound, knob fingerprint): an identical resubmission is answered
//     without a run, bit-identical to a fresh one (session reuse and shard
//     count are proven output-invariant, so the cache is semantically
//     invisible).
//   * A throwing job (bad arboricity bound, CONGEST violation, round-cap
//     breach) fails ONLY its own JobResult -- the error is captured
//     structurally, the session stays reusable (the runtime clears shard
//     exception state on rethrow), and the pool keeps serving.
//   * metrics() returns a scrapeable snapshot: queue depth (total and per
//     priority), shed/cancelled/expired counts, cache and warm-session hit
//     ratios, per-preset p50/p95/p99 run and queue latency, evictions.
//
// Determinism under concurrency -- the contract the test suite enforces:
// a job's colors, RunStats and PhaseLog are bit-identical whether the job
// runs solo on a fresh session or under heavy multi-worker load on a warm
// pooled session, and whether its result came from a run or the cache.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/api.hpp"
#include "dist/dist.hpp"
#include "service/graph_store.hpp"
#include "service/job_queue.hpp"
#include "sim/runtime.hpp"

namespace dvc::service {

/// Priority class of a job; doubles as the queue lane index (high drains
/// first). Admission control sheds the lower classes first.
enum class Priority { kHigh = 0, kNormal = 1, kLow = 2 };
inline constexpr int kNumPriorities = 3;
const char* priority_name(Priority p);

/// Structural outcome of a job. Everything except kOk carries the reason in
/// JobResult::error; only kFailed means the pipeline itself threw.
enum class JobStatus {
  kOk = 0,
  /// The run threw (bad arboricity bound, CONGEST violation, round cap).
  kFailed,
  /// Shed by admission control at submission; never queued, never run.
  kRejected,
  /// cancel(ticket) took effect -- before dequeue, or at a phase boundary.
  kCancelled,
  /// The deadline passed -- while queued, or mid-run at a phase boundary.
  kExpired,
  /// The job's graph digest tripped the quarantine circuit breaker: too
  /// many transient faults in a row for this topology, so the service stops
  /// burning retries on it (see ServiceConfig::RetryPolicy).
  kQuarantined,
};
const char* job_status_name(JobStatus s);

struct ServiceConfig {
  /// Worker threads draining the job queue. Also the default cap on warm
  /// sessions retained per (graph, shards) key. Must be >= 1.
  int workers = 4;
  /// Capacity of the bounded job queue (shared across priority lanes);
  /// submit() blocks when full unless shed_on_saturation. Must be >= 1.
  std::size_t queue_capacity = 256;
  /// Shard count for sessions of jobs whose Knobs::shards == 0. Kept at 1
  /// by default: service-level parallelism comes from the worker pool, so
  /// single-sharded sessions (zero extra threads each) are the right
  /// steady-state shape.
  int default_shards = 1;
  /// Warm sessions retained per (digest, shards) key when released; excess
  /// sessions are destroyed. 0 = use `workers`; negative is rejected.
  int max_idle_sessions_per_key = 0;
  /// Global cap on idle sessions across ALL keys, so a stream of distinct
  /// topologies cannot grow the pool without bound: at the cap, parking a
  /// session evicts an idle one from another key (keeping fresh keys warm).
  /// 0 = use 4 * workers; negative is rejected.
  int max_idle_sessions_total = 0;
  /// Admission policy on a saturated queue. false (default): submit()
  /// blocks -- the legacy backpressure contract. true: shed instead of
  /// blocking -- kHigh jobs still block (they always get in), kNormal/kLow
  /// jobs are answered with a structured JobStatus::kRejected result; and
  /// once the queue passes its high-water mark (3/4 of capacity) a kLow job
  /// whose digest class already holds at least half the queued jobs is shed
  /// early (digest-class shedding: one hot topology cannot squeeze
  /// diversity out of the queue).
  bool shed_on_saturation = false;
  /// Completed results retained in the cache (see ResultCache); 0 disables
  /// caching; negative is rejected.
  int result_cache_capacity = 64;
  /// Start with the workers gated: jobs queue up (and exert backpressure)
  /// until resume() is called. Used by drain/backpressure tests and by
  /// callers that want to pre-fill a batch before execution starts.
  bool start_paused = false;

  /// Self-healing policy for TRANSIENT job failures (transient_error
  /// subclasses -- injected shard faults, a lost worker, a damaged wire
  /// frame -- and std::bad_alloc). Structural failures (precondition/
  /// invariant/bandwidth errors, watchdog trips, cancellation, deadlines)
  /// are never retried: they are deterministic properties of the job, so
  /// re-running cannot change the outcome. A retry re-runs the pipeline
  /// from the top against the held phase log of the failed run, and
  /// Runtime::resume verifies every phase that run completed bit-identical.
  struct RetryPolicy {
    /// Total execution attempts per job (first run included). 1 = the
    /// legacy behaviour: any failure is final. Must be >= 1.
    int max_attempts = 1;
    /// Capped exponential backoff before attempt k (1-based retry index):
    /// min(backoff_cap_ms, backoff_base_ms * 2^(k-1)), scaled by a
    /// DETERMINISTIC jitter factor in [0.5, 1.0) derived from the job id
    /// and attempt -- reproducible schedules, no thundering herd. Both in
    /// milliseconds; base 0 disables the wait.
    double backoff_base_ms = 1.0;
    double backoff_cap_ms = 50.0;
    /// Circuit breaker: after this many CONSECUTIVE transient failures for
    /// one graph digest (across jobs; any success resets the count), the
    /// digest is quarantined -- its jobs complete as JobStatus::kQuarantined
    /// without consuming runs or retries. 0 disables quarantine.
    int quarantine_threshold = 0;
    /// Runaway-job watchdog, forwarded to the session for the duration of
    /// each run (sim::Runtime::set_watchdog_idle_rounds): a phase that makes
    /// no progress for this many consecutive rounds fails STRUCTURALLY
    /// (sim::watchdog_error -- not retried, the job would just hang again).
    /// 0 disables the watchdog.
    int watchdog_idle_rounds = 0;
  };
  RetryPolicy retry;
};

/// One unit of work: color `graph` with `preset` under `knobs`.
/// knobs.shards selects the session shard count (0 = ServiceConfig
/// default); knobs.congest_words applies per job, scoped to
/// the job's session for exactly the duration of the run. An armed
/// knobs.fault_plan is installed for each attempt with FaultPlan::salt set
/// to the attempt index, and bypasses the result cache in both directions
/// (a faulted run is not the cache's bit-identity contract).
struct JobSpec {
  GraphRef graph;
  int arboricity_bound = 1;
  Preset preset = Preset::NearLinearColors;
  Knobs knobs;
  /// Queue lane and shed class (see Priority / shed_on_saturation).
  Priority priority = Priority::kNormal;
  /// Relative deadline in milliseconds from submission; 0 = none. A job
  /// whose deadline passes while queued (or mid-run, polled at phase
  /// boundaries) completes with JobStatus::kExpired instead of running to
  /// the end.
  double deadline_ms = 0.0;
  /// Multi-process execution of this job's phases (see dist/dist.hpp).
  /// workers == 0 (the default) runs in-process on the pooled threaded
  /// session. workers > 0 runs each attempt on an inline-shards session
  /// (pooled under its own key) with a DistSession installed: every
  /// dist-capable phase executes across that many worker processes, with
  /// results bit-identical to the in-process run. A worker death surfaces
  /// as dist::worker_lost_error -- a transient_error -- so the service's
  /// retry policy (held phase log replay) heals it like any injected fault.
  struct DistSpec {
    int workers = 0;
    dist::Backend backend = dist::Backend::kFork;
    /// Chaos knob: kill `kill_worker` at cumulative distributed sweep
    /// #kill_at_sweep (-1 = never), armed only on attempt `kill_attempt` --
    /// so the retry of a killed job runs clean and the self-healing path
    /// can be asserted end to end. An armed kill bypasses the result cache.
    int kill_at_sweep = -1;
    int kill_worker = 0;
    int kill_attempt = 0;
  };
  DistSpec dist;
};

/// Futures-free job handle. Tickets are claimed exactly once: wait()/poll()
/// transfer the JobResult out of the service.
struct JobTicket {
  std::uint64_t id = 0;
  explicit operator bool() const { return id != 0; }
};

struct JobResult {
  std::uint64_t id = 0;
  /// Structural outcome; `error` carries the reason for anything != kOk.
  JobStatus status = JobStatus::kFailed;
  /// Convenience mirror of status == kOk.
  bool ok = false;
  std::string error;
  /// Coloring + per-phase PhaseLog + total RunStats (rounds, messages,
  /// bandwidth words, work items). Valid only when ok.
  LegalColoringResult result;
  std::uint64_t graph_digest = 0;
  Preset preset = Preset::NearLinearColors;
  Priority priority = Priority::kNormal;
  /// Shard count the job's session ran with (or would have).
  int shards = 1;
  /// True if the job's session came warm from the pool (false: cold build
  /// or no run at all -- cache hit / rejected / expired before dequeue).
  bool warm_session = false;
  /// True iff the result was answered from the result cache without a run.
  bool cache_hit = false;
  /// Execution attempts consumed (0 = never ran: cache hit / rejected /
  /// quarantined / cancelled or expired before dequeue).
  int attempts = 0;
  /// True iff the job failed transiently at least once and a retry then
  /// succeeded -- the self-healing path. The result is bit-identical to a
  /// fault-free run (replay against the held phase log verifies this).
  bool recovered = false;
  /// Entries of the held phase log the successful retry verified
  /// bit-identical as it re-ran (Runtime::replay_verified): the held log's
  /// whole size for a healed job, 0 when the run replayed nothing.
  std::size_t replay_verified_entries = 0;
  /// Label of the pipeline phase that was running (or about to run) when a
  /// failed job threw; empty for kOk and for jobs that never ran.
  std::string failed_phase;
  /// Multi-process jobs (JobSpec::dist.workers > 0): worker-process count
  /// the run used and its measured wire traffic summed over distributed
  /// phases (every frame byte the coordinator sent or received). Zero for
  /// in-process jobs and runs that never completed.
  int dist_workers = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t wire_frames = 0;
  /// Wall-clock: time spent queued and time spent executing. Reporting
  /// only -- never part of the determinism surface.
  double queue_ms = 0.0;
  double run_ms = 0.0;
};

/// Warm-session cache keyed by (graph digest, shard count). acquire() hands
/// out exclusive ownership of a session (building one cold if none is
/// idle); release() returns it, retaining up to a per-key cap.
class SessionPool {
 public:
  struct Entry {
    GraphRef graph;  // keeps the interned graph alive for rt's lifetime
    int shards = 1;
    /// Session built without a shard thread pool (required by the fork
    /// transport). Part of the pool key: a distributed job must never be
    /// handed a threaded session or vice versa.
    bool inline_shards = false;
    std::unique_ptr<sim::Runtime> rt;
    bool warm = false;  // true iff this acquire was served from the cache
  };

  SessionPool(int max_idle_per_key, int max_idle_total)
      : max_idle_per_key_(max_idle_per_key), max_idle_total_(max_idle_total) {}

  Entry acquire(const GraphRef& graph, int shards, bool inline_shards = false);
  void release(Entry entry);
  /// Destroys all idle sessions (in-flight entries are unaffected).
  void clear();

  struct Stats {
    std::size_t idle_sessions = 0;
    std::uint64_t acquires = 0;
    std::uint64_t warm_hits = 0;
    std::uint64_t cold_builds = 0;
    /// Idle sessions destroyed to honor the global cap.
    std::uint64_t evictions = 0;
  };
  Stats stats() const;

 private:
  struct Key {
    std::uint64_t digest;
    int shards;
    bool inline_shards;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>(detail::digest_mix(
          detail::digest_mix(k.digest, static_cast<std::uint64_t>(k.shards)),
          static_cast<std::uint64_t>(k.inline_shards)));
    }
  };

  int max_idle_per_key_;
  int max_idle_total_;
  mutable std::mutex mutex_;
  std::unordered_map<Key, std::vector<Entry>, KeyHash> idle_;
  std::size_t total_idle_ = 0;
  std::uint64_t acquires_ = 0;
  std::uint64_t warm_hits_ = 0;
  std::uint64_t cold_builds_ = 0;
  std::uint64_t evictions_ = 0;
};

/// 64-bit fingerprint of every Knobs field that selects the computation,
/// plus the effective shard count -- the cache-key component that makes
/// "identical job" mean identical output by construction. (Shards are in
/// fact proven output-invariant; including them keeps the cache correct
/// even if that invariance ever regressed.)
std::uint64_t knob_fingerprint(const Knobs& knobs, int effective_shards);

/// Thread-safe LRU cache of completed coloring results, keyed by
/// (graph digest, preset, arboricity bound, knob fingerprint). Values are
/// shared immutable results: a hit copies the LegalColoringResult into the
/// JobResult (vectors only -- far cheaper than any run). Capacity 0
/// disables the cache (lookup misses nothing, insert drops).
class ResultCache {
 public:
  struct Key {
    std::uint64_t digest = 0;
    int preset = 0;
    int arboricity_bound = 0;
    std::uint64_t knob_fp = 0;
    bool operator==(const Key&) const = default;
  };

  explicit ResultCache(std::size_t capacity) : capacity_(capacity) {}

  /// Returns the cached result (bumping its recency) or nullptr; counts a
  /// hit or a miss. No-op nullptr when the cache is disabled.
  std::shared_ptr<const LegalColoringResult> lookup(const Key& key);
  /// Inserts (or refreshes) the entry, evicting the least-recently-used one
  /// at capacity. No-op when disabled.
  void insert(const Key& key, std::shared_ptr<const LegalColoringResult> value);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t size = 0;
  };
  Stats stats() const;

 private:
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      using dvc::detail::digest_mix;
      return static_cast<std::size_t>(digest_mix(
          digest_mix(k.digest, static_cast<std::uint64_t>(k.preset)),
          digest_mix(k.knob_fp,
                     static_cast<std::uint64_t>(k.arboricity_bound))));
    }
  };
  struct Entry {
    std::shared_ptr<const LegalColoringResult> value;
    std::uint64_t last_used = 0;
  };

  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::unordered_map<Key, Entry, KeyHash> map_;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

/// Samples retained per (preset, run/queue) latency window: metrics()
/// quantiles describe the most recent kLatencyWindow ok-jobs, so they track
/// current load instead of averaging over the service's whole lifetime.
inline constexpr std::size_t kLatencyWindow = 512;

/// Nearest-rank latency quantiles over the service's sliding sample window.
struct LatencyQuantiles {
  std::size_t count = 0;  ///< samples currently in the window
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

/// One consistent scrape of the service's operational state -- the numbers
/// an external monitor needs to see saturation, shedding and cache health
/// without inferring them from client-side latency.
struct ServiceMetrics {
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
  std::array<std::size_t, kNumPriorities> queue_depth_by_priority{};

  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;  ///< delivered results, any status
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;       ///< JobStatus::kRejected
  std::uint64_t cancelled = 0;  ///< JobStatus::kCancelled
  std::uint64_t expired = 0;    ///< JobStatus::kExpired
  std::uint64_t quarantined = 0;  ///< JobStatus::kQuarantined

  // Self-healing (see ServiceConfig::RetryPolicy).
  std::uint64_t retries = 0;      ///< transient failures re-queued for retry
  std::uint64_t recoveries = 0;   ///< ok jobs that needed at least one retry
  std::uint64_t faults_injected = 0;  ///< runtime faults fired across all runs
  std::size_t quarantined_digests = 0;  ///< digests currently circuit-broken

  ResultCache::Stats cache;
  double cache_hit_ratio = 0.0;  ///< hits / (hits + misses); 0 when idle

  SessionPool::Stats pool;
  double warm_hit_ratio = 0.0;  ///< warm_hits / acquires; 0 when idle

  GraphStore::Stats store;

  /// Per-preset latency over the last kLatencyWindow completed-ok jobs:
  /// run latency (dequeue -> result, ~0 for cache hits) and queue latency
  /// (submit -> dequeue). Only presets that served at least one job appear.
  struct PresetMetrics {
    Preset preset = Preset::NearLinearColors;
    std::uint64_t jobs = 0;  ///< lifetime ok jobs of this preset
    LatencyQuantiles run;
    LatencyQuantiles queue;
  };
  std::vector<PresetMetrics> per_preset;
};

class ColoringService {
 public:
  explicit ColoringService(ServiceConfig config = {});
  /// Graceful: equivalent to shutdown() -- accepted jobs finish first.
  ~ColoringService();
  ColoringService(const ColoringService&) = delete;
  ColoringService& operator=(const ColoringService&) = delete;

  /// Interns the graph in the service's store and wraps it for submission.
  GraphRef intern(Graph g) { return store_.intern(std::move(g)); }
  GraphRef intern(std::shared_ptr<const Graph> g) {
    return store_.intern(std::move(g));
  }

  /// Enqueues the job. On a full queue: blocks (backpressure) by default;
  /// with shed_on_saturation, kNormal/kLow jobs are instead answered
  /// immediately with a JobStatus::kRejected result (the ticket stays
  /// claimable as usual). Throws precondition_error after shutdown or on an
  /// invalid spec (no graph, negative deadline).
  JobTicket submit(JobSpec spec);
  /// Non-blocking probe: nullopt when the queue is full (or shut down).
  /// Bypasses the shedding policy -- the caller IS the admission control.
  std::optional<JobTicket> try_submit(JobSpec spec);
  /// Enqueues the whole batch in order with bulk queue insertion; blocks
  /// for space as needed (per-job admission control applies first when
  /// shedding is enabled). Tickets are returned in spec order. An invalid
  /// spec anywhere in the batch throws before any spec is admitted.
  std::vector<JobTicket> submit_batch(std::vector<JobSpec> specs);

  /// Blocks until the job completes and transfers its result out. Each
  /// ticket is claimed exactly once; claiming it again throws
  /// precondition_error (it never deadlocks), as does a ticket this service
  /// never issued (id 0, or >= the next unissued id -- e.g. a ticket from
  /// another service instance or a stale id after restart).
  JobResult wait(JobTicket ticket);
  /// Non-blocking: transfers the result out iff the job has completed.
  /// nullopt means "not ready yet"; an already-claimed or never-issued
  /// ticket throws.
  std::optional<JobResult> poll(JobTicket ticket);

  /// Requests cancellation of the job. Returns true if the request was
  /// registered before the job delivered its result (the job will complete
  /// with JobStatus::kCancelled -- immediately if still queued, at the next
  /// phase boundary if executing -- unless it wins the race and finishes
  /// first); false if the result was already delivered or the job was never
  /// admitted to the queue (rejected). Throws precondition_error on a
  /// never-issued ticket. The ticket must still be claimed.
  bool cancel(JobTicket ticket);

  /// Blocks until every job submitted so far has completed (results may
  /// still be unclaimed). New submissions stay open.
  void drain();
  /// Stops accepting new jobs, runs everything already accepted to
  /// completion, and joins the workers. Idempotent.
  void shutdown();
  /// Opens the worker gate when the service was built start_paused (no-op
  /// otherwise, or when called twice).
  void resume();

  // --- Introspection -------------------------------------------------------
  const ServiceConfig& config() const { return config_; }
  GraphStore& store() { return store_; }
  const GraphStore& store() const { return store_; }
  SessionPool::Stats pool_stats() const { return pool_.stats(); }
  std::size_t queued() const { return queue_.size(); }
  std::uint64_t submitted() const;
  std::uint64_t completed() const;
  /// Scrapeable snapshot of queue/policy/cache/pool/latency state.
  ServiceMetrics metrics() const;

 private:
  struct Job {
    std::uint64_t id = 0;
    JobSpec spec;
    std::chrono::steady_clock::time_point enqueued_at;
    /// Set by cancel(); polled at dequeue and at phase boundaries.
    std::shared_ptr<std::atomic<bool>> cancel;
    /// Execution attempts already consumed (0 for a fresh job); retries
    /// re-enter the queue with this bumped.
    int attempt = 0;
    /// Retry backoff: the worker sleeps until this instant before running
    /// (default epoch = no wait).
    std::chrono::steady_clock::time_point not_before{};
    /// Held phase log of the attempt the first transient failure struck;
    /// every retry replays against it. Shared so requeueing copies cheaply.
    std::shared_ptr<const sim::PhaseLog> replay_log;
  };

  /// Sliding window of the most recent latency samples (ring overwrite).
  struct LatencyRing {
    std::vector<double> samples;
    std::size_t next = 0;
    void add(double ms);
    LatencyQuantiles quantiles() const;
  };
  struct PresetTrack {
    LatencyRing run;
    LatencyRing queue;
    std::uint64_t jobs = 0;
  };

  void worker_loop();
  /// Runs the job (or answers it structurally). nullopt means the job was
  /// RE-QUEUED for a fault retry -- no result yet, deliver nothing.
  std::optional<JobResult> execute(Job job);
  /// Transient-failure handler: books the fault, decides quarantine vs
  /// retry vs exhaustion. Returns nullopt when the job went back to the
  /// queue, otherwise the terminal result to deliver.
  std::optional<JobResult> handle_transient(Job job, JobResult res,
                                            const std::string& what,
                                            std::uint64_t fault_delta);
  void deliver(JobResult result);
  /// Shedding decision for `spec` given the current queue state; returns
  /// the rejection reason or nullptr to admit. `backlog` counts jobs
  /// admitted earlier in the same batch that are not yet pushed. Requires
  /// state_mutex_.
  const char* admission_reject_locked(const JobSpec& spec,
                                      std::size_t backlog) const;
  /// Reserves an id and the queue-side bookkeeping (digest-class count,
  /// cancel token) for an admitted job. Requires state_mutex_.
  JobTicket admit_locked(JobSpec& spec, Job& out);
  /// Drops one job of digest class `digest` from the queue-side occupancy
  /// count: the job never reached the queue (shutdown race) or just left it
  /// (worker dequeue). Requires state_mutex_.
  void forget_queued_locked(std::uint64_t digest);
  bool claimed_locked(std::uint64_t id) const;
  void mark_claimed_locked(std::uint64_t id);
  void require_known_locked(std::uint64_t id) const;

  ServiceConfig config_;
  GraphStore store_;
  SessionPool pool_;
  ResultCache cache_;
  BoundedQueue<Job, kNumPriorities> queue_;

  mutable std::mutex state_mutex_;
  std::condition_variable result_cv_;
  std::condition_variable idle_cv_;
  std::condition_variable pause_cv_;
  std::unordered_map<std::uint64_t, JobResult> results_;
  /// Cancellation tokens of jobs admitted to the queue and not yet
  /// delivered; cancel() flips the token, deliver() erases it.
  std::unordered_map<std::uint64_t, std::shared_ptr<std::atomic<bool>>>
      cancel_tokens_;
  /// Queued (admitted, not yet dequeued) jobs per graph digest -- the
  /// digest-class occupancy the shedding policy reads.
  std::unordered_map<std::uint64_t, std::size_t> digest_queued_;
  /// Claim tracking, so a double wait()/poll() fails fast instead of
  /// deadlocking. Compact: every id <= claimed_floor_ is claimed; only
  /// out-of-order claims sit in the overflow set (tickets are typically
  /// claimed roughly in submission order, so the set stays tiny).
  std::uint64_t claimed_floor_ = 0;
  std::unordered_set<std::uint64_t> claimed_above_floor_;
  std::uint64_t next_id_ = 1;
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t ok_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t expired_ = 0;
  std::uint64_t quarantined_count_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t recoveries_ = 0;
  std::uint64_t faults_injected_ = 0;
  /// Consecutive transient-failure count per graph digest (successes erase);
  /// crossing RetryPolicy::quarantine_threshold moves the digest into
  /// quarantined_.
  std::unordered_map<std::uint64_t, int> poison_counts_;
  /// Digests the circuit breaker has tripped for: their jobs complete as
  /// kQuarantined without a run.
  std::unordered_set<std::uint64_t> quarantined_;
  std::array<PresetTrack, kNumPresets> per_preset_;
  bool paused_ = false;
  bool accepting_ = true;
  bool joined_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace dvc::service
