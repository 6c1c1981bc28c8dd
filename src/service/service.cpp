#include "service/service.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "common/check.hpp"

namespace dvc::service {

namespace {

double ms_between(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Internal throw type the interrupt hook uses to abandon a run at a phase
/// boundary. Deliberately NOT a std::exception: nothing between the hook
/// and execute()'s handler should be able to swallow it as a generic error.
struct job_interrupt {
  JobStatus status;
  const char* what;
};

std::uint64_t mix_double(std::uint64_t h, double v) {
  // +0.0 and -0.0 compare equal but differ bitwise; normalize so the two
  // spellings of "zero knob" share a fingerprint.
  if (v == 0.0) v = 0.0;
  return detail::digest_mix(h, std::bit_cast<std::uint64_t>(v));
}

/// The admission check every submit path runs before admitting a spec.
void validate_spec(const JobSpec& spec) {
  DVC_REQUIRE(spec.graph, "job spec has no graph (intern it first)");
  DVC_REQUIRE(spec.deadline_ms >= 0.0, "deadline must be >= 0 ms");
  DVC_REQUIRE(spec.dist.workers >= 0,
              "JobSpec::dist.workers must be >= 0 (0 = in-process)");
  DVC_REQUIRE(spec.dist.kill_attempt >= 0,
              "JobSpec::dist.kill_attempt must be >= 0");
}

double percentile_sorted_ms(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  // Nearest-rank: the ceil(q * n)-th smallest sample, rank clamped to [1, n].
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  if (rank < 1) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

}  // namespace

const char* priority_name(Priority p) {
  switch (p) {
    case Priority::kHigh: return "high";
    case Priority::kNormal: return "normal";
    case Priority::kLow: return "low";
  }
  return "unknown";
}

const char* job_status_name(JobStatus s) {
  switch (s) {
    case JobStatus::kOk: return "ok";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kRejected: return "rejected";
    case JobStatus::kCancelled: return "cancelled";
    case JobStatus::kExpired: return "expired";
    case JobStatus::kQuarantined: return "quarantined";
  }
  return "unknown";
}

std::uint64_t knob_fingerprint(const Knobs& knobs, int effective_shards) {
  using detail::digest_mix;
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;  // golden-ratio seed
  h = mix_double(h, knobs.mu);
  h = mix_double(h, knobs.eta);
  h = digest_mix(h, static_cast<std::uint64_t>(knobs.t));
  h = digest_mix(h, static_cast<std::uint64_t>(knobs.f));
  h = mix_double(h, knobs.eps);
  h = digest_mix(h, static_cast<std::uint64_t>(knobs.congest_words));
  // Shards are proven output-invariant (the determinism suite pins
  // bit-identity across shard counts), so folding them in can only split
  // cache entries, never corrupt one -- the conservative direction.
  h = digest_mix(h, static_cast<std::uint64_t>(effective_shards));
  return h;
}

// ---------------------------------------------------------------------------
// SessionPool

SessionPool::Entry SessionPool::acquire(const GraphRef& graph, int shards,
                                        bool inline_shards) {
  DVC_REQUIRE(graph, "cannot acquire a session for a null graph");
  DVC_REQUIRE(shards >= 1, "session shard count must be >= 1");
  const Key key{graph.digest, shards, inline_shards};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++acquires_;
    const auto it = idle_.find(key);
    if (it != idle_.end() && !it->second.empty()) {
      Entry entry = std::move(it->second.back());
      it->second.pop_back();
      --total_idle_;
      ++warm_hits_;
      entry.warm = true;
      return entry;
    }
    ++cold_builds_;
  }
  // Cold build outside the lock: Runtime construction allocates arenas and
  // (for shards > 1) spawns the session's worker threads.
  Entry entry;
  entry.graph = graph;
  entry.shards = shards;
  entry.inline_shards = inline_shards;
  entry.rt = std::make_unique<sim::Runtime>(*graph.graph, shards, inline_shards);
  entry.warm = false;
  return entry;
}

void SessionPool::release(Entry entry) {
  if (!entry.rt) return;
  const Key key{entry.graph.digest, entry.shards, entry.inline_shards};
  Entry reject;  // destroyed outside the lock (joins the session's threads)
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& idle = idle_[key];
    if (static_cast<int>(idle.size()) >= max_idle_per_key_) {
      reject = std::move(entry);
    } else {
      if (total_idle_ >= static_cast<std::size_t>(max_idle_total_)) {
        // Global cap: evict an idle session from another key so a stream
        // of distinct topologies keeps total pool memory bounded while new
        // keys still warm up. If every idle session is under this entry's
        // own key, drop the incoming one instead.
        bool evicted = false;
        for (auto& [other_key, sessions] : idle_) {
          if (other_key == key || sessions.empty()) continue;
          reject = std::move(sessions.back());
          sessions.pop_back();
          --total_idle_;
          ++evictions_;
          evicted = true;
          break;
        }
        if (!evicted) {
          ++evictions_;
          reject = std::move(entry);
        }
      }
      if (entry.rt) {  // not rejected above
        idle.push_back(std::move(entry));
        ++total_idle_;
      }
    }
  }
}

void SessionPool::clear() {
  std::unordered_map<Key, std::vector<Entry>, KeyHash> dropped;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    dropped.swap(idle_);
    total_idle_ = 0;
  }
}

SessionPool::Stats SessionPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.idle_sessions = total_idle_;
  s.acquires = acquires_;
  s.warm_hits = warm_hits_;
  s.cold_builds = cold_builds_;
  s.evictions = evictions_;
  return s;
}

// ---------------------------------------------------------------------------
// ResultCache

std::shared_ptr<const LegalColoringResult> ResultCache::lookup(const Key& key) {
  if (capacity_ == 0) return nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  it->second.last_used = ++tick_;
  return it->second.value;
}

void ResultCache::insert(const Key& key,
                         std::shared_ptr<const LegalColoringResult> value) {
  if (capacity_ == 0) return;
  DVC_REQUIRE(value != nullptr, "cannot cache a null result");
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = map_.try_emplace(key);
  it->second.value = std::move(value);
  it->second.last_used = ++tick_;
  if (inserted && map_.size() > capacity_) {
    auto victim = map_.begin();
    for (auto cur = map_.begin(); cur != map_.end(); ++cur) {
      if (cur->second.last_used < victim->second.last_used) victim = cur;
    }
    map_.erase(victim);
    ++evictions_;
  }
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return Stats{hits_, misses_, evictions_, map_.size()};
}

// ---------------------------------------------------------------------------
// ColoringService

ColoringService::ColoringService(ServiceConfig config)
    : config_([&] {
        DVC_REQUIRE(config.workers >= 1, "service needs at least one worker");
        DVC_REQUIRE(config.queue_capacity >= 1, "queue capacity must be >= 1");
        DVC_REQUIRE(config.default_shards >= 1,
                    "default shard count must be >= 1");
        // 0 means "use the default"; a negative cap is a caller bug, not a
        // request for the default -- reject it loudly rather than mask it.
        DVC_REQUIRE(config.max_idle_sessions_per_key >= 0,
                    "max_idle_sessions_per_key must be >= 0");
        DVC_REQUIRE(config.max_idle_sessions_total >= 0,
                    "max_idle_sessions_total must be >= 0");
        DVC_REQUIRE(config.result_cache_capacity >= 0,
                    "result_cache_capacity must be >= 0");
        DVC_REQUIRE(config.retry.max_attempts >= 1,
                    "retry.max_attempts must be >= 1");
        DVC_REQUIRE(config.retry.backoff_base_ms >= 0.0 &&
                        config.retry.backoff_cap_ms >= 0.0,
                    "retry backoff must be >= 0 ms");
        DVC_REQUIRE(config.retry.quarantine_threshold >= 0,
                    "retry.quarantine_threshold must be >= 0");
        DVC_REQUIRE(config.retry.watchdog_idle_rounds >= 0,
                    "retry.watchdog_idle_rounds must be >= 0");
        if (config.max_idle_sessions_per_key == 0) {
          config.max_idle_sessions_per_key = config.workers;
        }
        if (config.max_idle_sessions_total == 0) {
          config.max_idle_sessions_total = 4 * config.workers;
        }
        return config;
      }()),
      pool_(config_.max_idle_sessions_per_key, config_.max_idle_sessions_total),
      cache_(static_cast<std::size_t>(config_.result_cache_capacity)),
      queue_(config_.queue_capacity),
      paused_(config_.start_paused) {
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  // A failed spawn (std::system_error) must join the workers already
  // running before workers_ is destroyed, or the joinable std::threads
  // call std::terminate.
  try {
    for (int i = 0; i < config_.workers; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    shutdown();
    throw;
  }
}

ColoringService::~ColoringService() { shutdown(); }

const char* ColoringService::admission_reject_locked(const JobSpec& spec,
                                                     std::size_t backlog) const {
  // Only meaningful with shedding enabled; kHigh never sheds -- it keeps
  // the blocking backpressure path and always gets in.
  if (spec.priority == Priority::kHigh) return nullptr;
  const std::size_t queued = queue_.size() + backlog;
  if (queued >= config_.queue_capacity) {
    return "queue saturated: job shed by admission control";
  }
  if (spec.priority == Priority::kLow &&
      queued * 4 >= config_.queue_capacity * 3) {
    // Past the high-water mark, shed kLow jobs of the DOMINANT digest
    // class: if one topology already owns half the queue, its bulk work
    // yields to everyone else's before the queue is hard-full.
    const auto it = digest_queued_.find(spec.graph.digest);
    if (it != digest_queued_.end() && it->second * 2 >= queued) {
      return "queue past high-water mark: dominant digest class shed";
    }
  }
  return nullptr;
}

JobTicket ColoringService::admit_locked(JobSpec& spec, Job& out) {
  out.id = next_id_++;
  out.spec = std::move(spec);
  out.enqueued_at = std::chrono::steady_clock::now();
  out.cancel = std::make_shared<std::atomic<bool>>(false);
  cancel_tokens_.emplace(out.id, out.cancel);
  ++digest_queued_[out.spec.graph.digest];
  ++submitted_;
  return JobTicket{out.id};
}

void ColoringService::forget_queued_locked(std::uint64_t digest) {
  const auto it = digest_queued_.find(digest);
  if (it != digest_queued_.end() && --it->second == 0) digest_queued_.erase(it);
}

JobTicket ColoringService::submit(JobSpec spec) {
  std::vector<JobSpec> one;
  one.push_back(std::move(spec));
  return submit_batch(std::move(one)).front();
}

std::optional<JobTicket> ColoringService::try_submit(JobSpec spec) {
  validate_spec(spec);
  // The id/submitted_ reservation and the non-blocking enqueue happen under
  // one state-lock hold: reserving first and rolling back on a full queue
  // would let a concurrent drain() capture a submitted_ target that no job
  // will ever complete (and wait forever). Lock order state -> queue is
  // safe: no path acquires them in the opposite nesting. try_submit
  // bypasses the shedding policy by design -- the caller IS the admission
  // control here, and a full queue answers nullopt either way.
  std::lock_guard<std::mutex> lock(state_mutex_);
  DVC_REQUIRE(accepting_, "service is shut down");
  Job job;
  job.id = next_id_;
  job.spec = std::move(spec);
  job.enqueued_at = std::chrono::steady_clock::now();
  job.cancel = std::make_shared<std::atomic<bool>>(false);
  const int lane = static_cast<int>(job.spec.priority);
  const std::uint64_t digest = job.spec.graph.digest;
  auto token = job.cancel;
  if (!queue_.try_push(std::move(job), lane)) return std::nullopt;
  const JobTicket ticket{next_id_};
  cancel_tokens_.emplace(next_id_, std::move(token));
  ++digest_queued_[digest];
  ++next_id_;
  ++submitted_;
  return ticket;
}

std::vector<JobTicket> ColoringService::submit_batch(std::vector<JobSpec> specs) {
  // The whole batch is checked before any spec is admitted: a throw from
  // inside the admit loop would strand the specs admitted before it.
  for (const JobSpec& spec : specs) validate_spec(spec);
  std::vector<JobTicket> tickets;
  tickets.reserve(specs.size());
  std::vector<Job> jobs;
  jobs.reserve(specs.size());
  std::vector<JobResult> rejected;
  // Each admitted job in queue order, for the shutdown-race rollback.
  struct Admitted {
    std::uint64_t id;
    std::uint64_t digest;
    Preset preset;
    Priority priority;
  };
  std::vector<Admitted> admitted;
  admitted.reserve(specs.size());
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    DVC_REQUIRE(accepting_, "service is shut down");
    for (JobSpec& spec : specs) {
      const char* rejection =
          config_.shed_on_saturation
              ? admission_reject_locked(spec, jobs.size())
              : nullptr;
      if (rejection != nullptr) {
        JobResult shed;
        shed.id = next_id_++;
        shed.status = JobStatus::kRejected;
        shed.error = rejection;
        shed.graph_digest = spec.graph.digest;
        shed.preset = spec.preset;
        shed.priority = spec.priority;
        tickets.push_back(JobTicket{shed.id});
        ++submitted_;
        rejected.push_back(std::move(shed));
        continue;
      }
      Job job;
      tickets.push_back(admit_locked(spec, job));
      admitted.push_back({job.id, job.spec.graph.digest, job.spec.preset,
                          job.spec.priority});
      jobs.push_back(std::move(job));
    }
  }
  for (JobResult& shed : rejected) deliver(std::move(shed));
  // Bulk enqueue outside the state lock: push_bulk may block for space, and
  // blocking while holding state_mutex_ would stall wait()/poll()/metrics().
  const std::size_t pushed = queue_.push_bulk(
      std::move(jobs),
      [](const Job& j) { return static_cast<int>(j.spec.priority); });
  // Jobs enqueue in `admitted` order, so exactly the tail beyond `pushed`
  // never reached the queue (possible only on a shutdown race). Fail each
  // structurally so every ticket stays claimable and drain() converges.
  if (pushed < admitted.size()) {
    {
      // Roll back the digest-class occupancy admit_locked recorded (the
      // cancel token is erased by deliver below).
      std::lock_guard<std::mutex> lock(state_mutex_);
      for (std::size_t i = pushed; i < admitted.size(); ++i) {
        forget_queued_locked(admitted[i].digest);
      }
    }
    for (std::size_t i = pushed; i < admitted.size(); ++i) {
      JobResult failed;
      failed.id = admitted[i].id;
      failed.status = JobStatus::kFailed;
      failed.error = "service shut down before the job was queued";
      failed.graph_digest = admitted[i].digest;
      failed.preset = admitted[i].preset;
      failed.priority = admitted[i].priority;
      deliver(std::move(failed));
    }
  }
  return tickets;
}

bool ColoringService::claimed_locked(std::uint64_t id) const {
  return id <= claimed_floor_ || claimed_above_floor_.contains(id);
}

void ColoringService::mark_claimed_locked(std::uint64_t id) {
  claimed_above_floor_.insert(id);
  // Compact the overflow set: tickets are mostly claimed in submission
  // order, so the floor usually swallows the insert immediately.
  while (claimed_above_floor_.erase(claimed_floor_ + 1) > 0) ++claimed_floor_;
}

void ColoringService::require_known_locked(std::uint64_t id) const {
  DVC_REQUIRE(id >= 1, "invalid ticket");
  // A ticket this service never issued (from another instance, or a stale
  // id after restart) must fail fast: waiting on it would sleep forever.
  DVC_REQUIRE(id < next_id_, "unknown ticket");
}

JobResult ColoringService::wait(JobTicket ticket) {
  std::unique_lock<std::mutex> lock(state_mutex_);
  require_known_locked(ticket.id);
  DVC_REQUIRE(!claimed_locked(ticket.id), "ticket already claimed");
  // Also wake when a racing claimant wins, so the loser throws instead of
  // sleeping forever on a result that will never reappear.
  result_cv_.wait(lock, [&] {
    return results_.contains(ticket.id) || claimed_locked(ticket.id);
  });
  DVC_REQUIRE(!claimed_locked(ticket.id), "ticket already claimed");
  auto node = results_.extract(ticket.id);
  mark_claimed_locked(ticket.id);
  lock.unlock();
  result_cv_.notify_all();
  return std::move(node.mapped());
}

std::optional<JobResult> ColoringService::poll(JobTicket ticket) {
  std::unique_lock<std::mutex> lock(state_mutex_);
  require_known_locked(ticket.id);
  DVC_REQUIRE(!claimed_locked(ticket.id), "ticket already claimed");
  auto node = results_.extract(ticket.id);
  if (node.empty()) return std::nullopt;
  mark_claimed_locked(ticket.id);
  lock.unlock();
  result_cv_.notify_all();
  return std::move(node.mapped());
}

bool ColoringService::cancel(JobTicket ticket) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  require_known_locked(ticket.id);
  // Result already delivered (claimed or still parked): too late to cancel.
  if (claimed_locked(ticket.id) || results_.contains(ticket.id)) return false;
  const auto it = cancel_tokens_.find(ticket.id);
  if (it == cancel_tokens_.end()) return false;  // never admitted (rejected)
  it->second->store(true, std::memory_order_relaxed);
  return true;
}

void ColoringService::drain() {
  std::unique_lock<std::mutex> lock(state_mutex_);
  const std::uint64_t target = submitted_;
  idle_cv_.wait(lock, [&] { return completed_ >= target; });
}

void ColoringService::shutdown() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    accepting_ = false;
    paused_ = false;  // gated workers must wake to drain the queue
  }
  pause_cv_.notify_all();
  queue_.close();
  bool expected = false;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    expected = joined_;
    joined_ = true;
  }
  if (!expected) {
    for (std::thread& t : workers_) t.join();
  }
}

void ColoringService::resume() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    paused_ = false;
  }
  pause_cv_.notify_all();
}

std::uint64_t ColoringService::submitted() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return submitted_;
}

std::uint64_t ColoringService::completed() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return completed_;
}

void ColoringService::LatencyRing::add(double ms) {
  if (samples.size() < kLatencyWindow) {
    samples.push_back(ms);
  } else {
    samples[next] = ms;
  }
  next = (next + 1) % kLatencyWindow;
}

LatencyQuantiles ColoringService::LatencyRing::quantiles() const {
  LatencyQuantiles q;
  q.count = samples.size();
  if (samples.empty()) return q;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  q.p50_ms = percentile_sorted_ms(sorted, 0.50);
  q.p95_ms = percentile_sorted_ms(sorted, 0.95);
  q.p99_ms = percentile_sorted_ms(sorted, 0.99);
  return q;
}

ServiceMetrics ColoringService::metrics() const {
  ServiceMetrics m;
  // Queue first (its own lock), then the state lock: consistent enough for
  // monitoring, and never nests queue -> state (the forbidden order).
  m.queue_capacity = queue_.capacity();
  const auto lane_sizes = queue_.lane_sizes();
  m.queue_depth = 0;
  for (int p = 0; p < kNumPriorities; ++p) {
    m.queue_depth_by_priority[static_cast<std::size_t>(p)] =
        lane_sizes[static_cast<std::size_t>(p)];
    m.queue_depth += lane_sizes[static_cast<std::size_t>(p)];
  }
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    m.submitted = submitted_;
    m.completed = completed_;
    m.ok = ok_;
    m.failed = failed_;
    m.shed = shed_;
    m.cancelled = cancelled_;
    m.expired = expired_;
    m.quarantined = quarantined_count_;
    m.retries = retries_;
    m.recoveries = recoveries_;
    m.faults_injected = faults_injected_;
    m.quarantined_digests = quarantined_.size();
    for (int p = 0; p < kNumPresets; ++p) {
      const PresetTrack& track = per_preset_[static_cast<std::size_t>(p)];
      if (track.jobs == 0) continue;
      ServiceMetrics::PresetMetrics pm;
      pm.preset = static_cast<Preset>(p);
      pm.jobs = track.jobs;
      pm.run = track.run.quantiles();
      pm.queue = track.queue.quantiles();
      m.per_preset.push_back(std::move(pm));
    }
  }
  m.cache = cache_.stats();
  if (m.cache.hits + m.cache.misses > 0) {
    m.cache_hit_ratio = static_cast<double>(m.cache.hits) /
                        static_cast<double>(m.cache.hits + m.cache.misses);
  }
  m.pool = pool_.stats();
  if (m.pool.acquires > 0) {
    m.warm_hit_ratio = static_cast<double>(m.pool.warm_hits) /
                       static_cast<double>(m.pool.acquires);
  }
  m.store = store_.stats();
  return m;
}

void ColoringService::worker_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(state_mutex_);
      pause_cv_.wait(lock, [&] { return !paused_; });
    }
    Job job;
    if (!queue_.pop(job)) return;  // closed and drained
    {
      // The job left the queue: its digest class no longer occupies queue
      // space, so the shedding policy must stop counting it.
      std::lock_guard<std::mutex> lock(state_mutex_);
      forget_queued_locked(job.spec.graph.digest);
    }
    // Retry backoff booked at requeue time (deterministic per-job jitter).
    if (job.not_before != std::chrono::steady_clock::time_point{}) {
      std::this_thread::sleep_until(job.not_before);
    }
    // nullopt: the job failed transiently and went back to the queue for a
    // retry -- there is no result to deliver yet.
    if (auto result = execute(std::move(job))) deliver(std::move(*result));
  }
}

std::optional<JobResult> ColoringService::execute(Job job) {
  const JobSpec& spec = job.spec;
  JobResult res;
  res.id = job.id;
  res.preset = spec.preset;
  res.priority = spec.priority;
  res.graph_digest = spec.graph.digest;
  res.attempts = job.attempt;  // bumped below once a run actually starts
  const int shards =
      spec.knobs.shards > 0 ? spec.knobs.shards : config_.default_shards;
  res.shards = shards;
  const auto started = std::chrono::steady_clock::now();
  res.queue_ms = ms_between(job.enqueued_at, started);
  const bool has_deadline = spec.deadline_ms > 0.0;
  const auto deadline =
      job.enqueued_at +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(spec.deadline_ms));
  // Structural short-circuits before any session work: a cancelled or
  // already-expired job must not consume a run.
  if (job.cancel && job.cancel->load(std::memory_order_relaxed)) {
    res.status = JobStatus::kCancelled;
    res.error = "job cancelled before execution";
    res.run_ms = ms_between(started, std::chrono::steady_clock::now());
    return res;
  }
  if (has_deadline && started >= deadline) {
    res.status = JobStatus::kExpired;
    res.error = "deadline expired while the job was queued";
    res.run_ms = ms_between(started, std::chrono::steady_clock::now());
    return res;
  }
  // Result cache: an identical (graph, preset, bound, knobs) job was
  // already computed -- answer without a run. Cached values are shared
  // immutable results, so the copy into res is bitwise what the original
  // run produced (the bit-identity tests pin this). An ARMED fault plan
  // bypasses the cache in both directions: a chaos job must actually run
  // (and possibly fault), and a run that faulted-and-recovered is verified
  // bit-identical but stays out of the fault-free cache population.
  const bool plan_armed = spec.knobs.fault_plan.armed();
  // Multi-process execution (see dist/dist.hpp): the job's session is an
  // inline-shards one (pooled under its own key) carrying a DistSession, so
  // every dist-capable phase runs across spec.dist.workers OS processes.
  // Distribution is proven output-invariant, so dist and in-process jobs
  // share cache entries -- but an ARMED worker kill is chaos, and bypasses
  // the cache exactly like an armed fault plan.
  const bool dist_job = spec.dist.workers > 0;
  const bool kill_armed = dist_job && spec.dist.kill_at_sweep >= 0;
  const ResultCache::Key cache_key{spec.graph.digest,
                                   static_cast<int>(spec.preset),
                                   spec.arboricity_bound,
                                   knob_fingerprint(spec.knobs, shards)};
  if (!plan_armed && !kill_armed) {
    if (auto cached = cache_.lookup(cache_key)) {
      res.result = *cached;
      res.status = JobStatus::kOk;
      res.ok = true;
      res.cache_hit = true;
      res.run_ms = ms_between(started, std::chrono::steady_clock::now());
      return res;
    }
  }
  // Circuit breaker: a quarantined digest completes structurally without
  // consuming a run or retries (see RetryPolicy::quarantine_threshold).
  if (config_.retry.quarantine_threshold > 0) {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (quarantined_.contains(spec.graph.digest)) {
      res.status = JobStatus::kQuarantined;
      res.error =
          "graph digest is quarantined after repeated transient faults";
      res.run_ms = ms_between(started, std::chrono::steady_clock::now());
      return res;
    }
  }
  std::uint64_t fault_delta = 0;
  bool transient = false;
  try {
    // Attempt 0 takes a pooled (possibly warm) session. Retries build a
    // FRESH cold session instead: the failed attempt's session was
    // discarded below (a shard fault or bad_alloc unwound it mid-sweep),
    // and a fresh session is the natural target for a replay.
    SessionPool::Entry entry;
    if (job.attempt == 0) {
      entry = pool_.acquire(spec.graph, shards, dist_job);
    } else {
      entry.graph = spec.graph;
      entry.shards = shards;
      entry.inline_shards = dist_job;
      entry.rt = std::make_unique<sim::Runtime>(*spec.graph.graph, shards,
                                                /*inline_shards=*/dist_job);
      entry.warm = false;
    }
    res.warm_session = entry.warm;
    res.attempts = job.attempt + 1;
    // Warm reuse contract: forget the previous job's phases, keep every
    // arena. The run below is bit-identical to one on a fresh session (the
    // runtime suite proves shared-vs-fresh identity), which is what makes
    // pool reuse invisible to callers.
    entry.rt->reset_log();
    if (job.replay_log) {
      // Arm replay verification against the failed attempt's log: the
      // re-run below re-executes the pipeline from the top, and every phase
      // the failed attempt completed is verified bit-identical against it
      // as it lands (divergence -> invariant error -> kFailed, never a
      // silently different answer).
      entry.rt->resume(*job.replay_log);
    }
    const std::uint64_t faults_before = entry.rt->faults_injected();
    try {
      // Phase-boundary interruption: the hook runs at the top of every
      // run_phase, BETWEEN phases, never inside a round -- so an abandoned
      // run leaves no half-executed phase behind and the recorded phases of
      // a completed run are untouched by polling. Throwing job_interrupt
      // unwinds out of the pipeline; the session stays sound and returns to
      // the pool below like any other throwing job.
      sim::ScopedInterrupt guard(*entry.rt, [&] {
        if (job.cancel && job.cancel->load(std::memory_order_relaxed)) {
          throw job_interrupt{JobStatus::kCancelled,
                              "job cancelled at a phase boundary"};
        }
        if (has_deadline && std::chrono::steady_clock::now() >= deadline) {
          throw job_interrupt{JobStatus::kExpired,
                              "deadline expired at a phase boundary"};
        }
      });
      const sim::ScopedWatchdog watchdog(*entry.rt,
                                         config_.retry.watchdog_idle_rounds);
      // Chaos injection: the job's plan, salted with the attempt index so a
      // retry draws fresh fault decisions instead of replaying the fault
      // that killed it. color_graph installs it scoped to the call, so a
      // pooled session never inherits a plan.
      Knobs knobs = spec.knobs;
      knobs.fault_plan.salt = job.attempt;
      // Distributed execution: install the transport for the span of this
      // run. The scheduled worker kill arms only on its designated attempt,
      // so the retry of a killed job runs clean and recovery is observable.
      std::optional<dist::DistSession> dist_session;
      if (dist_job) {
        dist::DistConfig dcfg;
        dcfg.workers = spec.dist.workers;
        dcfg.backend = spec.dist.backend;
        if (kill_armed && job.attempt == spec.dist.kill_attempt) {
          dcfg.kill_at_sweep = spec.dist.kill_at_sweep;
          dcfg.kill_worker = spec.dist.kill_worker;
        }
        dist_session.emplace(*entry.rt, dcfg);
      }
      res.result =
          color_graph(*entry.rt, spec.arboricity_bound, spec.preset, knobs);
      if (dist_session) {
        const dist::PhaseWireMetrics totals = dist_session->totals();
        res.dist_workers = dist_session->effective_workers();
        res.wire_bytes = totals.wire_bytes;
        res.wire_frames = totals.frames;
        dist_session.reset();  // uninstall before the session leaves scope
      }
      res.status = JobStatus::kOk;
      res.ok = true;
      res.recovered = job.attempt > 0;
      res.replay_verified_entries = entry.rt->replay_verified();
    } catch (...) {
      fault_delta = entry.rt->faults_injected() - faults_before;
      res.failed_phase = std::string(entry.rt->last_phase());
      // Classify: transient (retry-safe environmental -- injected faults,
      // detected corruption, allocation failure) vs structural.
      try {
        throw;
      } catch (const transient_error&) {
        transient = true;
      } catch (const std::bad_alloc&) {
        transient = true;
      } catch (...) {
      }
      if (transient) {
        // First transient failure holds a copy of the log every retry
        // replays. (The log records only COMPLETED phases, so the copy ends
        // on a phase boundary.) Best-effort: if the copy itself fails --
        // say, under allocation-failure injection -- the retry simply
        // re-runs unverified.
        if (!job.replay_log) {
          try {
            job.replay_log =
                std::make_shared<const sim::PhaseLog>(entry.rt->log());
          } catch (...) {
          }
        }
        // Discard the session (fall off scope, joining its threads): a
        // shard fault or bad_alloc unwound it mid-sweep, so it must never
        // return to the pool.
      } else {
        // A structurally-throwing job fails only itself. The session is
        // still sound (the runtime clears shard exception state when it
        // rethrows, and interrupts fire only between phases), so it goes
        // back to the pool -- a poisoned, cancelled or expired job must
        // never shrink serving capacity.
        pool_.release(std::move(entry));
      }
      throw;
    }
    fault_delta = entry.rt->faults_injected() - faults_before;
    pool_.release(std::move(entry));
    if (!plan_armed && !kill_armed) {
      cache_.insert(cache_key, std::make_shared<const LegalColoringResult>(
                                   res.result));
    }
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      faults_injected_ += fault_delta;
      // Success resets the circuit breaker's consecutive-failure count.
      poison_counts_.erase(spec.graph.digest);
    }
  } catch (const job_interrupt& stop) {
    res.status = stop.status;
    res.ok = false;
    res.error = stop.what;
    std::lock_guard<std::mutex> lock(state_mutex_);
    faults_injected_ += fault_delta;
  } catch (const std::exception& e) {
    if (transient) {
      res.run_ms = ms_between(started, std::chrono::steady_clock::now());
      return handle_transient(std::move(job), std::move(res), e.what(),
                              fault_delta);
    }
    res.status = JobStatus::kFailed;
    res.ok = false;
    res.error = e.what();
    std::lock_guard<std::mutex> lock(state_mutex_);
    faults_injected_ += fault_delta;
  } catch (...) {
    res.status = JobStatus::kFailed;
    res.ok = false;
    res.error = "unknown exception";
  }
  res.run_ms = ms_between(started, std::chrono::steady_clock::now());
  return res;
}

std::optional<JobResult> ColoringService::handle_transient(
    Job job, JobResult res, const std::string& what,
    std::uint64_t fault_delta) {
  const std::uint64_t digest = job.spec.graph.digest;
  const ServiceConfig::RetryPolicy& policy = config_.retry;
  bool quarantine_now = false;
  int poison_count = 0;
  bool retry = false;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    faults_injected_ += fault_delta;
    if (policy.quarantine_threshold > 0) {
      poison_count = ++poison_counts_[digest];
      if (poison_count >= policy.quarantine_threshold) {
        quarantined_.insert(digest);
        quarantine_now = true;
      }
    }
    if (!quarantine_now && job.attempt + 1 < policy.max_attempts) {
      retry = true;
      ++retries_;
      // The retried job re-enters the queue, so its digest class occupies
      // queue space again as far as the shedding policy is concerned.
      ++digest_queued_[digest];
    }
  }
  if (quarantine_now) {
    res.status = JobStatus::kQuarantined;
    res.ok = false;
    res.error = "graph digest quarantined after " +
                std::to_string(poison_count) +
                " consecutive transient faults; last: " + what;
    return res;
  }
  if (retry) {
    const int attempt = job.attempt + 1;  // 1-based retry index
    job.attempt = attempt;
    // Capped exponential backoff with DETERMINISTIC jitter in [0.5, 1.0)
    // from (job id, attempt): reproducible schedules, no thundering herd.
    double wait_ms = 0.0;
    if (policy.backoff_base_ms > 0.0) {
      wait_ms = std::min(policy.backoff_cap_ms,
                         policy.backoff_base_ms * std::ldexp(1.0, attempt - 1));
      const std::uint64_t bits =
          detail::digest_mix(job.id, static_cast<std::uint64_t>(attempt));
      wait_ms *= 0.5 + 0.5 * (static_cast<double>(bits >> 11) * 0x1p-53);
    }
    job.not_before =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(wait_ms));
    const int lane = static_cast<int>(job.spec.priority);
    // Capacity-exempt front-of-lane requeue: a worker must never block for
    // queue space (every worker retrying at once against blocked
    // submitters would deadlock), and the retry should run before new work
    // of its class -- its latency clock has been ticking since submission.
    if (queue_.push_front(std::move(job), lane)) return std::nullopt;
    // The queue closed under us (shutdown race): roll back the occupancy
    // and fail structurally so the ticket stays claimable.
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      forget_queued_locked(digest);
    }
    res.status = JobStatus::kFailed;
    res.ok = false;
    res.error = "service shut down during a fault retry: " + what;
    return res;
  }
  res.status = JobStatus::kFailed;
  res.ok = false;
  res.error = "transient fault persisted after " +
              std::to_string(job.attempt + 1) + " attempts: " + what;
  return res;
}

void ColoringService::deliver(JobResult result) {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    switch (result.status) {
      case JobStatus::kOk: {
        ++ok_;
        if (result.recovered) ++recoveries_;
        PresetTrack& track =
            per_preset_[static_cast<std::size_t>(result.preset)];
        ++track.jobs;
        track.run.add(result.run_ms);
        track.queue.add(result.queue_ms);
        break;
      }
      case JobStatus::kFailed: ++failed_; break;
      case JobStatus::kRejected: ++shed_; break;
      case JobStatus::kCancelled: ++cancelled_; break;
      case JobStatus::kExpired: ++expired_; break;
      case JobStatus::kQuarantined: ++quarantined_count_; break;
    }
    cancel_tokens_.erase(result.id);
    results_.emplace(result.id, std::move(result));
    ++completed_;
  }
  result_cv_.notify_all();
  idle_cv_.notify_all();
}

}  // namespace dvc::service

// ---------------------------------------------------------------------------
// Service-aware facade (declared in core/api.hpp): one-call submit + wait
// through a shared service, so callers holding a ColoringService get the
// familiar color_graph shape with interning, warm sessions and the result
// cache for free.

namespace dvc {

LegalColoringResult color_graph(service::ColoringService& svc, const Graph& g,
                                int arboricity_bound, Preset preset,
                                const Knobs& knobs) {
  // Reuse the interned binding when this topology was seen before; only a
  // first-time submission pays the copy into the store. The structural
  // sanity check mirrors GraphStore::intern's collision guard: never hand a
  // job a different topology that happens to share the 64-bit digest.
  service::GraphRef ref = svc.store().find(g.digest());
  DVC_ENSURE(!ref || (ref->num_vertices() == g.num_vertices() &&
                      ref->num_edges() == g.num_edges()),
             "graph digest collision between structurally different graphs");
  if (!ref) ref = svc.intern(Graph(g));
  service::JobSpec spec;
  spec.graph = std::move(ref);
  spec.arboricity_bound = arboricity_bound;
  spec.preset = preset;
  spec.knobs = knobs;
  service::JobResult res = svc.wait(svc.submit(std::move(spec)));
  if (!res.ok) {
    throw invariant_error(std::string("service job ") +
                          service::job_status_name(res.status) + ": " +
                          res.error);
  }
  return std::move(res.result);
}

}  // namespace dvc
