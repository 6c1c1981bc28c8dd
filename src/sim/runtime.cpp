#include "sim/runtime.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <limits>
#include <ranges>

#include "common/check.hpp"
#include "common/math.hpp"
#include "common/wire.hpp"

namespace dvc::sim {
namespace {

std::atomic<std::uint64_t> g_threads_spawned{0};

/// Grouped-delivery mode pays O(1) per speaker port but with scattered
/// accesses and a sort of the gathered slots; the port-scan fallback pays
/// O(1) per live port with mostly-sequential reads. Measured on commodity
/// cores the scattered unit costs ~an order of magnitude more, so delivery
/// groups only when the speakers' summed degree is at least this factor
/// below the shard's live port space -- mid-density rounds stay on the scan
/// path, truly sparse trickles skip the port scans entirely.
constexpr std::uint64_t kGroupedDeliveryFactor = 12;

constexpr const char* kOneMessagePerEdge =
    "at most one message per edge-direction per round (LOCAL model)";

/// Seed of the per-round XOR checksum lane (see Runtime::LaneTotals):
/// slot identities and payload words are folded through digest_mix under
/// this seed, once from the speakers' fresh slots before faults are
/// injected and once from every fresh slot of the arena at the delivery
/// boundary.
constexpr std::uint64_t kLaneSeed = 0x64766c616e65ULL;  // "dvlane"

// Checkpoint buffer format (see Runtime::checkpoint): little-endian fields,
// magic + version header, graph fingerprint, CONGEST budget, the serialized
// PhaseLog (PhaseLog::save), and a trailing wire::checksum64. The encode/
// decode/checksum idioms live in common/wire.hpp, shared with the
// distributed transport's frame protocol.
constexpr std::uint64_t kCkptMagic = 0x647663434b505431ULL;  // "dvcCKPT1"
constexpr std::uint32_t kCkptVersion = 4;

// Depth counter (not a bool) so machinery scopes nest: the round loop is
// machinery, program callbacks are not, but Ctx::send called from a callback
// re-enters machinery.
thread_local int t_machinery_depth = 0;

struct MachineryScope {
  MachineryScope() { ++t_machinery_depth; }
  ~MachineryScope() { --t_machinery_depth; }
  MachineryScope(const MachineryScope&) = delete;
  MachineryScope& operator=(const MachineryScope&) = delete;
};

/// Inverse of MachineryScope: suspends the flag while control is inside a
/// program callback or a test observer.
struct ProgramScope {
  int saved;
  ProgramScope() : saved(t_machinery_depth) { t_machinery_depth = 0; }
  ~ProgramScope() { t_machinery_depth = saved; }
  ProgramScope(const ProgramScope&) = delete;
  ProgramScope& operator=(const ProgramScope&) = delete;
};

}  // namespace

// ---------------------------------------------------------------------------
// Runtime

std::uint64_t Runtime::lifetime_threads_spawned() {
  return g_threads_spawned.load(std::memory_order_relaxed);
}

bool Runtime::in_machinery() { return t_machinery_depth > 0; }

int Ctx::degree() const { return rt_->graph().degree(v_); }
int Ctx::round() const { return rt_->round_; }

void Ctx::send(int port, std::span<const std::int64_t> payload) {
  rt_->do_send(shard_, v_, port, payload);
}

void Ctx::broadcast(std::span<const std::int64_t> payload) {
  rt_->do_broadcast(shard_, v_, payload);
}

void Ctx::halt() { rt_->do_halt(shard_, v_); }

std::vector<std::int64_t>& Ctx::scratch(int which) {
  DVC_REQUIRE(which >= 0 && which < kNumScratch, "scratch index out of range");
  return rt_->shards_[static_cast<std::size_t>(shard_)]
      .scratch[static_cast<std::size_t>(which)];
}

Runtime::Runtime(const Graph& g, int shards, bool inline_shards) : g_(&g) {
  const V n = g.num_vertices();
  std::int64_t s = shards > 0 ? shards : 1;
  if (n > 0 && s > n) s = n;
  if (n == 0) s = 1;
  num_shards_ = static_cast<int>(s);
  // Cost-balanced contiguous partition: cut k is the first vertex whose
  // prefix cost slot(v, 0) + kVertexCost * v (monotone in v) reaches k/s of
  // the total, kept at least one vertex past the previous cut and short
  // enough to leave one vertex for every later shard.
  const auto prefix_cost = [&](V v) { return g.slot(v, 0) + kVertexCost * v; };
  const std::int64_t total = prefix_cost(n);
  bounds_.assign(static_cast<std::size_t>(num_shards_) + 1, n);
  bounds_[0] = 0;
  for (int k = 1; k < num_shards_; ++k) {
    const std::int64_t target = total / s * k + total % s * k / s;
    const V lo = bounds_[static_cast<std::size_t>(k) - 1] + 1;
    const auto cut = std::views::iota(lo, static_cast<V>(n - s + k));
    bounds_[static_cast<std::size_t>(k)] =
        lo + static_cast<V>(std::ranges::partition_point(cut, [&](V v) {
               return prefix_cost(v) < target;
             }) - cut.begin());
  }
  shards_.resize(static_cast<std::size_t>(num_shards_));

  // All slot- and vertex-sized state is allocated here, once per session;
  // run_phase only resets it. Epoch -1 and the default SenderRecord stamps
  // match no round.
  const auto slots = static_cast<std::size_t>(g.num_slots());
  for (Arena& arena : arenas_) {
    arena.epoch.assign(slots, -1);
    arena.off.assign(slots, 0);
    arena.len.assign(slots, 0);
    arena.record.assign(static_cast<std::size_t>(n), SenderRecord{});
    arena.words.resize(static_cast<std::size_t>(num_shards_));
    arena.speakers.resize(static_cast<std::size_t>(num_shards_));
  }
  halted_.assign(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < num_shards_; ++i) {
    // Live list and speaker lists hold at most the shard's vertex range;
    // the grouped workspace at most (slot range) / kGroupedDeliveryFactor
    // (see Shard::grouped). Inboxes hold at most the shard's max degree.
    // Reserving the exact bounds here makes every round -- including the
    // first of a cold phase -- provably allocation-free in the delivery
    // path.
    Shard& sh = shards_[static_cast<std::size_t>(i)];
    sh.first = bounds_[static_cast<std::size_t>(i)];
    sh.last = bounds_[static_cast<std::size_t>(i) + 1];
    const auto range = static_cast<std::size_t>(sh.last - sh.first);
    sh.slot_lo = g.slot(sh.first, 0);
    sh.slot_hi = g.slot(sh.last, 0);
    sh.live.reserve(range);
    for (Arena& arena : arenas_) {
      arena.speakers[static_cast<std::size_t>(i)].reserve(range);
    }
    sh.grouped.reserve(static_cast<std::size_t>(sh.slot_hi - sh.slot_lo) /
                           kGroupedDeliveryFactor +
                       1);
    int max_deg = 0;
    for (V v = sh.first; v < sh.last; ++v) {
      max_deg = std::max(max_deg, g.degree(v));
    }
    sh.inbox.msgs_.reserve(static_cast<std::size_t>(max_deg));
  }
  log_.reserve(/*entries=*/64, /*name_bytes=*/2048, /*active_words=*/4096,
               /*bandwidth_words=*/4096);

  // Parked worker pool: one thread per extra shard for the lifetime of the
  // session. Phase boundaries wake it via condition variable; nothing is
  // ever re-spawned. inline_shards keeps the pool empty: dispatch() then
  // sweeps every shard sequentially on the calling thread, which is
  // bit-identical (the shard-determinism contract) and leaves the process
  // single-threaded -- the property the fork-based transport needs.
  threads_.reserve(
      inline_shards ? 0 : static_cast<std::size_t>(num_shards_ - 1));
  // A failed spawn (std::system_error) unwinds through here: the threads
  // already running must be joined before threads_ is destroyed, or the
  // joinable std::threads call std::terminate.
  try {
    for (int shard = 1; !inline_shards && shard < num_shards_; ++shard) {
      threads_.emplace_back([this, shard] { pool_loop(shard); });
      g_threads_spawned.fetch_add(1, std::memory_order_relaxed);
    }
  } catch (...) {
    stop_pool();
    throw;
  }
}

Runtime::~Runtime() { stop_pool(); }

void Runtime::pool_loop(int shard) {
  MachineryScope machinery;
  std::uint64_t seen = 0;
  for (;;) {
    Job job;
    VertexProgram* program;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] { return stopping_ || generation_ != seen; });
      if (stopping_) return;
      seen = generation_;
      job = job_;
      program = program_;
    }
    run_shard_phase(shard, *program, job == Job::kBegin);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--pending_ == 0) done_cv_.notify_one();
    }
  }
}

void Runtime::stop_pool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  start_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void Runtime::throw_width(V from, int port, std::size_t words) const {
  // Attribute the violation to the tighter of the two caps in force.
  const bool from_contract =
      phase_contract_words_ > 0 &&
      static_cast<std::int64_t>(phase_contract_words_) == msg_word_cap_;
  const std::string source = from_contract
                                 ? "the program's declared max_words contract"
                                 : "the session's congest_words budget";
  throw bandwidth_error(
      "bandwidth violation: vertex " + std::to_string(from) + " sent " +
          std::to_string(words) + " words on port " + std::to_string(port) +
          " in round " + std::to_string(round_) + ", exceeding " + source +
          " of " + std::to_string(msg_word_cap_) + " words (CONGEST model)",
      from, port, round_, static_cast<std::int64_t>(words), msg_word_cap_,
      from_contract);
}

std::uint32_t Runtime::append_words(Arena& out, int shard,
                                    std::span<const std::int64_t> payload) {
  auto& words = out.words[static_cast<std::size_t>(shard)];
  DVC_ENSURE(words.size() + payload.size() <= 0xffffffffu,
             "a shard's per-round payload exceeds the 32-bit arena offsets");
  const auto off = static_cast<std::uint32_t>(words.size());
  words.insert(words.end(), payload.begin(), payload.end());
  return off;
}

void Runtime::do_send(int shard, V from, int port,
                      std::span<const std::int64_t> payload) {
  MachineryScope machinery;
  DVC_REQUIRE(port >= 0 && port < g_->degree(from), "send port out of range");
  if (static_cast<std::int64_t>(payload.size()) > msg_word_cap_) {
    throw_width(from, port, payload.size());
  }
  Arena& out = arenas_[1 - in_idx_];
  const std::int32_t stamp = stamp_base_ + round_;
  Shard& sh = shards_[static_cast<std::size_t>(shard)];
  // The sender's record marks that it spoke on ports this round, and its
  // first port send enters it in the speaker list: delivery then reads the
  // slot arena for it, and a later broadcast must throw.
  SenderRecord& rec = out.record[static_cast<std::size_t>(from)];
  DVC_ENSURE(rec.bcast_stamp != stamp, kOneMessagePerEdge);
  if (rec.port_stamp != stamp) {
    rec.port_stamp = stamp;
    out.speakers[static_cast<std::size_t>(shard)].push_back(from);
    sh.spoken_ports += static_cast<std::uint64_t>(g_->degree(from));
  }
  const auto s = static_cast<std::size_t>(g_->mirror_slot(g_->slot(from, port)));
  DVC_ENSURE(out.epoch[s] != stamp, kOneMessagePerEdge);
  out.epoch[s] = stamp;
  out.off[s] = append_words(out, shard, payload);
  out.len[s] = static_cast<std::uint32_t>(payload.size());
  sh.messages += 1;
  sh.words += payload.size();
  sh.max_msg_words =
      std::max(sh.max_msg_words, static_cast<std::uint32_t>(payload.size()));
}

void Runtime::do_broadcast(int shard, V from,
                           std::span<const std::int64_t> payload) {
  const int deg = g_->degree(from);
  if (deg == 0) return;
  if (!lane_) {
    // Armed phases: one slot cell per port, so injected faults see every
    // message where they look for it.
    for (int p = 0; p < deg; ++p) do_send(shard, from, p, payload);
    return;
  }
  MachineryScope machinery;
  if (static_cast<std::int64_t>(payload.size()) > msg_word_cap_) {
    throw_width(from, 0, payload.size());
  }
  Arena& out = arenas_[1 - in_idx_];
  const std::int32_t stamp = stamp_base_ + round_;
  SenderRecord& rec = out.record[static_cast<std::size_t>(from)];
  DVC_ENSURE(rec.bcast_stamp != stamp && rec.port_stamp != stamp,
             kOneMessagePerEdge);
  rec.bcast_stamp = stamp;
  rec.off = append_words(out, shard, payload);
  rec.len = static_cast<std::uint32_t>(payload.size());
  out.speakers[static_cast<std::size_t>(shard)].push_back(from);
  // Accounted exactly as deg per-port sends: RunStats cannot tell the lanes
  // apart.
  Shard& sh = shards_[static_cast<std::size_t>(shard)];
  sh.spoken_ports += static_cast<std::uint64_t>(deg);
  sh.messages += static_cast<std::uint64_t>(deg);
  sh.words += static_cast<std::uint64_t>(deg) * payload.size();
  sh.max_msg_words =
      std::max(sh.max_msg_words, static_cast<std::uint32_t>(payload.size()));
}

void Runtime::do_halt(int shard, V v) {
  auto& h = halted_[static_cast<std::size_t>(v)];
  if (!h) {
    h = 1;
    ++shards_[static_cast<std::size_t>(shard)].newly_halted;
  }
}

void Runtime::run_shard_phase(int shard, VertexProgram& program, bool is_begin) {
  Shard& sh = shards_[static_cast<std::size_t>(shard)];
  try {
    if (fault_armed_) inject_shard_faults(shard, round_);
    if (is_begin) {
      for (V v = sh.first; v < sh.last; ++v) {
        Ctx ctx(*this, shard, v);
        ++sh.work_items;
        ProgramScope callback;
        program.begin(ctx);
      }
      // Seed the live list from the one post-begin halted sweep; from here
      // on it is only compacted, never re-derived.
      sh.live.clear();
      sh.live_ports = 0;
      for (V v = sh.first; v < sh.last; ++v) {
        if (halted_[static_cast<std::size_t>(v)]) continue;
        sh.live.push_back(v);
        sh.live_ports += static_cast<std::uint64_t>(g_->degree(v));
      }
      return;
    }
    step_sweep(shard, program);
  } catch (...) {
    sh.error = std::current_exception();
  }
}

void Runtime::gather_grouped(int shard, const Arena& in, std::int32_t want) {
  // Walk each speaker's sorted adjacency row over this shard's vertex range
  // and collect the receiver slots its messages arrive on: every port of a
  // broadcaster, the freshly stamped cells of a port sender. Sorting the
  // slots groups them by receiver in canonical port order.
  Shard& sh = shards_[static_cast<std::size_t>(shard)];
  sh.grouped.clear();
  for (const auto& speakers : in.speakers) {
    for (const V u : speakers) {
      const bool bcast =
          in.record[static_cast<std::size_t>(u)].bcast_stamp == want;
      const auto row = g_->neighbors(u);
      const std::int64_t base = g_->slot(u, 0);
      for (auto it = std::lower_bound(row.begin(), row.end(), sh.first);
           it != row.end() && *it < sh.last; ++it) {
        const std::int64_t s = g_->mirror_slot(base + (it - row.begin()));
        if (bcast || in.epoch[s] == want) {
          sh.grouped.push_back(static_cast<std::uint32_t>(s));
        }
      }
    }
  }
  std::sort(sh.grouped.begin(), sh.grouped.end());
}

void Runtime::step_sweep(int shard, VertexProgram& program) {
  Shard& sh = shards_[static_cast<std::size_t>(shard)];
  const Arena& in = arenas_[in_idx_];
  const std::int32_t want = stamp_base_ + round_ - 1;
  const bool grouped =
      lane_ && spoken_ports_ * kGroupedDeliveryFactor <= sh.live_ports;
  if (grouped) gather_grouped(shard, in, want);

  Inbox& inbox = sh.inbox;
  // A receiver's neighbors ascend in both delivery modes, so the sending
  // shard of each is found by advancing a cursor over the boundaries.
  std::size_t su = 0;
  const auto words_of = [&](V u) {
    while (u >= bounds_[su + 1]) ++su;
    return in.words[su].data();
  };
  // Appends what neighbor u (on port p, receiver slot s) sent last round:
  // its broadcast from the lane, else a per-port message from the slot
  // arena. Without the lane every message is a slot cell.
  const auto take = [&](int p, V u, std::size_t s) {
    if (lane_) {
      const SenderRecord& rec = in.record[static_cast<std::size_t>(u)];
      if (rec.bcast_stamp == want) {
        inbox.msgs_.push_back(MsgView{
            p, std::span<const std::int64_t>(words_of(u) + rec.off, rec.len)});
        return;
      }
      if (rec.port_stamp != want) return;
    }
    if (in.epoch[s] != want) return;
    inbox.msgs_.push_back(MsgView{
        p, std::span<const std::int64_t>(words_of(u) + in.off[s], in.len[s])});
  };

  // Sweep the live list in canonical (ascending) order, compacting it in
  // place: only step(v) itself can halt v, so survival is known right after
  // the call and the list never needs a separate rebuild pass. Grouped
  // entries are ascending too, so one cursor walks them alongside, skipping
  // those addressed to halted vertices.
  std::size_t w = 0;
  std::size_t cursor = 0;
  std::uint64_t next_ports = 0;
  const std::size_t live_count = sh.live.size();
  for (std::size_t i = 0; i < live_count; ++i) {
    const V v = sh.live[i];
    inbox.msgs_.clear();
    su = 0;
    const auto row = g_->neighbors(v);
    const std::int64_t base = g_->slot(v, 0);
    if (grouped) {
      const std::int64_t end = base + static_cast<std::int64_t>(row.size());
      while (cursor < sh.grouped.size() && sh.grouped[cursor] < base) ++cursor;
      for (; cursor < sh.grouped.size() && sh.grouped[cursor] < end; ++cursor) {
        const auto p = static_cast<std::size_t>(sh.grouped[cursor] - base);
        take(static_cast<int>(p), row[p], sh.grouped[cursor]);
      }
    } else {
      for (std::size_t p = 0; p < row.size(); ++p) {
        take(static_cast<int>(p), row[p], static_cast<std::size_t>(base) + p);
      }
    }
    sh.work_items += 1 + inbox.msgs_.size();
    {
      Ctx ctx(*this, shard, v);
      ProgramScope callback;
      program.step(ctx, inbox);
    }
    if (!halted_[static_cast<std::size_t>(v)]) {
      sh.live[w++] = v;
      next_ports += row.size();
    }
  }
  sh.live.resize(w);
  sh.live_ports = next_ports;
}

void Runtime::merge_shards() {
  // Canonical shard order keeps the fold deterministic for any shard count.
  spoken_ports_ = 0;
  for (Shard& sh : shards_) {
    spoken_ports_ += sh.spoken_ports;
    sh.spoken_ports = 0;
    stats_.messages += sh.messages;
    stats_.words += sh.words;
    stats_.work_items += sh.work_items;
    stats_.max_msg_words = std::max(stats_.max_msg_words, sh.max_msg_words);
    live_ -= sh.newly_halted;
    sh.messages = 0;
    sh.words = 0;
    sh.work_items = 0;
    sh.max_msg_words = 0;
    sh.newly_halted = 0;
  }
  // Clear every shard's error before rethrowing the first: a caught failure
  // must not leave stale exception_ptrs that would poison the next phase on
  // this (persistent) session.
  std::exception_ptr first_error;
  for (Shard& sh : shards_) {
    if (sh.error && !first_error) first_error = sh.error;
    sh.error = nullptr;
  }
  if (first_error) std::rethrow_exception(first_error);
}

void Runtime::dispatch(Job job) {
  const bool is_begin = job == Job::kBegin;
  if (threads_.empty()) {
    // Single-sharded, or a multi-shard inline session (inline_shards):
    // sweep every shard sequentially on this thread. Shard sweeps are
    // independent by the race-freedom contract, so serial ascending order
    // is bit-identical to the pool's concurrent execution.
    for (int shard = 0; shard < num_shards_; ++shard) {
      run_shard_phase(shard, *program_, is_begin);
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = job;
    pending_ = static_cast<int>(threads_.size());
    ++generation_;
  }
  start_cv_.notify_all();
  run_shard_phase(0, *program_, is_begin);
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return pending_ == 0; });
}

const RunStats& Runtime::run_phase(VertexProgram& program, int max_rounds,
                                   std::string_view label) {
  MachineryScope machinery;
  // Phase-boundary interrupt poll: a cancelled/expired job aborts here by
  // throwing, before this phase touches any session state -- the session
  // stays warm and reusable, the already-recorded phases stay untouched.
  // (Polled before the label/index bookkeeping below: an aborted phase
  // never started, so it must not consume a phase index or relabel the
  // session's failure context.)
  if (interrupt_) {
    ProgramScope callback;
    interrupt_();
  }
  phase_label_.assign(label);
  phase_cur_ = phase_index_++;
  try {
    run_phase_body(program, max_rounds, label);
  } catch (const bandwidth_error& e) {
    throw bandwidth_error("in phase '" + phase_label_ + "' (phase " +
                              std::to_string(phase_cur_) + "): " + e.what(),
                          e.vertex, e.port, e.round, e.words, e.cap,
                          e.from_contract);
  } catch (const watchdog_error&) {
    throw;  // constructed with the phase context already baked in
  } catch (const invariant_error& e) {
    throw invariant_error("in phase '" + phase_label_ + "' (phase " +
                          std::to_string(phase_cur_) + "): " + e.what());
  }
  // Everything else -- transient faults (which carry their own phase
  // fields), bad_alloc, preconditions, and non-std interrupt payloads --
  // propagates untouched.

  // Outside the try: a replay divergence is reported against the log
  // entry, not wrapped in the phase context.
  check_replay();
  return stats_;
}

void Runtime::run_phase_body(VertexProgram& program, int max_rounds,
                             std::string_view label) {
  const V n = g_->num_vertices();
  // Per-phase reset without freeing: every container below keeps its
  // capacity from earlier phases of this session. Epoch arenas are not
  // touched at all -- stamp_base_ leaps past every stamp the previous phase
  // wrote, so stale cells can never match (O(n) phase start, not O(slots)).
  if (stamp_base_ >
      std::numeric_limits<std::int32_t>::max() - std::max(max_rounds, 0) - 2) {
    // The epochs and the broadcast records, which share the session-round
    // numbering, wrap together.
    for (Arena& arena : arenas_) {
      std::ranges::fill(arena.epoch, -1);
      std::ranges::fill(arena.record, SenderRecord{});
    }
    stamp_base_ = 0;
  }
  // On every exit -- including a round-cap throw mid-phase -- advance the
  // base past the largest stamp this phase can have written, so a later
  // phase never observes a stale cell as fresh.
  struct StampGuard {
    Runtime& rt;
    ~StampGuard() { rt.stamp_base_ += rt.round_ + 1; }
  } stamp_guard{*this};

  std::fill(halted_.begin(), halted_.end(), 0);
  live_ = n;
  round_ = 0;
  idle_rounds_ = 0;
  lane_expected_.reset();
  stats_.rounds = 0;
  stats_.messages = 0;
  stats_.words = 0;
  stats_.work_items = 0;
  stats_.max_msg_words = 0;
  stats_.active_per_round.clear();
  stats_.active_per_round.reserve(
      static_cast<std::size_t>(std::clamp(max_rounds, 0, 1 << 12)));
  stats_.words_per_round.clear();
  stats_.words_per_round.reserve(
      static_cast<std::size_t>(std::clamp(max_rounds, 0, 1 << 12)) + 1);
  for (Arena& arena : arenas_) arena.clear_round();
  in_idx_ = 0;  // begin (round 0) writes arenas_[1]; round 1 reads it
  program_ = &program;
  // Effective per-message word cap for this phase: the tighter of the
  // session budget and the program's declared contract (0 = no cap).
  phase_contract_words_ = program.max_words();
  msg_word_cap_ = std::numeric_limits<std::int64_t>::max();
  if (congest_words_ > 0) msg_word_cap_ = congest_words_;
  if (phase_contract_words_ > 0) {
    msg_word_cap_ =
        std::min<std::int64_t>(msg_word_cap_, phase_contract_words_);
  }

  // Offer the phase to the installed transport executor AFTER the reset
  // above and with lane_ set, so a forked worker inherits exactly this
  // canonical phase-start state. Fault-armed phases are never offered (the
  // injection hooks run inside shard sweeps, out of the coordinator's sight
  // in a remote worker) and keep the per-slot path: injected drops and
  // corruptions pick victims per canonical slot and rewind slot epochs,
  // which the lane and the speaker index would not re-read.
  lane_ = !fault_armed_;
  PhaseExecutor* exec = phase_executor_;
  const bool dist = exec != nullptr && !fault_armed_ &&
                    exec->begin_phase(*this, program);
  // Unwind guard: a distributed phase that throws anywhere below must tear
  // its workers down (end_phase(success=false)) before the exception leaves
  // run_phase_body, or killed/abandoned worker processes would leak past
  // the phase boundary.
  struct ExecGuard {
    Runtime* rt;
    PhaseExecutor* exec;
    VertexProgram* program;
    void disarm() { exec = nullptr; }
    ~ExecGuard() {
      if (exec != nullptr) exec->end_phase(*rt, *program, /*success=*/false);
    }
  } exec_guard{this, dist ? exec : nullptr, &program};

  std::uint64_t words_before = stats_.words;
  std::uint64_t msgs_before = stats_.messages;
  if (dist) {
    exec->run_sweep(*this, /*is_begin=*/true);
  } else {
    dispatch(Job::kBegin);
  }
  merge_shards();
  stats_.words_per_round.push_back(stats_.words - words_before);
  if (fault_armed_) snapshot_send_lane_and_inject(round_ + 1);

  while (live_ > 0) {
    DVC_ENSURE(round_ < max_rounds,
               program.name() + " exceeded the round cap of " +
                   std::to_string(max_rounds) +
                   " (likely cause: a structural parameter such as the "
                   "arboricity bound is below the graph's true value)");
    ++round_;
    stats_.active_per_round.push_back(live_);
    in_idx_ = 1 - in_idx_;
    arenas_[1 - in_idx_].clear_round();
    // Delivery-boundary integrity check: what this round is about to
    // deliver must match what last round's senders recorded in the lane.
    if (lane_expected_) verify_delivery_checksum();
    words_before = stats_.words;
    msgs_before = stats_.messages;
    const V live_before = live_;
    if (dist) {
      exec->run_sweep(*this, /*is_begin=*/false);
    } else {
      dispatch(Job::kStep);
    }
    merge_shards();
    stats_.words_per_round.push_back(stats_.words - words_before);
    if (fault_armed_) snapshot_send_lane_and_inject(round_ + 1);
    if (watchdog_idle_rounds_ > 0) {
      // Progress = somebody halted or somebody spoke. A phase that does
      // neither for the configured stretch is burning rounds toward the
      // round cap with no signal it will ever converge.
      const bool progressed =
          live_ != live_before || stats_.messages != msgs_before;
      idle_rounds_ = progressed ? 0 : idle_rounds_ + 1;
      if (idle_rounds_ >= watchdog_idle_rounds_) {
        throw watchdog_error(
            "watchdog: " + std::to_string(idle_rounds_) +
                " consecutive rounds without progress (no halts, no "
                "messages) in phase '" + phase_label_ + "' (phase " +
                std::to_string(phase_cur_) + "), round " +
                std::to_string(round_) + " of " + program.name() +
                " -- runaway phase converted to a structural failure",
            phase_label_, phase_cur_, round_, idle_rounds_);
      }
    }
    if (observer_) {
      ProgramScope callback;
      observer_(round_);
    }
  }
  program_ = nullptr;
  stats_.rounds = round_;
  if (dist) {
    // Successful completion: the executor ships per-vertex program state
    // back from the workers and releases them. May throw (a worker died
    // delivering its final state); the guard then issues the idempotent
    // failure teardown.
    exec->end_phase(*this, program, /*success=*/true);
    exec_guard.disarm();
  }
  log_.record(label, stats_);
}

const RunStats& Runtime::run_phase(VertexProgram& program, int max_rounds) {
  return run_phase(program, max_rounds, program.name());
}

// ---------------------------------------------------------------------------
// Fault injection (see sim/fault.hpp and DESIGN.md, "Fault model & recovery")

void Runtime::inject_shard_faults(int shard, int round) {
  // Stall first (a slow shard still computes -- the chaos tests assert a
  // stall is output-invisible), then the fatal kinds.
  if (fault_plan_.fires(FaultKind::kStall, phase_cur_, round, shard)) {
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(
        std::chrono::microseconds(fault_plan_.stall_us));
  }
  if (fault_plan_.fires(FaultKind::kAllocFailure, phase_cur_, round, shard)) {
    // The standard library type, so injected and genuine memory exhaustion
    // share one recovery path through the service's transient classifier.
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
    throw std::bad_alloc{};
  }
  if (fault_plan_.fires(FaultKind::kShardFailure, phase_cur_, round, shard)) {
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
    throw fault_error(
        "injected fault: shard " + std::to_string(shard) +
            " failed entering round " + std::to_string(round) +
            " of phase '" + phase_label_ + "' (phase " +
            std::to_string(phase_cur_) + ")",
        FaultKind::kShardFailure, phase_label_, phase_cur_, round, shard);
  }
}

void Runtime::LaneTotals::add(std::int64_t slot, std::uint64_t slot_hash) {
  ++count;
  xor_slots ^= detail::digest_mix(kLaneSeed, static_cast<std::uint64_t>(slot));
  xor_words ^= slot_hash;
}

std::uint64_t Runtime::lane_hash_slot(const Arena& a, std::int64_t s) const {
  // Order-dependent fold of the payload, bound to its slot: XORed over all
  // fresh slots, any dropped slot or flipped payload bit changes the total.
  const auto si = static_cast<std::size_t>(s);
  const std::size_t sender =
      num_shards_ == 1
          ? 0
          : static_cast<std::size_t>(
                shard_of(g_->slot_owner(g_->mirror_slot(s))));
  const std::int64_t* words = a.words[sender].data() + a.off[si];
  std::uint64_t h = kLaneSeed;
  for (std::uint32_t k = 0; k < a.len[si]; ++k) {
    h = detail::digest_mix(h, std::bit_cast<std::uint64_t>(words[k]));
  }
  return detail::digest_mix(h, static_cast<std::uint64_t>(s));
}

void Runtime::snapshot_send_lane_and_inject(int delivery_round) {
  Arena& out = arenas_[1 - in_idx_];
  const std::int32_t stamp = stamp_base_ + round_;
  // The send side of the checksum lane, taken before anything is injected:
  // every fresh cell of every vertex that spoke. Delivery re-folds the
  // arena itself, so a message missing from either side trips the lane.
  LaneTotals sent;
  for (const auto& speakers : out.speakers) {
    for (const V u : speakers) {
      const std::int64_t base = g_->slot(u, 0);
      for (int p = 0; p < g_->degree(u); ++p) {
        const std::int64_t s = g_->mirror_slot(base + p);
        if (out.epoch[s] == stamp) sent.add(s, lane_hash_slot(out, s));
      }
    }
  }
  lane_expected_ = sent;
  // Message-level faults are keyed on (phase, delivery round) alone and
  // pick their victim by canonical slot id, so the same plan injects the
  // same fault at any shard count.
  const bool drop = fault_plan_.fires(FaultKind::kMessageDrop, phase_cur_,
                                      delivery_round, /*shard=*/-1);
  const bool corrupt = fault_plan_.fires(FaultKind::kMessageCorrupt,
                                         phase_cur_, delivery_round,
                                         /*shard=*/-1);
  if (!drop && !corrupt) return;
  std::vector<std::int64_t> fresh;  // fault path only; allocation is fine
  for (std::int64_t s = 0; s < g_->num_slots(); ++s) {
    if (out.epoch[s] == stamp) fresh.push_back(s);
  }
  if (fresh.empty()) return;
  std::size_t dropped = fresh.size();  // sentinel: nothing dropped
  if (drop) {
    const std::uint64_t h = fault_plan_.decision_hash(
        FaultKind::kMessageDrop, phase_cur_, delivery_round, /*shard=*/-2);
    dropped = static_cast<std::size_t>(h % fresh.size());
    // Rewinding the epoch un-sends the message: the delivery sweep wants
    // exactly `stamp`, and `stamp - 1` can never be a live stamp for this
    // arena (its previous stamps are at least 2 behind).
    out.epoch[fresh[dropped]] = stamp - 1;
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
  }
  if (corrupt) {
    const std::uint64_t h = fault_plan_.decision_hash(
        FaultKind::kMessageCorrupt, phase_cur_, delivery_round, /*shard=*/-2);
    for (std::size_t k = 0; k < fresh.size(); ++k) {
      const std::size_t idx = static_cast<std::size_t>((h + k) % fresh.size());
      if (idx == dropped) continue;  // corrupting a dropped slot is invisible
      const std::int64_t s = fresh[idx];
      const auto si = static_cast<std::size_t>(s);
      if (out.len[si] == 0) continue;  // zero-word message: no bit to flip
      const std::size_t sender =
          num_shards_ == 1
              ? 0
              : static_cast<std::size_t>(
                    shard_of(g_->slot_owner(g_->mirror_slot(s))));
      const std::size_t word =
          static_cast<std::size_t>((h >> 17) % out.len[si]);
      // XOR with a nonzero mask: the payload word provably changes.
      out.words[sender][out.off[si] + word] ^=
          static_cast<std::int64_t>(h | 1);
      faults_injected_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
  }
}

void Runtime::verify_delivery_checksum() {
  const LaneTotals sent = *lane_expected_;
  lane_expected_.reset();
  const Arena& in = arenas_[in_idx_];
  const std::int32_t want = stamp_base_ + round_ - 1;
  LaneTotals seen;
  for (std::int64_t s = 0; s < g_->num_slots(); ++s) {
    if (in.epoch[s] == want) seen.add(s, lane_hash_slot(in, s));
  }
  if (seen != sent) {
    std::string what =
        "message checksum lane mismatch at the delivery boundary of round " +
        std::to_string(round_) + " in phase '" + phase_label_ + "' (phase " +
        std::to_string(phase_cur_) + "): senders recorded " +
        std::to_string(sent.count) + " messages, delivery observes " +
        std::to_string(seen.count);
    what += seen.count == sent.count
                ? " with a payload/slot hash mismatch -- a message was "
                  "corrupted in the mailbox"
                : " -- a message was dropped in the mailbox";
    throw corruption_error(what, phase_label_, phase_cur_, round_, sent.count,
                           seen.count);
  }
}

// ---------------------------------------------------------------------------
// Phase-boundary checkpoint/resume

std::vector<std::uint8_t> Runtime::checkpoint() const {
  DVC_REQUIRE(replay_target_.empty(),
              "checkpoint while an earlier resume is still replaying -- the "
              "prefix under verification is not yet trustworthy");
  wire::ByteWriter w;
  // The fixed header (40 bytes) plus a trailer; the reserve also keeps
  // GCC 12's -Wstringop-overflow from misreading the first append.
  w.buf.reserve(64);
  w.u64(kCkptMagic);
  w.u32(kCkptVersion);
  // Graph binding fingerprint: a checkpoint only resumes onto a session for
  // the same graph (digest + shape double-check).
  w.u64(g_->digest());
  w.i64(static_cast<std::int64_t>(g_->num_vertices()));
  w.i64(g_->num_slots());
  w.i32(congest_words_);
  log_.save(w);
  w.u64(wire::checksum64(kCkptMagic, w.buf));
  return std::move(w.buf);
}

void Runtime::resume(std::span<const std::uint8_t> buffer) {
  DVC_REQUIRE(log_.empty(),
              "resume requires an empty session log (fresh session, or "
              "reset_log first)");
  DVC_REQUIRE(buffer.size() >= 8 + 4 + 8,
              "resume buffer is too small to be a checkpoint");
  // Verify the trailing content checksum before trusting a single field.
  const std::span<const std::uint8_t> body = buffer.first(buffer.size() - 8);
  const std::uint64_t want_sum =
      wire::ByteReader{buffer.last(8), 0, "checkpoint trailer"}.u64();
  if (wire::checksum64(kCkptMagic, body) != want_sum) {
    throw corruption_error(
        "checkpoint buffer failed its content checksum -- the bytes were "
        "corrupted between checkpoint() and resume()",
        /*phase_label=*/"", /*phase=*/-1, /*round=*/-1, 0, 0);
  }
  wire::ByteReader r{body, 0, "checkpoint buffer"};
  if (r.u64() != kCkptMagic) {
    throw precondition_error("resume: buffer is not a dvc checkpoint");
  }
  const std::uint32_t version = r.u32();
  DVC_REQUIRE(version == kCkptVersion,
              "resume: unsupported checkpoint version " +
                  std::to_string(version));
  DVC_REQUIRE(r.u64() == g_->digest(),
              "resume: checkpoint was taken for a different graph (digest "
              "mismatch)");
  DVC_REQUIRE(r.i64() == static_cast<std::int64_t>(g_->num_vertices()),
              "resume: vertex count mismatch");
  DVC_REQUIRE(r.i64() == g_->num_slots(), "resume: slot count mismatch");
  // Parsed into locals and committed only after the last check: a rejected
  // buffer leaves the session as it was.
  const int congest_words = r.i32();
  PhaseLog target = PhaseLog::load(r);
  DVC_REQUIRE(r.pos == body.size(),
              "resume: trailing bytes after the checkpoint payload");
  congest_words_ = congest_words;
  replay_target_ = std::move(target);
  replay_checked_ = 0;
}

void Runtime::check_replay() {
  if (replay_target_.empty()) return;
  const std::size_t end = std::min(log_.size(), replay_target_.size());
  for (; replay_checked_ < end; ++replay_checked_) {
    const std::size_t i = replay_checked_;
    const PhaseLog::Entry& got = log_[i];
    const PhaseLog::Entry& want = replay_target_[i];
    std::string what;
    if (log_.name(got) != replay_target_.name(want)) {
      what = "expected phase '" + std::string(replay_target_.name(want)) + "'";
    } else if (got.span != want.span) {
      what = want.span ? "expected an aggregate span here"
                       : "expected a leaf phase here";
    } else if (got.depth != want.depth) {
      what = "nesting depth " + std::to_string(got.depth) +
             " != checkpointed " + std::to_string(want.depth);
    } else if (!got.span && !(log_.stats(i) == replay_target_.stats(i))) {
      // A span's counters are a fold of its (verified) leaves, and an open
      // span's are not final yet: spans are matched on shape only.
      what = "counters or per-round series differ from the checkpoint";
    }
    if (!what.empty()) {
      throw invariant_error(
          "checkpoint replay diverged at log entry " + std::to_string(i) +
          " ('" + std::string(log_.name(got)) + "'): " + what +
          " -- the resumed run is not bit-identical to the checkpointed run "
          "(different knobs, graph, or nondeterminism)");
    }
  }
  // The checkpointed prefix is fully re-verified; the rest of the run is
  // new ground.
  if (replay_checked_ == replay_target_.size()) {
    replay_target_ = PhaseLog{};
    replay_checked_ = 0;
  }
}

Runtime::MemoryBreakdown Runtime::memory_breakdown() const {
  MemoryBreakdown mb;
  const auto slots = static_cast<std::uint64_t>(g_->num_slots());
  // Two arenas of slot-indexed epoch/off/len.
  mb.arena_bytes =
      2 * slots * (sizeof(std::int32_t) + 2 * sizeof(std::uint32_t));
  for (const Arena& arena : arenas_) {
    for (const auto& w : arena.words) {
      mb.payload_bytes += w.capacity() * sizeof(std::int64_t);
    }
    for (const auto& sp : arena.speakers) {
      mb.index_bytes += sp.capacity() * sizeof(V);
    }
    mb.vertex_bytes +=
        static_cast<std::uint64_t>(g_->num_vertices()) * sizeof(SenderRecord);
  }
  mb.vertex_bytes += halted_.capacity();
  for (const Shard& sh : shards_) {
    mb.index_bytes += sh.live.capacity() * sizeof(V);
    mb.index_bytes += sh.grouped.capacity() * sizeof(std::uint32_t);
    for (const auto& s : sh.scratch) {
      mb.index_bytes += s.capacity() * sizeof(std::int64_t);
    }
    mb.index_bytes += sh.inbox.msgs_.capacity() * sizeof(MsgView);
  }
  return mb;
}

int default_round_cap(V n, int scale) {
  const int logn = ilog2_ceil(static_cast<std::uint64_t>(std::max<V>(n, 2)));
  return 64 * logn * std::max(1, scale) + 256;
}

}  // namespace dvc::sim
