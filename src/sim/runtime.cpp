#include "sim/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <ranges>
#include <utility>

#include "common/check.hpp"
#include "common/math.hpp"

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

/// wake_ value of a vertex that is stepped every round.
constexpr std::int32_t kAwake = 0;

/// Sorts after every vertex in the step sweep's merge.
constexpr V kNoVertex = std::numeric_limits<V>::max();

constexpr std::uint64_t timer_key(std::int32_t round, V v) {
  return static_cast<std::uint64_t>(round) << 32 | static_cast<std::uint32_t>(v);
}
constexpr std::int32_t timer_round(std::uint64_t key) {
  return static_cast<std::int32_t>(key >> 32);
}
constexpr V timer_vertex(std::uint64_t key) {
  return static_cast<V>(key & 0xffffffffu);
}
void pop_timer(std::vector<std::uint64_t>& heap) {
  std::ranges::pop_heap(heap, std::greater<>{});
  heap.pop_back();
}

/// Grouped-delivery keys (see Runtime::Shard::grouped).
constexpr std::uint64_t grouped_key(V receiver, std::int64_t slot) {
  return static_cast<std::uint64_t>(receiver) << 32 |
         static_cast<std::uint32_t>(slot);
}
constexpr V grouped_receiver(std::uint64_t key) {
  return static_cast<V>(key >> 32);
}
constexpr std::size_t grouped_slot(std::uint64_t key) {
  return static_cast<std::size_t>(key & 0xffffffffu);
}

constexpr const char* kOneMessagePerEdge =
    "at most one message per edge-direction per round (LOCAL model)";

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

void Ctx::sleep_until(int round) { rt_->do_sleep(v_, round); }

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
  wake_.assign(static_cast<std::size_t>(n), kAwake);
  for (int i = 0; i < num_shards_; ++i) {
    // Live, awake and speaker lists hold at most the shard's vertex range,
    // the timer heap twice that (see push_timer), the grouped workspace at
    // most (slot range) / kGroupedDeliveryFactor (see Shard::grouped).
    // Inboxes hold at most the shard's max degree.
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
    sh.awake.reserve(range);
    sh.awake_next.reserve(range);
    sh.timers.reserve(2 * range + 2);
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
    Shard& sh = shards_[static_cast<std::size_t>(shard)];
    ++sh.newly_halted;
    // Wraps during begin(); the begin sweep recomputes the sum afterwards.
    sh.live_ports -= static_cast<std::uint64_t>(g_->degree(v));
  }
}

void Runtime::do_sleep(V v, int round) {
  DVC_REQUIRE(round > round_,
              "sleep_until takes a round after the current one, or kUntilMail");
  wake_[static_cast<std::size_t>(v)] = round;
}

bool Runtime::settle(Shard& sh, V v, std::int32_t prev) {
  std::int32_t& wake = wake_[static_cast<std::size_t>(v)];
  if (halted_[static_cast<std::size_t>(v)]) {
    wake = kAwake;  // no pending key can match
    return false;
  }
  if (wake == kAwake) return true;
  if (wake != Ctx::kUntilMail && wake != prev) push_timer(sh, v, wake);
  return false;
}

void Runtime::push_timer(Shard& sh, V v, std::int32_t round) {
  auto& heap = sh.timers;
  if (heap.size() == heap.capacity()) {
    // Full: keep only keys whose vertex still sleeps toward them, once
    // each. That is at most one per vertex of the shard -- half the
    // reserve -- so the push below never reallocates. Sorted ascending is
    // already a min-heap.
    std::erase_if(heap, [&](std::uint64_t key) {
      return wake_[static_cast<std::size_t>(timer_vertex(key))] !=
             timer_round(key);
    });
    std::ranges::sort(heap);
    heap.erase(std::unique(heap.begin(), heap.end()), heap.end());
  }
  heap.push_back(timer_key(round, v));
  std::ranges::push_heap(heap, std::greater<>{});
}

void Runtime::run_shard_phase(int shard, VertexProgram& program, bool is_begin) {
  Shard& sh = shards_[static_cast<std::size_t>(shard)];
  try {
    if (fault_armed_) inject_shard_faults(shard, round_);
    if (is_begin) {
      for (V v = sh.first; v < sh.last; ++v) {
        wake_[static_cast<std::size_t>(v)] = kAwake;
        Ctx ctx(*this, shard, v);
        ++sh.work_items;
        ProgramScope callback;
        program.begin(ctx);
      }
      // Seed the live and awake lists and the timers from the one
      // post-begin sweep; from here on the step sweeps maintain them.
      sh.live.clear();
      sh.live_ports = 0;
      sh.awake.clear();
      sh.timers.clear();
      for (V v = sh.first; v < sh.last; ++v) {
        if (halted_[static_cast<std::size_t>(v)]) continue;
        sh.live.push_back(v);
        sh.live_ports += static_cast<std::uint64_t>(g_->degree(v));
        if (settle(sh, v, kAwake)) sh.awake.push_back(v);
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
  // broadcaster, the freshly stamped cells of a port sender. Mail to a
  // halted receiver is dropped here, so neither the sort nor the sweep
  // sees it. Sorting the keys groups them by receiver in canonical port
  // order.
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
        if (halted_[static_cast<std::size_t>(*it)]) continue;
        const std::int64_t s = g_->mirror_slot(base + (it - row.begin()));
        if (bcast || in.epoch[s] == want) {
          sh.grouped.push_back(grouped_key(*it, s));
        }
      }
    }
  }
  std::ranges::sort(sh.grouped);
}

void Runtime::step_sweep(int shard, VertexProgram& program) {
  Shard& sh = shards_[static_cast<std::size_t>(shard)];
  const Arena& in = arenas_[in_idx_];
  const std::int32_t want = stamp_base_ + round_ - 1;
  const bool grouped = spoken_ports_ * kGroupedDeliveryFactor <= sh.live_ports;
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
  // arena. Runs once per scanned port. Left to itself GCC 12.2 emits it out
  // of line, and that call per port made the rmat16-polylog-s1 benchmark's
  // coloring 14% slower (median of 10 runs, 4-vCPU Xeon).
  const auto take = [&](int p, V u, std::size_t s)
                        __attribute__((always_inline)) {
    const SenderRecord& rec = in.record[static_cast<std::size_t>(u)];
    if (rec.bcast_stamp == want) {
      inbox.msgs_.push_back(MsgView{
          p, std::span<const std::int64_t>(words_of(u) + rec.off, rec.len)});
      return;
    }
    if (rec.port_stamp != want || in.epoch[s] != want) return;
    inbox.msgs_.push_back(MsgView{
        p, std::span<const std::int64_t>(words_of(u) + in.off[s], in.len[s])});
  };
  // Steps v on the assembled inbox (v woke up: `prev` is the wake_ value it
  // slept with) and files it in next round's awake list if it stays awake.
  sh.awake_next.clear();
  const auto step = [&](V v, std::int32_t prev) {
    sh.work_items += 1 + inbox.msgs_.size();
    wake_[static_cast<std::size_t>(v)] = kAwake;
    {
      Ctx ctx(*this, shard, v);
      ProgramScope callback;
      program.step(ctx, inbox);
    }
    if (settle(sh, v, prev)) sh.awake_next.push_back(v);
  };

  if (grouped) {
    // Visit, in ascending order, the union of three ascending sequences:
    // the awake list, this round's timed wake-ups (the heap yields them by
    // vertex) and the receivers of the sorted grouped keys, none of them
    // halted. The live list is not touched.
    std::size_t ai = 0;
    std::size_t cursor = 0;
    for (;;) {
      V due = kNoVertex;
      while (!sh.timers.empty() && timer_round(sh.timers.front()) <= round_) {
        const std::uint64_t key = sh.timers.front();
        if (wake_[static_cast<std::size_t>(timer_vertex(key))] ==
            timer_round(key)) {
          due = timer_vertex(key);
          break;
        }
        pop_timer(sh.timers);  // its vertex woke earlier or sleeps toward another
      }
      V v = std::min(ai < sh.awake.size() ? sh.awake[ai] : kNoVertex, due);
      if (cursor < sh.grouped.size()) {
        v = std::min(v, grouped_receiver(sh.grouped[cursor]));
      }
      if (v == kNoVertex) break;
      if (ai < sh.awake.size() && sh.awake[ai] == v) ++ai;
      if (v == due) pop_timer(sh.timers);
      inbox.msgs_.clear();
      su = 0;
      const auto row = g_->neighbors(v);
      const auto base = static_cast<std::size_t>(g_->slot(v, 0));
      for (; cursor < sh.grouped.size() &&
             grouped_receiver(sh.grouped[cursor]) == v;
           ++cursor) {
        const std::size_t s = grouped_slot(sh.grouped[cursor]);
        take(static_cast<int>(s - base), row[s - base], s);
      }
      step(v, wake_[static_cast<std::size_t>(v)]);
    }
  } else {
    // Scan every live vertex's ports in canonical order -- mail has to be
    // found -- compacting the list in place: it drops the vertices that
    // halted since the last scan and those that halt now. A sleeper with
    // no mail and no wake-up due is not stepped; due ones are recognized
    // by their wake_ round, so this round's keys are simply dropped.
    while (!sh.timers.empty() && timer_round(sh.timers.front()) <= round_) {
      pop_timer(sh.timers);
    }
    std::size_t w = 0;
    const std::size_t live_count = sh.live.size();
    for (std::size_t i = 0; i < live_count; ++i) {
      const V v = sh.live[i];
      if (halted_[static_cast<std::size_t>(v)]) continue;
      inbox.msgs_.clear();
      su = 0;
      const auto row = g_->neighbors(v);
      const auto base = static_cast<std::size_t>(g_->slot(v, 0));
      for (std::size_t p = 0; p < row.size(); ++p) {
        take(static_cast<int>(p), row[p], base + p);
      }
      const std::int32_t prev = wake_[static_cast<std::size_t>(v)];
      if (prev == kAwake || prev == round_ || !inbox.msgs_.empty()) {
        step(v, prev);
      }
      if (!halted_[static_cast<std::size_t>(v)]) sh.live[w++] = v;
    }
    sh.live.resize(w);
  }
  std::swap(sh.awake, sh.awake_next);
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
  // above, so a forked worker inherits exactly this canonical phase-start
  // state. Fault-armed phases are never offered: shard faults fire inside
  // the sweep, and a remote worker would hand a fault_error back only as a
  // plain transient_error, losing the kind, phase and shard it carries.
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

// ---------------------------------------------------------------------------
// Replay against a held log

void Runtime::resume(PhaseLog target) {
  DVC_REQUIRE(log_.empty(),
              "resume requires an empty session log (fresh session, or "
              "reset_log first)");
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
             " != replayed " + std::to_string(want.depth);
    } else if (!got.span && !(log_.stats(i) == replay_target_.stats(i))) {
      // A span's counters are a fold of its (verified) leaves, and an open
      // span's are not final yet: spans are matched on shape only.
      what = "counters or per-round series differ from the replayed log";
    }
    if (!what.empty()) {
      throw invariant_error(
          "checkpoint replay diverged at log entry " + std::to_string(i) +
          " ('" + std::string(log_.name(got)) + "'): " + what +
          " -- the resumed run is not bit-identical to the replayed run "
          "(different knobs, graph, or nondeterminism)");
    }
  }
  // The replayed prefix is fully re-verified; the rest of the run is new
  // ground.
  if (replay_checked_ == replay_target_.size()) replay_target_ = PhaseLog{};
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
  mb.vertex_bytes += wake_.capacity() * sizeof(std::int32_t);
  for (const Shard& sh : shards_) {
    mb.index_bytes += sh.live.capacity() * sizeof(V);
    mb.index_bytes +=
        (sh.awake.capacity() + sh.awake_next.capacity()) * sizeof(V);
    mb.index_bytes += sh.timers.capacity() * sizeof(std::uint64_t);
    mb.index_bytes += sh.grouped.capacity() * sizeof(std::uint64_t);
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
