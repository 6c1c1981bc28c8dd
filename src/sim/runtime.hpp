// Persistent LOCAL-model runtime (the paper's Section 1 machine model).
//
// Each vertex hosts a processor that knows only its own id (= vertex + 1,
// ids in {1..n}), its degree, and its port numbering. Computation proceeds
// in discrete rounds: every message sent in round r is delivered at the
// start of round r+1. The runtime counts rounds, messages and payload words;
// the round count of a run is exactly the paper's "running time".
//
// Programs are written against the VertexProgram interface:
//   * begin(ctx)         -- local initialization; may send and/or halt.
//   * step(ctx, inbox)   -- called once per round for every non-halted
//                           vertex with the messages delivered this round,
//                           unless the vertex sleeps (below).
//
// A vertex that halts stops participating; a phase ends when every vertex
// has halted (stats.rounds then equals the number of communication rounds
// consumed) or throws when max_rounds is exceeded. A vertex that calls
// ctx.sleep_until(r) (in begin or step) is not stepped again until a
// message reaches it or round r comes (Ctx::kUntilMail: only mail wakes
// it). Sleeping is not halting: the vertex still counts as live in
// active_per_round and keeps its phase running; only work_items, which
// counts activations, sees the skipped steps. A program may sleep only
// where its step with an empty inbox would change nothing.
//
// Session architecture (see DESIGN.md, "Runtime sessions"): the paper's
// algorithms are long *compositions* of phases -- Algorithm 2 chains
// arbdefective refinement, H-partition, layer coloring, orientation and
// greedy sweeps. A Runtime is the session object for one such pipeline: it
// owns the graph binding, both mailbox arenas, the halted/live state and
// the parked shard thread pool, and `run_phase(program, max_rounds, label)`
// resets per-phase state WITHOUT freeing memory. An entire preset pipeline
// therefore performs heap allocation only while warming up its first
// phase(s) and never re-spawns threads at a phase boundary. Every completed
// phase is recorded in the session's PhaseLog, a flat arena-backed tree of
// named spans that replaces the hand-maintained `phases` bookkeeping the
// algorithm drivers used to carry.
//
// Mailbox architecture: messages travel through a double-buffered arena in
// two lanes. A broadcast -- the paper's workhorse, one O(log n)-bit value to
// every neighbor -- is written ONCE: its payload words go to the sending
// shard's flat word buffer and the sender's own per-vertex record is stamped
// with their location (the broadcast lane). A send on (v, port) lands in the
// mirror slot's inbox cell via the Graph's O(1) mirror map (the slot lane).
// There is no per-message heap allocation and no per-round sorting of the
// arena itself. A vertex may send at most one message per incident edge per
// round (the standard LOCAL convention): a second send on a port, a second
// broadcast, or a broadcast plus a port send throws invariant_error.
//
// The executor (see DESIGN.md, "The executor"): the paper's Section 1.4
// observation that "all vertices are active at (almost) all times" holds
// for the headline presets as a whole, but most individual sub-phases
// (layer peeling, greedy sweeps, refinement tails) spend the bulk of their
// rounds with a small, shrinking live set, and inside a phase most live
// vertices only wait (for a color class's turn, for their parents). Each
// round is therefore driven by the vertices that can act: every shard keeps
// a canonically ordered live-vertex list and an awake list (live vertices
// that do not sleep), plus a heap of timed wake-ups, and each round
// assembles inboxes in one of two delivery modes -- a port scan over the
// live vertices' ports, reading each neighbor's record and then the slot
// arena (message-dense rounds; a sleeper with no mail and no wake-up due is
// not stepped), or grouped delivery that walks each speaker's sorted
// adjacency row over the receiving shard's vertex range and steps only the
// ascending merge of those receivers, the awake list and this round's
// wake-ups (sparse rounds). A port-scan round costs O(live ports); a
// grouped round O(awake + due + messages). Both modes are bit-identical in
// outputs, RunStats and PhaseLog.
//
// Sharded execution: the vertex set is split into `shards` contiguous blocks
// of equal round work (degree plus a per-vertex constant, see kVertexCost);
// each round, shards step their vertices concurrently and write into
// per-shard arenas that are merged in canonical slot order (implicitly:
// every inbox cell has a unique writer, so the merge is free). RunStats and
// all program outputs are bit-identical for every shard count.
//
// CONGEST accounting (see DESIGN.md, "CONGEST accounting"): the paper's
// algorithms run with O(log n)-bit messages, so beyond counting rounds the
// runtime meters bandwidth. Every send records its payload width; RunStats
// and the PhaseLog carry the total word volume, the widest single message
// (`max_msg_words`) and a per-round word series. Two independent caps bound
// message width, and exceeding either raises a structured bandwidth_error
// naming the offending vertex, port and round:
//   * the session budget (`set_congest_words`; 0 = unlimited = LOCAL), and
//   * the program's own declared contract (VertexProgram::max_words),
//     enforced on every run so a program can never silently exceed the
//     width it advertises.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <initializer_list>
#include <limits>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "graph/graph.hpp"
#include "sim/fault.hpp"
#include "sim/phase_log.hpp"

namespace dvc::dist {
struct RuntimeAccess;  // distributed transport's window into the session
}

namespace dvc::sim {

/// Raised when a message's payload exceeds the CONGEST word cap in force
/// for the phase -- the session budget (Runtime::set_congest_words) or the
/// program's own declared contract (VertexProgram::max_words), whichever is
/// tighter. Structured so tests and callers can attribute the violation
/// mechanically. Derives from invariant_error: exceeding the bandwidth of
/// the simulated model is a structural violation, like exceeding a round
/// cap.
class bandwidth_error : public invariant_error {
 public:
  bandwidth_error(const std::string& what, V vertex, int port, int round,
                  std::int64_t words, std::int64_t cap, bool from_contract)
      : invariant_error(what),
        vertex(vertex),
        port(port),
        round(round),
        words(words),
        cap(cap),
        from_contract(from_contract) {}

  V vertex;            ///< sending vertex (0-based)
  int port;            ///< sending port
  int round;           ///< round the send was issued in (0 = begin)
  std::int64_t words;  ///< offending payload width
  std::int64_t cap;    ///< the violated per-message word cap
  bool from_contract;  ///< true: program max_words(); false: session budget
};

// ---------------------------------------------------------------------------
// Round-cap constants, audited across all drivers. Caps only bound the
// round loop (exceeding one throws invariant_error); they never change a
// program's output, so generosity is free.

/// Cap for one-shot exchange programs (broadcast in begin, respond once in
/// step, halt): 2 communication rounds plus slack.
inline constexpr int kOneExchangeRoundCap = 4;

/// Additive slack for schedule-driven programs whose exact round count is
/// known up front (cap = exact + kRoundCapSlack).
inline constexpr int kRoundCapSlack = 8;

/// Generous default round cap for open-ended drivers: c1 * log2(n) * scale
/// + c2.
int default_round_cap(V n, int scale = 1);

/// One received message: the port it arrived on and its payload words.
/// The data span points into the runtime's arena and is valid only for the
/// duration of the step() call that receives it.
struct MsgView {
  int port;
  std::span<const std::int64_t> data;
};

/// The messages a vertex received at the start of the current round,
/// ordered by arrival port.
class Inbox {
 public:
  std::size_t size() const { return msgs_.size(); }
  bool empty() const { return msgs_.empty(); }
  const MsgView& operator[](std::size_t i) const { return msgs_[i]; }
  auto begin() const { return msgs_.begin(); }
  auto end() const { return msgs_.end(); }

 private:
  friend class Runtime;
  std::vector<MsgView> msgs_;
};

class Runtime;

/// Per-vertex API handed to VertexProgram callbacks.
class Ctx {
 public:
  V vertex() const { return v_; }
  /// Unique identity in {1..n} as assumed by the paper.
  std::int64_t id() const { return v_ + 1; }
  int degree() const;
  int round() const;

  /// Sends `payload` to the neighbor on `port`. Zero-copy into the mailbox
  /// arena: the words are copied once, directly into the receiver's inbox
  /// cell. At most one send per port per round, and none after a broadcast.
  void send(int port, std::span<const std::int64_t> payload);
  /// Fixed-word fast path: `ctx.send(p, {a, b, c})` stages the words on the
  /// caller's stack, no heap traffic.
  void send(int port, std::initializer_list<std::int64_t> payload) {
    send(port, std::span<const std::int64_t>(payload.begin(), payload.size()));
  }
  /// Sends `payload` to every neighbor, accounted as degree() messages but
  /// written once per sender (the broadcast lane). At most one broadcast per
  /// round, and none after a port send; a no-op at degree 0.
  void broadcast(std::span<const std::int64_t> payload);
  void broadcast(std::initializer_list<std::int64_t> payload) {
    broadcast(std::span<const std::int64_t>(payload.begin(), payload.size()));
  }
  void halt();

  /// Puts this vertex to sleep: it is not stepped again until a message
  /// reaches it (stepped in that round with its inbox) or round `round`
  /// comes (stepped with whatever arrived). kUntilMail waits for mail
  /// alone. `round` must be after the current one; the latest call in a
  /// begin or step wins, and every step starts awake. Allowed in begin.
  /// Sleeping changes no output: the program promises that a step of this
  /// vertex with an empty inbox before `round` would change nothing.
  void sleep_until(int round);
  static constexpr int kUntilMail = std::numeric_limits<int>::max();

  /// Runtime-owned scratch buffer (cleared by nobody: callers .clear() it).
  /// One instance per executor shard, so programs that need transient
  /// per-step workspace stay allocation-free AND race-free under sharded
  /// execution. `which` selects one of kNumScratch independent buffers.
  std::vector<std::int64_t>& scratch(int which = 0);

  static constexpr int kNumScratch = 2;

 private:
  friend class Runtime;
  Ctx(Runtime& rt, int shard, V v) : rt_(&rt), shard_(shard), v_(v) {}
  Runtime* rt_;
  int shard_;
  V v_;
};

/// One column of a dist-capable program's state: fixed-width rows of
/// `row_bytes` bytes from `base`, one row per vertex or one per directed
/// slot. A vertex row may hold several elements (a k-wide histogram). A
/// worker owns the rows of its vertex range [lo, hi), and for a slot column
/// the CSR slot range [slot(lo, 0), slot(hi, 0)), which is contiguous.
struct StateColumn {
  enum class Rows : std::uint8_t { kVertex, kSlot };
  void* base = nullptr;
  std::size_t row_bytes = 0;
  Rows rows = Rows::kVertex;

  template <typename T>
  static StateColumn vertex(T* base, std::size_t width = 1) {
    return {base, width * sizeof(T), Rows::kVertex};
  }
  template <typename T>
  static StateColumn slot(T* base) {
    return {base, sizeof(T), Rows::kSlot};
  }
};

class VertexProgram {
 public:
  virtual ~VertexProgram() = default;
  virtual std::string name() const = 0;
  virtual void begin(Ctx& ctx) { (void)ctx; }
  virtual void step(Ctx& ctx, const Inbox& inbox) = 0;

  /// CONGEST contract: the worst-case payload width, in words, of any
  /// message this program ever sends (each word carries one O(log n)-bit
  /// quantity -- an id, color, level or key -- so a constant here means the
  /// program is a CONGEST algorithm). 0 = undeclared: no program-side cap,
  /// i.e. the LOCAL model. When positive the runtime enforces it on every
  /// send; a wider payload raises bandwidth_error, making the declared
  /// contract mechanically checked on every run.
  virtual int max_words() const { return 0; }

  /// Distribution contract (see src/dist/): a dist-capable program promises
  /// that begin(v)/step(v) mutate only v-owned state -- per-vertex or
  /// per-v's-slot entries, including driver-owned arrays reached through
  /// pointers -- which is exactly the race-freedom contract sharded
  /// execution already demands. Under that promise a worker process that
  /// owns v's shard computes v's state correctly in isolation. All of that
  /// state must live in the flat columns state_columns() declares: at the
  /// phase boundary each worker ships its owned rows of every column back
  /// to the coordinator, one bulk copy per column. Programs that do not opt
  /// in run their phases locally on the coordinator (still bit-identical,
  /// just not distributed).
  virtual bool dist_capable() const { return false; }
  /// Every mutable of a dist-capable program, as flat columns (none for a
  /// stateless one). Read at each distributed phase's end, by every worker
  /// and by the coordinator; the columns must not move during the phase.
  virtual std::vector<StateColumn> state_columns() { return {}; }
};

class Runtime;

/// Seam between the round loop and the distributed transport (src/dist/):
/// run_phase_body offers each phase to the installed executor; an accepting
/// executor replaces the two shard-pool dispatches (begin sweep, step
/// sweeps) with its own -- worker processes sweeping their shard partitions
/// and exchanging arena words through a transport -- while the coordinator's
/// own merge/stats/PhaseLog machinery runs unchanged. Bit-identity of a
/// distributed phase is therefore structural: the executor's only output
/// channel is the same per-shard counters and arena cells an in-process
/// sweep fills.
class PhaseExecutor {
 public:
  virtual ~PhaseExecutor() = default;
  /// Offered a phase AFTER the per-phase reset (halted/live/round/arena
  /// state is at its canonical phase-start value -- everything a forked
  /// worker must inherit). Return false to decline: the runtime runs the
  /// phase on its own shards. fault-armed phases are never offered.
  virtual bool begin_phase(Runtime& rt, VertexProgram& program) = 0;
  /// Replaces dispatch(kBegin/kStep): on return, shards_[i] counters must
  /// hold the sweep's per-shard deltas (merge_shards folds and resets them)
  /// and the out-arena cells owned by this runtime must reflect every
  /// message addressed to them.
  virtual void run_sweep(Runtime& rt, bool is_begin) = 0;
  /// Phase teardown. success=true: all rounds completed -- write program
  /// state back and release workers (may throw; a throw is followed by a
  /// success=false call, which must be idempotent). success=false: the
  /// phase is unwinding -- kill/reap workers, never throw.
  virtual void end_phase(Runtime& rt, VertexProgram& program,
                         bool success) = 0;
};

/// Persistent simulation session bound to one graph. Construction allocates
/// the mailbox arenas and spawns the shard worker pool once; every
/// run_phase() call afterwards reuses them, so phases after the first (of a
/// given shape) allocate nothing and no phase boundary ever spawns a
/// thread. All completed phases are appended to the session PhaseLog.
class Runtime {
 public:
  /// `shards` <= 0 (the default) means one shard; shard counts above n are
  /// clamped. Shards are contiguous vertex blocks cut at equal prefix cost
  /// sum(degree(v) + kVertexCost), a pure function of (graph, shards); any
  /// shard count yields bit-identical RunStats and program outputs.
  /// `inline_shards` keeps the same shard decomposition but
  /// spawns NO worker threads: multi-shard sweeps run sequentially on the
  /// calling thread (bit-identical, per the shard-determinism contract).
  /// Required for sessions that will host the distributed transport -- its
  /// fork()-based backend must not fork a multithreaded process.
  explicit Runtime(const Graph& g, int shards = 0, bool inline_shards = false);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Runs the program to completion (all vertices halted), records a leaf
  /// entry labelled `label` in the session log, and returns the phase's
  /// stats (valid until the next run_phase call). Throws invariant_error if
  /// max_rounds is exceeded -- which the library treats as "the algorithm's
  /// structural assumption was violated" (e.g. an arboricity bound below
  /// the true arboricity).
  const RunStats& run_phase(VertexProgram& program, int max_rounds,
                            std::string_view label);
  /// Convenience: labels the phase with program.name().
  const RunStats& run_phase(VertexProgram& program, int max_rounds);

  const Graph& graph() const { return *g_; }
  int shards() const { return num_shards_; }
  /// The shard partition the session uses: shards() + 1 ascending vertex
  /// ids, shard i owning [bounds[i], bounds[i + 1]). Read-only.
  std::span<const V> shard_bounds() const { return bounds_; }
  /// Round work of one vertex beyond its ports, in port units, that the
  /// partition balances (measured in DESIGN.md, "Sharded execution").
  static constexpr std::int64_t kVertexCost = 8;

  /// Session-level CONGEST budget: maximum payload width (words) of any
  /// single message, enforced on subsequent run_phase calls. 0 = unlimited
  /// (the LOCAL model; the default). A send wider than the budget -- or
  /// wider than the running program's own max_words() contract, whichever
  /// is tighter -- raises bandwidth_error identifying vertex/port/round.
  void set_congest_words(int words) { congest_words_ = words < 0 ? 0 : words; }
  int congest_words() const { return congest_words_; }

  PhaseLog& log() { return log_; }
  const PhaseLog& log() const { return log_; }
  /// Forgets recorded phases but keeps log arena capacity (warm reuse
  /// across pipeline repetitions, e.g. batched runs). Also restarts the
  /// phase counter, so fault-plan phase indices and phase-label context
  /// describe positions in the CURRENT pipeline -- a warm pooled session
  /// behaves exactly like a fresh one (the bit-identity contract). An
  /// unfinished replay (see resume) is dropped with the run it verified.
  void reset_log() {
    log_.clear();
    replay_target_ = PhaseLog{};
    replay_checked_ = 0;
    phase_index_ = 0;
    phase_cur_ = 0;
    phase_label_.clear();
  }

  /// Called after every completed round (post stats merge) with the round
  /// number; used by tests to probe per-round behaviour such as allocation
  /// counts. Pass nullptr to clear.
  void set_round_observer(std::function<void(int)> observer) {
    observer_ = std::move(observer);
  }

  /// Per-session interrupt hook, polled at every PHASE boundary -- the top
  /// of run_phase, before any phase state is touched. The hook aborts the
  /// pipeline by THROWING; the exception propagates out of run_phase and the
  /// session stays structurally sound and reusable, exactly as after a
  /// program error (the service layer points the hook at a job's
  /// cancellation token and deadline, so a cancelled or expired multi-phase
  /// pipeline is abandoned between phases and its session returns to the
  /// pool). Never polled mid-round: a phase that starts always runs to
  /// completion, so the hook cannot perturb the determinism of any recorded
  /// phase. Pass nullptr to clear; sessions handed across jobs must clear it
  /// (see ScopedInterrupt).
  void set_interrupt(std::function<void()> hook) { interrupt_ = std::move(hook); }
  bool has_interrupt() const { return static_cast<bool>(interrupt_); }

  /// Installs a deterministic fault schedule for subsequent run_phase calls
  /// (see sim/fault.hpp). Faults fire at shard-sweep entry and reproduce
  /// bit-identically: every decision is a pure hash of (seed, salt, kind,
  /// phase, round, shard). An armed plan (FaultPlan::armed()) changes
  /// nothing else about a phase -- sends, delivery and outputs are those of
  /// an unarmed run -- except that the phase is never offered to the phase
  /// executor (see run_phase_body). Pass a default-constructed plan to
  /// clear; sessions handed across jobs must clear it (see
  /// ScopedFaultPlan).
  void set_fault_plan(FaultPlan plan) {
    fault_plan_ = std::move(plan);
    fault_armed_ = fault_plan_.armed();
  }
  const FaultPlan& fault_plan() const { return fault_plan_; }

  /// Installs (or clears, with nullptr) the phase executor offered every
  /// subsequent run_phase (see PhaseExecutor). Only valid on a session
  /// built with inline_shards = true: the fork backend must never fork a
  /// process carrying parked shard threads, and the loopback backend
  /// matches fork bit-for-bit only when both sweep the shards on one
  /// thread. The executor is borrowed, not owned; it must outlive its
  /// installation.
  void set_phase_executor(PhaseExecutor* exec) {
    DVC_REQUIRE(exec == nullptr || threads_.empty(),
                "set_phase_executor requires an inline-shards session "
                "(Runtime(g, shards, /*inline_shards=*/true)): the fork "
                "transport cannot fork a session with parked shard threads");
    phase_executor_ = exec;
  }
  PhaseExecutor* phase_executor() const { return phase_executor_; }
  /// Count of faults this session has injected (all kinds, all phases).
  std::uint64_t faults_injected() const {
    return faults_injected_.load(std::memory_order_relaxed);
  }

  /// Arms the progress watchdog: if `rounds` > 0 and that many CONSECUTIVE
  /// rounds complete in which no vertex halts and no message is sent, the
  /// phase throws watchdog_error -- converting a runaway program (burning
  /// rounds toward the round cap without any progress signal) into a prompt
  /// structural failure. 0 disables (the default). Deterministic: the
  /// trigger depends only on per-round halt/message counts.
  void set_watchdog_idle_rounds(int rounds) {
    watchdog_idle_rounds_ = rounds < 0 ? 0 : rounds;
  }
  int watchdog_idle_rounds() const { return watchdog_idle_rounds_; }

  /// Label of the most recently started phase (empty before the first
  /// run_phase). Survives a throwing phase, so error handlers can report
  /// which phase of a pipeline failed without parsing messages.
  std::string_view last_phase() const { return phase_label_; }
  /// Number of run_phase calls started on this session (the phase index
  /// fault plans key on: the next phase to run has index phases_run()).
  int phases_run() const { return phase_index_; }

  /// Arms replay verification against `target`, the log of an earlier run
  /// of the same pipeline on the same graph (a retry holds the failed
  /// attempt's log). The caller then re-runs its pipeline from the top, and
  /// as each span opens and after each run_phase every entry the log gained
  /// is verified bit-identical -- name, depth, span flag, and for leaves
  /// counters and per-round series -- against `target` at the same index,
  /// throwing invariant_error on the first divergence. The session must be
  /// freshly constructed or reset_log()'d (precondition_error otherwise).
  void resume(PhaseLog target);
  /// Checks the log entries recorded since the last check against the
  /// log being replayed (see resume) and drops the target once all of it
  /// is verified; a no-op when not replaying. run_phase calls it after
  /// each leaf and PhaseSpan as each span opens. Throws invariant_error on
  /// a mismatch.
  void check_replay();
  /// Entries of the held log verified since the last resume (or
  /// reset_log): equal to the held log's size once the replay has
  /// finished, 0 when none was armed. Kept after the target is dropped.
  std::size_t replay_verified() const { return replay_checked_; }

  /// Worker threads owned by this session (== shards() - 1; spawned once at
  /// construction, parked between phases).
  int pool_threads() const { return static_cast<int>(threads_.size()); }
  /// Process-wide count of shard worker threads ever spawned. Regression
  /// hook: a full preset pipeline on one Runtime must not move it.
  static std::uint64_t lifetime_threads_spawned();

  /// True while the calling thread executes runtime machinery (the round
  /// loop, delivery sweeps, send/halt bookkeeping, log recording) as
  /// opposed to program callbacks. Allocation-regression tests hook
  /// operator new and count only allocations made with this flag set.
  static bool in_machinery();

  /// Heap bytes of all session state, split the way the per-slot budget in
  /// DESIGN.md ("Memory layout & giant graphs") is drawn up: the
  /// slot-indexed steady state (arenas + delivery indexes + per-vertex
  /// bookkeeping) is bounded per slot independent of traffic, while
  /// payload_bytes is the high-water capacity of the double-buffered
  /// message-word buffers -- proportional to the widest round's traffic
  /// (up to 2 x congest_words x 8 bytes per slot under a full flood).
  struct MemoryBreakdown {
    std::uint64_t arena_bytes = 0;    ///< epoch/off/len, both arenas (exact)
    std::uint64_t payload_bytes = 0;  ///< message words, both arenas
    /// speakers/grouped/live/awake/timer/scratch/inbox workspaces, by
    /// capacity
    std::uint64_t index_bytes = 0;
    /// broadcast records (both arenas) + halted flags + wake rounds:
    /// per-vertex
    std::uint64_t vertex_bytes = 0;
    std::uint64_t total() const {
      return arena_bytes + payload_bytes + index_bytes + vertex_bytes;
    }
    /// Everything except the traffic-proportional payload high-water.
    std::uint64_t steady_bytes() const { return total() - payload_bytes; }
  };
  MemoryBreakdown memory_breakdown() const;

  /// Heap bytes of all session state (mailbox arenas, payload buffers,
  /// delivery indexes, per-shard workspaces, halted/live bookkeeping), by
  /// capacity. Together with Graph::memory_bytes() this is the number the
  /// scale benches divide by num_slots() for the bytes-per-slot budget.
  std::uint64_t memory_bytes() const { return memory_breakdown().total(); }

 private:
  friend class Ctx;
  /// The distributed transport's window into the session (src/dist/dist.cpp
  /// defines it): one named seam instead of a scatter of accessors for
  /// state only the transport may touch (arenas, shard counters, halted
  /// bitmap, epoch stamps).
  friend struct dvc::dist::RuntimeAccess;

  /// What a dispatched sweep runs on each shard.
  enum class Job { kBegin, kStep };

  /// A per-shard container on cache lines of its own: shards append to
  /// these on every send, so two shards' vector headers must never share a
  /// line (false sharing).
  template <typename T>
  struct alignas(64) Padded : T {};

  /// A sender's per-round entry in the broadcast lane. `bcast_stamp` marks
  /// a broadcast whose payload sits at off/len in the sender shard's word
  /// buffer; `port_stamp` marks a round in which the vertex sent on at
  /// least one port (the payloads of those sends live in the slot arena).
  /// Stamps use the arena epoch numbering, so stale records need no clear.
  struct SenderRecord {
    std::int32_t bcast_stamp = -1;
    std::uint32_t off = 0;
    std::uint32_t len = 0;
    std::int32_t port_stamp = -1;
  };

  /// One direction of the double buffer. Slot s (a directed edge endpoint)
  /// holds at most one per-port message per round; `epoch[s]` stamps the
  /// *session round* (stamp_base_ + round_) that last wrote it, so stale
  /// cells are skipped without any per-round clear -- and, because stamps
  /// increase monotonically across phases, without any per-PHASE clear
  /// either: a warm phase start is O(n), not O(slots). Payload words live
  /// in flat per-shard buffers (`words[shard]`) to keep concurrent appends
  /// race-free; `off/len` locate a slot's payload, and a record's off/len a
  /// broadcast's, inside the sending shard's buffer.
  struct Arena {
    /// Slot-indexed arrays (12 bytes per slot).
    std::vector<std::int32_t> epoch;
    std::vector<std::uint32_t> off;
    std::vector<std::uint32_t> len;
    /// Broadcast lane: one record per vertex (n entries), written only by
    /// the sender's own shard.
    std::vector<SenderRecord> record;
    std::vector<Padded<std::vector<std::int64_t>>> words;  // one per shard
    /// The one record of who spoke: per sending shard, the vertices that
    /// spoke this round, in send order. Grouped delivery and the dist relay
    /// both walk it. A vertex enters once per
    /// round (on its broadcast or its first port send), so reserving each
    /// list to its shard's vertex count keeps appends allocation-free.
    /// Cleared per round; capacity persists.
    std::vector<Padded<std::vector<V>>> speakers;

    void clear_round() {
      for (auto& w : words) w.clear();
      for (auto& sp : speakers) sp.clear();
    }
  };

  /// Mutable per-shard executor state. Everything a concurrent shard writes
  /// lives here (or in cells of the out-arena owned by this shard's
  /// vertices, or in its Padded arena entries), so the round loop needs no
  /// locks; cache-line aligned so no two shards write the same line.
  struct alignas(64) Shard {
    V first = 0, last = 0;  // vertex range [first, last)
    /// Slot range of the shard's vertices (contiguous because the vertex
    /// range is): its size is the exact upper bound on messages the shard
    /// can receive per round, used to pre-size the grouped workspace.
    std::int64_t slot_lo = 0, slot_hi = 0;
    Inbox inbox;
    std::array<std::vector<std::int64_t>, Ctx::kNumScratch> scratch;
    std::uint64_t messages = 0;
    std::uint64_t words = 0;
    std::uint64_t work_items = 0;
    std::uint32_t max_msg_words = 0;
    V newly_halted = 0;
    std::exception_ptr error;
    /// The shard's non-halted vertices in ascending (canonical) order,
    /// sleepers included. Rebuilt after begin(), then compacted in place by
    /// the port-scan rounds that walk it anyway: grouped rounds never touch
    /// it, so it may still hold vertices that halted since.
    std::vector<V> live;
    /// Sum of degree(v) over the shard's non-halted vertices: the cost of a
    /// receiver-driven port scan, which picks the cheaper assembly mode per
    /// round. do_halt subtracts as each vertex halts.
    std::uint64_t live_ports = 0;
    /// Live vertices that do not sleep, ascending: stepped next round with
    /// or without mail. Each step sweep writes `awake_next` and swaps.
    std::vector<V> awake, awake_next;
    /// Timed wake-ups: a min-heap of (round << 32 | vertex) keys, so one
    /// round's come out in ascending vertex order. A key is live while
    /// wake_[vertex] still equals its round; the rest are dropped when they
    /// surface or when the heap fills (push_timer).
    std::vector<std::uint64_t> timers;
    /// Summed degree of the vertices this shard added to `speakers` in the
    /// current sweep; merge_shards folds it into spoken_ports_.
    std::uint64_t spoken_ports = 0;
    /// Grouped-delivery workspace: one (receiver << 32 | receiver slot) key
    /// per message of last round to a live vertex of this shard (slots are
    /// 32-bit: CsrBuilder rejects larger graphs), sorted, hence grouped by
    /// receiver in canonical port order, with the receiver at hand. Grouped
    /// delivery runs only when spoken_ports_ * kGroupedDeliveryFactor <=
    /// live_ports <= slot_hi - slot_lo, and every entry is a distinct
    /// (speaker, neighbor) pair, so reserving (slot_hi - slot_lo) /
    /// kGroupedDeliveryFactor + 1 entries makes it allocation-free.
    std::vector<std::uint64_t> grouped;
  };

  int shard_of(V v) const {
    return static_cast<int>(
        std::upper_bound(bounds_.begin() + 1, bounds_.end() - 1, v) -
        bounds_.begin() - 1);
  }
  void do_send(int shard, V from, int port, std::span<const std::int64_t> payload);
  void do_broadcast(int shard, V from, std::span<const std::int64_t> payload);
  /// Throws the bandwidth_error for a send of `words` words on (from, port)
  /// that exceeds the phase's per-message cap (callers test the cap).
  [[noreturn]] void throw_width(V from, int port, std::size_t words) const;
  /// Appends `payload` to the sending shard's out-arena word buffer and
  /// returns its offset.
  std::uint32_t append_words(Arena& out, int shard,
                             std::span<const std::int64_t> payload);
  void do_halt(int shard, V v);
  void do_sleep(V v, int round);
  /// Files v after its begin() or step(): true if v stays awake. A timed
  /// sleep pushes a wake-up unless v's pending one (`prev`) already holds
  /// that round; a halted vertex's wake-ups are invalidated.
  bool settle(Shard& sh, V v, std::int32_t prev);
  /// Pushes a timed wake-up, first dropping dead keys if the heap is full.
  void push_timer(Shard& sh, V v, std::int32_t round);
  /// Runs begin() (round 0) or step() for every live vertex of one shard.
  void run_shard_phase(int shard, VertexProgram& program, bool is_begin);
  /// Step sweep of one shard, with per-round choice between grouped
  /// delivery (steps receivers, awake vertices and due wake-ups) and a
  /// live port scan (steps every live vertex but the mailless sleepers).
  void step_sweep(int shard, VertexProgram& program);
  /// Fills the shard's grouped workspace from last round's speakers.
  void gather_grouped(int shard, const Arena& in, std::int32_t want);
  /// Folds per-shard counters into stats_/live_ (serial, canonical order)
  /// and rethrows the first shard error.
  void merge_shards();
  /// Dispatches one job (begin/step sweep) across the parked pool (or runs
  /// it inline when single-sharded).
  void dispatch(Job job);
  /// Body of pool thread `shard`: parks until dispatch() bumps the
  /// generation, runs the shard's share of the job, returns on stopping_.
  void pool_loop(int shard);
  /// Wakes the parked pool with stopping_ set and joins every thread.
  void stop_pool();
  /// Everything of run_phase after the label/index bookkeeping; split out so
  /// run_phase can wrap it and annotate escaping invariant_errors with the
  /// phase label.
  void run_phase_body(VertexProgram& program, int max_rounds,
                      std::string_view label);
  /// Fault-plan hook, run only while a plan is armed: at sweep entry, on
  /// the shard's own thread.
  void inject_shard_faults(int shard, int round);

  const Graph* g_;
  int num_shards_ = 1;
  std::vector<V> bounds_;  // shard_bounds(): num_shards_ + 1 entries
  std::vector<Shard> shards_;
  Arena arenas_[2];
  int in_idx_ = 0;  // arenas_[in_idx_] feeds this round's inboxes
  std::vector<std::uint8_t> halted_;
  /// Per vertex, written only by its own shard: 0 = awake, else the round
  /// it sleeps until (Ctx::kUntilMail: until mail). Reset by each begin
  /// sweep; a vertex is awake whenever its begin() or step() runs.
  std::vector<std::int32_t> wake_;
  V live_ = 0;
  int round_ = 0;
  /// Summed degree of the previous round's speakers (all shards): the
  /// walk cost of grouped delivery, and its message count when every
  /// speaker broadcast.
  std::uint64_t spoken_ports_ = 0;
  /// Session-round base of the current phase: epoch stamps are
  /// stamp_base_ + round_. Advanced past every stamp the finished phase
  /// wrote; wraps (with a full epoch reset) long before int32 overflow.
  /// Only monotonic within the session; no log or result carries it.
  std::int32_t stamp_base_ = 0;
  RunStats stats_;
  PhaseLog log_;
  /// Replay (see resume): the held log the re-run must reproduce (empty
  /// when not replaying), and how many of its entries were verified.
  PhaseLog replay_target_;
  std::size_t replay_checked_ = 0;
  std::function<void(int)> observer_;
  std::function<void()> interrupt_;
  /// Fault-injection state (see sim/fault.hpp). phase_cur_ is the index of
  /// the phase currently executing (the value phase_index_ had when it
  /// started); phase_label_ its label, kept after the phase ends so error
  /// paths can attribute failures.
  FaultPlan fault_plan_;
  bool fault_armed_ = false;
  std::atomic<std::uint64_t> faults_injected_{0};
  int phase_index_ = 0;
  int phase_cur_ = 0;
  std::string phase_label_;
  /// Progress watchdog (0 = off) and its consecutive-idle-round counter.
  int watchdog_idle_rounds_ = 0;
  int idle_rounds_ = 0;
  /// Session CONGEST budget (0 = LOCAL) and the per-phase effective
  /// per-message cap derived from it and the program contract: the
  /// tighter of the two positives, or int64 max when both are 0.
  int congest_words_ = 0;
  int phase_contract_words_ = 0;
  std::int64_t msg_word_cap_ = 0;
  /// Distributed-phase seam (borrowed; see set_phase_executor), offered
  /// every phase.
  PhaseExecutor* phase_executor_ = nullptr;

  // Parked worker pool: spawned once in the constructor, woken per
  // begin/step sweep, joined in the destructor.
  std::mutex mutex_;
  std::condition_variable start_cv_, done_cv_;
  std::uint64_t generation_ = 0;
  int pending_ = 0;
  Job job_ = Job::kBegin;
  bool stopping_ = false;
  VertexProgram* program_ = nullptr;
  std::vector<std::thread> threads_;
};

/// RAII aggregate span in a session log: drivers wrap composed procedures
/// so the PhaseLog shows them as one named subtree.
class PhaseSpan {
 public:
  /// Delegating, so a span that fails the replay check is still closed.
  PhaseSpan(Runtime& rt, std::string_view name) : PhaseSpan(rt.log(), name) {
    rt.check_replay();
  }
  PhaseSpan(PhaseLog& log, std::string_view name)
      : log_(&log), idx_(log.open_span(name)) {}
  ~PhaseSpan() { log_->close_span(idx_); }
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

 private:
  PhaseLog* log_;
  std::size_t idx_;
};

/// Scoped install of a session's phase-boundary interrupt hook, cleared on
/// destruction (including unwinding out of the hook's own throw) -- so a
/// pooled session handed to the next job can never inherit the previous
/// job's cancellation token or deadline.
class ScopedInterrupt {
 public:
  ScopedInterrupt(Runtime& rt, std::function<void()> hook) : rt_(&rt) {
    rt_->set_interrupt(std::move(hook));
  }
  ~ScopedInterrupt() { rt_->set_interrupt(nullptr); }
  ScopedInterrupt(const ScopedInterrupt&) = delete;
  ScopedInterrupt& operator=(const ScopedInterrupt&) = delete;

 private:
  Runtime* rt_;
};

/// Scoped override of a session's CONGEST word budget; `words` <= 0 leaves
/// the current budget untouched (no-op guard). Restores on destruction, so
/// drivers can impose a model for their pipeline without mutating a
/// caller-provided session permanently.
class ScopedCongestWords {
 public:
  ScopedCongestWords(Runtime& rt, int words)
      : rt_(&rt), previous_(rt.congest_words()), active_(words > 0) {
    if (active_) rt_->set_congest_words(words);
  }
  ~ScopedCongestWords() {
    if (active_) rt_->set_congest_words(previous_);
  }
  ScopedCongestWords(const ScopedCongestWords&) = delete;
  ScopedCongestWords& operator=(const ScopedCongestWords&) = delete;

 private:
  Runtime* rt_;
  int previous_;
  bool active_;
};

/// Scoped install of a session's fault plan, restoring the previous plan on
/// destruction (including unwinding out of an injected fault) -- so a
/// pooled session handed to the next job can never inherit the previous
/// job's fault schedule. An unarmed plan makes the guard a no-op.
class ScopedFaultPlan {
 public:
  ScopedFaultPlan(Runtime& rt, const FaultPlan& plan)
      : rt_(&rt), active_(plan.armed()) {
    if (active_) {
      previous_ = rt_->fault_plan();
      rt_->set_fault_plan(plan);
    }
  }
  ~ScopedFaultPlan() {
    if (active_) rt_->set_fault_plan(std::move(previous_));
  }
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;

 private:
  Runtime* rt_;
  FaultPlan previous_;
  bool active_;
};

/// Scoped arm of a session's progress watchdog; `rounds` <= 0 leaves the
/// current setting untouched (no-op guard). Restores on destruction.
class ScopedWatchdog {
 public:
  ScopedWatchdog(Runtime& rt, int rounds)
      : rt_(&rt), previous_(rt.watchdog_idle_rounds()), active_(rounds > 0) {
    if (active_) rt_->set_watchdog_idle_rounds(rounds);
  }
  ~ScopedWatchdog() {
    if (active_) rt_->set_watchdog_idle_rounds(previous_);
  }
  ScopedWatchdog(const ScopedWatchdog&) = delete;
  ScopedWatchdog& operator=(const ScopedWatchdog&) = delete;

 private:
  Runtime* rt_;
  int previous_;
  bool active_;
};

}  // namespace dvc::sim
