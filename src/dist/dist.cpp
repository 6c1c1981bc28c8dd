#include "dist/dist.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <deque>
#include <span>
#include <utility>

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/wire.hpp"
#include "dist/transport.hpp"

namespace dvc::dist {

// ---------------------------------------------------------------------------
// RuntimeAccess: the transport's window into sim::Runtime (its sole friend).
// Everything the worker/coordinator code touches of the session's private
// state goes through these named accessors, so the seam is auditable in one
// place.

struct RuntimeAccess {
  using R = sim::Runtime;
  using Shard = sim::Runtime::Shard;
  using Arena = sim::Runtime::Arena;

  static Shard& shard(R& rt, int i) {
    return rt.shards_[static_cast<std::size_t>(i)];
  }
  static Arena& out_arena(R& rt) { return rt.arenas_[1 - rt.in_idx_]; }
  static int round(R& rt) { return rt.round_; }
  static int phase_cur(R& rt) { return rt.phase_cur_; }
  static const sim::RunStats& stats(R& rt) { return rt.stats_; }
  static std::int32_t out_stamp(R& rt) { return rt.stamp_base_ + rt.round_; }
  static std::vector<std::uint8_t>& halted(R& rt) { return rt.halted_; }
  static int shard_of(R& rt, V v) { return rt.shard_of(v); }
  static std::uint64_t& spoken_ports(R& rt) { return rt.spoken_ports_; }

  static void run_shard(R& rt, int shard, sim::VertexProgram& program,
                        bool is_begin) {
    rt.run_shard_phase(shard, program, is_begin);
  }

  /// Worker-side round bookkeeping mirroring run_phase_body's loop head
  /// (the fork child never executes run_phase_body itself).
  static void advance_round(R& rt, int round) {
    rt.round_ = round;
    rt.in_idx_ = 1 - rt.in_idx_;
    rt.arenas_[1 - rt.in_idx_].clear_round();
  }

  /// Failure-path scrub: zero every per-shard counter and drop pending
  /// errors, so a phase abandoned mid-sweep (worker death before its stats
  /// landed) cannot leak partial counter fills into the next phase's first
  /// merge_shards on this persistent session.
  static void clear_shard_counters(R& rt) {
    for (Shard& sh : rt.shards_) {
      sh.messages = 0;
      sh.words = 0;
      sh.work_items = 0;
      sh.max_msg_words = 0;
      sh.newly_halted = 0;
      sh.spoken_ports = 0;
      sh.error = nullptr;
    }
  }
};

namespace {

using wire::ByteReader;
using wire::ByteWriter;

constexpr std::uint8_t kErrInvariant = 0;
constexpr std::uint8_t kErrPrecondition = 1;
constexpr std::uint8_t kErrBandwidth = 2;
constexpr std::uint8_t kErrTransient = 3;
constexpr std::uint8_t kErrCorruption = 4;
constexpr std::uint8_t kErrBadAlloc = 5;
constexpr std::int32_t kBroadcastPort = -1;  // see handle_sweep

/// Encodes the exception a worker sweep raised into a kError frame whose
/// payload is: u8 kind, str what, then kind-specific fields (bandwidth:
/// vertex, port, round, words, cap, from_contract; corruption: phase_label,
/// phase, round).
std::vector<std::uint8_t> encode_error_frame() {
  ByteWriter w = wire::open_frame();
  try {
    throw;
  } catch (const sim::bandwidth_error& e) {
    w.u8(kErrBandwidth);
    w.str(e.what());
    w.i32(e.vertex);
    w.i32(e.port);
    w.i32(e.round);
    w.i64(e.words);
    w.i64(e.cap);
    w.u8(e.from_contract ? 1 : 0);
  } catch (const corruption_error& e) {
    w.u8(kErrCorruption);
    w.str(e.what());
    w.str(e.phase_label);
    w.i32(e.phase);
    w.i32(e.round);
  } catch (const transient_error& e) {
    w.u8(kErrTransient);
    w.str(e.what());
  } catch (const precondition_error& e) {
    w.u8(kErrPrecondition);
    w.str(e.what());
  } catch (const std::bad_alloc&) {
    w.u8(kErrBadAlloc);
    w.str("std::bad_alloc in a worker sweep");
  } catch (const std::exception& e) {
    w.u8(kErrInvariant);
    w.str(e.what());
  } catch (...) {
    w.u8(kErrInvariant);
    w.str("non-standard exception in a worker sweep");
  }
  return wire::seal_frame(static_cast<std::uint8_t>(FrameType::kError), -1, -1,
                          std::move(w.buf));
}

/// Inverse of encode_error_frame's payload: rethrows the worker's exception
/// on the coordinator with its original type and fields, prefixed with the
/// worker id so a multi-process failure names its origin.
[[noreturn]] void rethrow_error_payload(std::span<const std::uint8_t> payload,
                                        int worker) {
  ByteReader r{payload, 0, "error frame"};
  const std::uint8_t kind = r.u8();
  const std::string what =
      "worker " + std::to_string(worker) + ": " + r.str();
  switch (kind) {
    case kErrBandwidth: {
      const V vertex = r.i32();
      const int port = r.i32();
      const int round = r.i32();
      const std::int64_t words = r.i64();
      const std::int64_t cap = r.i64();
      const bool from_contract = r.u8() != 0;
      throw sim::bandwidth_error(what, vertex, port, round, words, cap,
                                 from_contract);
    }
    case kErrCorruption: {
      std::string phase_label = r.str();
      const int phase = r.i32();
      const int round = r.i32();
      throw corruption_error(what, std::move(phase_label), phase, round);
    }
    case kErrTransient:
      throw transient_error(what);
    case kErrPrecondition:
      throw precondition_error(what);
    case kErrBadAlloc:
      throw std::bad_alloc{};
    default:
      throw invariant_error(what);
  }
}

/// Shard-slice bookkeeping of one worker: contiguous shard and vertex
/// ranges (contiguous because shards are vertex-contiguous).
struct WorkerSlice {
  int shard_lo = 0, shard_hi = 0;
  V vtx_lo = 0, vtx_hi = 0;
};

/// The rows of `col` a worker owns: its vertex range, or for a slot column
/// the CSR slot range of those vertices (contiguous, maybe empty).
std::span<std::uint8_t> owned_rows(const Graph& g, const sim::StateColumn& col,
                                   const WorkerSlice& sl) {
  const bool by_slot = col.rows == sim::StateColumn::Rows::kSlot;
  const std::int64_t lo = by_slot ? g.slot(sl.vtx_lo, 0) : sl.vtx_lo;
  const std::int64_t hi = by_slot ? g.slot(sl.vtx_hi, 0) : sl.vtx_hi;
  return {static_cast<std::uint8_t*>(col.base) +
              static_cast<std::size_t>(lo) * col.row_bytes,
          static_cast<std::size_t>(hi - lo) * col.row_bytes};
}

/// A worker's kState payload size: its owned rows of every column.
std::size_t state_bytes(const Graph& g,
                        const std::vector<sim::StateColumn>& columns,
                        const WorkerSlice& sl) {
  std::size_t total = 0;
  for (const sim::StateColumn& col : columns) {
    total += owned_rows(g, col, sl).size();
  }
  return total;
}

/// The worker half of the protocol -- identical logic for a forked process
/// (owns_runtime_state = true: it does its own round bookkeeping on its
/// private copy-on-write session) and a loopback worker
/// (owns_runtime_state = false: the coordinator's run_phase_body already
/// advanced the shared session's round state).
struct WorkerCore {
  sim::Runtime* rt = nullptr;
  sim::VertexProgram* program = nullptr;
  int worker = 0;
  WorkerSlice slice;
  /// vtx_lo per worker (size workers + 1, last = n): routing table mapping
  /// a neighbor to the worker owning it.
  std::vector<V> worker_vtx_lo;
  bool owns_runtime_state = false;
  /// Sweeps until the armed fault fires (-1 = disarmed), decremented at
  /// sweep entry; 0 means "this sweep".
  int kill_countdown = -1;
  int corrupt_countdown = -1;

  int dest_worker_of(V v) const {
    const auto it = std::upper_bound(worker_vtx_lo.begin() + 1,
                                     worker_vtx_lo.end() - 1, v);
    return static_cast<int>(it - worker_vtx_lo.begin()) - 1;
  }

  /// Applies a relayed kMsgs payload into the post-sweep out arena as the
  /// sender's own sweep would have: a broadcast stamps the sender's record,
  /// a port message its receiver slot, and the sender joins its shard's
  /// speaker list if its record was not stamped this round. Payload words
  /// go to the SENDER shard's flat buffer at local offsets. On the shared
  /// loopback session the sender's sweep already wrote every relayed
  /// message, so a message whose record (broadcast) or slot (port send) is
  /// already stamped is skipped. FIFO transport order lands every round-r
  /// message before the round-r+1 sweep that consumes it.
  void apply_msgs(std::span<const std::uint8_t> payload) {
    ByteReader r{payload, 0, "messages frame"};
    const auto dest = static_cast<int>(r.u32());
    DVC_ENSURE(dest == worker, "messages frame routed to the wrong worker");
    const Graph& g = rt->graph();
    auto& arena = RuntimeAccess::out_arena(*rt);
    const std::int32_t stamp = RuntimeAccess::out_stamp(*rt);
    while (r.pos < payload.size()) {
      const V sender = r.i32();
      const std::int32_t port = r.i32();
      const std::uint32_t len = r.u32();
      DVC_ENSURE(sender >= 0 && sender < g.num_vertices() &&
                     port >= kBroadcastPort && port < g.degree(sender),
                 "relayed message names an unknown sender or port");
      const bool bcast = port == kBroadcastPort;
      std::int64_t slot = -1;
      if (!bcast) {
        const V to = g.neighbors(sender)[port];
        DVC_ENSURE(to >= slice.vtx_lo && to < slice.vtx_hi,
                   "relayed message addressed to another worker's vertex");
        slot = g.mirror_slot(g.slot(sender, port));
      }
      const auto shard =
          static_cast<std::size_t>(RuntimeAccess::shard_of(*rt, sender));
      auto& rec = arena.record[static_cast<std::size_t>(sender)];
      if (rec.bcast_stamp != stamp && rec.port_stamp != stamp) {
        arena.speakers[shard].push_back(sender);
      }
      if (bcast ? rec.bcast_stamp == stamp : arena.epoch[slot] == stamp) {
        r.bytes(std::size_t{len} * sizeof(std::int64_t));
        continue;
      }
      auto& words = arena.words[shard];
      DVC_ENSURE(words.size() + len <= 0xffffffffu,
                 "a shard's per-round payload exceeds the 32-bit arena "
                 "offsets");
      const auto off = static_cast<std::uint32_t>(words.size());
      r.i64s(len, words);
      if (bcast) {
        rec.bcast_stamp = stamp;
        rec.off = off;
        rec.len = len;
        continue;
      }
      rec.port_stamp = stamp;
      arena.epoch[slot] = stamp;
      arena.off[slot] = off;
      arena.len[slot] = len;
    }
  }

  /// Runs one sweep over the worker's shards and returns the response
  /// frames: zero or more kMsgs (one per destination worker that received
  /// cross-worker messages) followed by exactly one kStats. Throws on a
  /// shard error; the caller encodes it as a kError frame.
  std::vector<std::vector<std::uint8_t>> handle_sweep(
      const wire::FrameHeader& h, std::span<const std::uint8_t> payload) {
    ByteReader r{payload, 0, "sweep frame"};
    const bool is_begin = r.u8() != 0;
    if (owns_runtime_state && !is_begin) {
      RuntimeAccess::advance_round(*rt, h.round);
    }
    RuntimeAccess::spoken_ports(*rt) = r.u64();
    for (int s = slice.shard_lo; s < slice.shard_hi; ++s) {
      RuntimeAccess::run_shard(*rt, s, *program, is_begin);
    }
    // A sweep exception was parked in the shard struct (the in-process
    // pool's convention); surface the first one here, leaving the counters
    // to the coordinator's failure scrub.
    for (int s = slice.shard_lo; s < slice.shard_hi; ++s) {
      auto& sh = RuntimeAccess::shard(*rt, s);
      if (sh.error) {
        std::exception_ptr err = sh.error;
        sh.error = nullptr;
        std::rethrow_exception(err);
      }
    }

    std::vector<std::vector<std::uint8_t>> out;
    // Cross-worker messages, one frame per destination worker, written
    // straight into its buffer: u32 dest_worker, then entries to the end,
    // each { u32 sender, u32 port, u32 len, len x i64 words }. A broadcast
    // (port kBroadcastPort) ships once to each other worker its sorted row
    // reaches; a port sender ships each cell it wrote on a cut edge.
    const int workers = static_cast<int>(worker_vtx_lo.size()) - 1;
    std::vector<ByteWriter> per_dest(static_cast<std::size_t>(workers));
    const auto entry = [&](int d, V u, std::int32_t port,
                           std::span<const std::int64_t> payload) {
      ByteWriter& w = per_dest[static_cast<std::size_t>(d)];
      if (w.buf.empty()) {
        w = wire::open_frame();
        w.u32(static_cast<std::uint32_t>(d));
      }
      w.i32(u);
      w.i32(port);
      w.u32(static_cast<std::uint32_t>(payload.size()));
      w.i64s(payload);
    };
    const Graph& g = rt->graph();
    auto& arena = RuntimeAccess::out_arena(*rt);
    const std::int32_t stamp = RuntimeAccess::out_stamp(*rt);
    for (int s = slice.shard_lo; s < slice.shard_hi; ++s) {
      const auto& words = arena.words[static_cast<std::size_t>(s)];
      for (const V u : arena.speakers[static_cast<std::size_t>(s)]) {
        const auto row = g.neighbors(u);
        const auto& rec = arena.record[static_cast<std::size_t>(u)];
        if (rec.bcast_stamp == stamp) {
          const std::span<const std::int64_t> bcast(words.data() + rec.off,
                                                    rec.len);
          for (auto it = row.begin(); it != row.end();) {
            const int d = dest_worker_of(*it);
            if (d != worker) entry(d, u, kBroadcastPort, bcast);
            const V next = worker_vtx_lo[static_cast<std::size_t>(d) + 1];
            it = std::lower_bound(it, row.end(), next);
          }
          continue;
        }
        const std::int64_t base = g.slot(u, 0);
        for (std::int64_t p = 0; p < std::ssize(row); ++p) {
          if (row[p] >= slice.vtx_lo && row[p] < slice.vtx_hi) continue;
          const std::int64_t slot = g.mirror_slot(base + p);
          if (arena.epoch[slot] != stamp) continue;
          entry(dest_worker_of(row[p]), u, static_cast<std::int32_t>(p),
                {words.data() + arena.off[slot], arena.len[slot]});
        }
      }
    }
    for (ByteWriter& w : per_dest) {
      if (w.buf.empty()) continue;
      out.push_back(
          wire::seal_frame(static_cast<std::uint8_t>(FrameType::kMsgs),
                           h.phase, h.round, std::move(w.buf)));
    }

    // Per-shard sweep counters, ascending shard order:
    //   { u64 messages, u64 words, u64 work_items, u32 max_msg_words,
    //     i32 newly_halted, u64 spoken_ports } per owned shard.
    // Read-and-reset: on the shared loopback session the coordinator
    // re-assigns these from the frame, so the reset keeps fork and loopback
    // on one code path instead of two counter disciplines.
    ByteWriter stats = wire::open_frame();
    for (int s = slice.shard_lo; s < slice.shard_hi; ++s) {
      auto& sh = RuntimeAccess::shard(*rt, s);
      stats.u64(sh.messages);
      stats.u64(sh.words);
      stats.u64(sh.work_items);
      stats.u32(sh.max_msg_words);
      stats.i32(sh.newly_halted);
      stats.u64(sh.spoken_ports);
      sh.messages = 0;
      sh.words = 0;
      sh.work_items = 0;
      sh.max_msg_words = 0;
      sh.newly_halted = 0;
      sh.spoken_ports = 0;
    }
    out.push_back(wire::seal_frame(static_cast<std::uint8_t>(FrameType::kStats),
                                   h.phase, h.round, std::move(stats.buf)));

    if (corrupt_countdown >= 0 && corrupt_countdown-- == 0) {
      // Injected wire damage: flip bit 0 of the stats frame's type byte
      // (after the u32 magic and the u8 version) AFTER encoding, so kStats
      // reads as kMsgs. Only the frame checksum, which covers the header
      // too, tells this frame from a relay.
      out.back()[5] ^= 0x01;
    }
    return out;
  }

  /// kFinish -> kState: the owned rows of every program state column, one
  /// copy per column, in the order state_columns() lists them.
  std::vector<std::uint8_t> handle_finish(const wire::FrameHeader& h) {
    const std::vector<sim::StateColumn> columns = program->state_columns();
    ByteWriter w = wire::open_frame();
    w.buf.reserve(w.buf.size() + state_bytes(rt->graph(), columns, slice) +
                  wire::kFrameTrailerBytes);
    for (const sim::StateColumn& col : columns) {
      w.bytes(owned_rows(rt->graph(), col, slice));
    }
    return wire::seal_frame(static_cast<std::uint8_t>(FrameType::kState),
                            h.phase, h.round, std::move(w.buf));
  }

  /// Validates and runs one coordinator frame, handing each reply frame to
  /// `reply`. Returns false when the armed kill fires at this sweep (the
  /// caller decides what death looks like: SIGKILL for fork, a dead channel
  /// for loopback). Throws on a bad frame or a sweep error; the caller
  /// replies with encode_error_frame().
  template <typename Reply>
  bool serve(std::span<const std::uint8_t> frame, Reply&& reply) {
    const wire::FrameHeader h = wire::decode_frame_header(frame);
    const auto payload = wire::frame_payload(frame);
    switch (static_cast<FrameType>(h.type)) {
      case FrameType::kSweep:
        if (kill_countdown >= 0 && kill_countdown-- == 0) return false;
        for (auto& f : handle_sweep(h, payload)) reply(std::move(f));
        return true;
      case FrameType::kMsgs:
        apply_msgs(payload);
        return true;
      case FrameType::kFinish:
        reply(handle_finish(h));
        return true;
      default:
        throw corruption_error("worker received an unexpected frame type " +
                                   std::to_string(static_cast<int>(h.type)),
                               "", h.phase, h.round);
    }
  }
};

/// Forked worker process: a blocking serve loop on its socketpair end.
/// Exits via _exit only -- the child shares the parent's address space
/// copy-on-write and must not run the parent's destructors or atexit hooks.
[[noreturn]] void child_serve(WorkerCore& core, int fd) {
  SocketTransport link(fd, /*worker=*/-1);
  for (;;) {
    std::vector<std::uint8_t> frame;
    try {
      frame = link.recv();
    } catch (const worker_lost_error&) {
      // Coordinator gone (shutdown with frames in flight, or its own
      // death): nothing to report to, so a clean silent exit.
      _exit(0);
    } catch (...) {
      _exit(1);
    }
    try {
      if (!core.serve(frame, [&](const auto& f) { link.send(f); })) {
        // The scheduled mid-round death: no goodbye frame, no teardown --
        // exactly what kill -9 on a real worker box looks like.
        ::raise(SIGKILL);
      }
    } catch (const worker_lost_error&) {
      _exit(0);  // coordinator vanished mid-reply
    } catch (...) {
      try {
        link.send(encode_error_frame());
      } catch (...) {
        _exit(1);
      }
    }
  }
}

/// In-process worker: the same WorkerCore over in-memory queues. send()
/// dispatches the frame synchronously (decode -> handle -> queue replies),
/// so the encoded wire traffic is byte-identical to the fork backend while
/// everything runs on the coordinator thread against the shared session.
class LoopbackTransport final : public Transport {
 public:
  LoopbackTransport(WorkerCore core) : core_(std::move(core)) {}

  void send(std::span<const std::uint8_t> frame) override {
    if (dead_) lost("send to a dead loopback worker");
    try {
      const auto queue = [&](auto f) { outbox_.push_back(std::move(f)); };
      if (!core_.serve(frame, queue)) {
        // Simulated kill -9: the worker stops responding; queued replies
        // die with it.
        shutdown();
      }
    } catch (...) {
      outbox_.push_back(encode_error_frame());
    }
  }

  std::vector<std::uint8_t> recv() override {
    if (dead_) lost("recv from a dead loopback worker");
    DVC_ENSURE(!outbox_.empty(),
               "coordinator expects a reply the loopback worker never sent");
    std::vector<std::uint8_t> frame = std::move(outbox_.front());
    outbox_.pop_front();
    return frame;
  }

  void shutdown() override {
    dead_ = true;
    outbox_.clear();
  }

 private:
  [[noreturn]] void lost(const std::string& why) {
    throw worker_lost_error("transport to worker " +
                                std::to_string(core_.worker) + " lost: " + why,
                            core_.worker, -1, -1);
  }

  WorkerCore core_;
  std::deque<std::vector<std::uint8_t>> outbox_;
  bool dead_ = false;
};

}  // namespace

// ---------------------------------------------------------------------------
// DistExecutor: the coordinator.

class DistExecutor final : public sim::PhaseExecutor {
 public:
  explicit DistExecutor(DistConfig cfg) : cfg_(cfg) {
    DVC_REQUIRE(cfg_.workers >= 1, "DistConfig.workers must be >= 1");
  }

  ~DistExecutor() override { teardown(/*kill=*/true); }

  std::vector<PhaseWireMetrics> metrics_;
  DistConfig cfg_;

  bool begin_phase(sim::Runtime& rt, sim::VertexProgram& program) override {
    const int phase = RuntimeAccess::phase_cur(rt);
    metrics_.push_back(PhaseWireMetrics{});
    PhaseWireMetrics& m = metrics_.back();
    m.label = std::string(rt.last_phase());
    m.phase = phase;
    if (!program.dist_capable()) return false;  // phase runs locally

    const int workers = effective_workers(rt);
    m.distributed = true;
    m.workers = workers;

    // Contiguous shard partition: worker w owns shards
    // [w*S/W, (w+1)*S/W) -- every worker non-empty because W <= S.
    const int S = rt.shards();
    slices_.assign(static_cast<std::size_t>(workers), WorkerSlice{});
    std::vector<V> vtx_lo(static_cast<std::size_t>(workers) + 1);
    for (int w = 0; w < workers; ++w) {
      WorkerSlice& sl = slices_[static_cast<std::size_t>(w)];
      sl.shard_lo = static_cast<int>(std::int64_t{w} * S / workers);
      sl.shard_hi = static_cast<int>((std::int64_t{w} + 1) * S / workers);
      sl.vtx_lo = RuntimeAccess::shard(rt, sl.shard_lo).first;
      sl.vtx_hi = RuntimeAccess::shard(rt, sl.shard_hi - 1).last;
      vtx_lo[static_cast<std::size_t>(w)] = sl.vtx_lo;
    }
    vtx_lo[static_cast<std::size_t>(workers)] = rt.graph().num_vertices();

    links_.clear();
    pids_.assign(static_cast<std::size_t>(workers), -1);
    // A failed socketpair or fork leaves before run_phase_body's unwind
    // guard exists: reap the workers already forked here.
    try {
      for (int w = 0; w < workers; ++w) {
        WorkerCore core;
        core.rt = &rt;
        core.program = &program;
        core.worker = w;
        core.slice = slices_[static_cast<std::size_t>(w)];
        core.worker_vtx_lo = vtx_lo;
        if (cfg_.kill_at_sweep >= 0 && w == cfg_.kill_worker) {
          core.kill_countdown = cfg_.kill_at_sweep - sweeps_done_;
          if (core.kill_countdown < 0) core.kill_countdown = -1;  // past
        }
        if (cfg_.corrupt_at_sweep >= 0 && w == cfg_.corrupt_worker) {
          core.corrupt_countdown = cfg_.corrupt_at_sweep - sweeps_done_;
          if (core.corrupt_countdown < 0) core.corrupt_countdown = -1;
        }
        if (cfg_.backend == Backend::kLoopback) {
          core.owns_runtime_state = false;
          links_.push_back(std::make_unique<LoopbackTransport>(core));
          continue;
        }
        core.owns_runtime_state = true;
        int fds[2];
        DVC_REQUIRE(
            ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0,
            std::string("socketpair failed: ") + std::strerror(errno));
        const pid_t pid = ::fork();
        const int fork_errno = errno;
        if (pid < 0) {
          // Neither end has an owner yet: close both before throwing.
          ::close(fds[0]);
          ::close(fds[1]);
        }
        DVC_REQUIRE(pid >= 0,
                    std::string("fork failed: ") + std::strerror(fork_errno));
        if (pid == 0) {
          // Worker process: inherits the canonical phase-start state
          // copy-on-write. Drop every coordinator-side fd -- ours and the
          // earlier workers' -- so the coordinator sees clean EOFs, then
          // serve until the phase ends or the channel drops.
          ::close(fds[0]);
          for (auto& link : links_) link->shutdown();
          child_serve(core, fds[1]);  // never returns
        }
        ::close(fds[1]);
        pids_[static_cast<std::size_t>(w)] = pid;
        links_.push_back(std::make_unique<SocketTransport>(fds[0], w));
      }
    } catch (...) {
      teardown(/*kill=*/true);
      throw;
    }
    active_ = true;
    return true;
  }

  void run_sweep(sim::Runtime& rt, bool is_begin) override {
    const int phase = RuntimeAccess::phase_cur(rt);
    const int round = RuntimeAccess::round(rt);
    ++sweeps_done_;
    PhaseWireMetrics& m = metrics_.back();
    ++m.round_trips;
    try {
      // u8 is_begin, u64 spoken_ports_: the merged grouped-delivery gate.
      ByteWriter sweep = wire::open_frame();
      sweep.u8(is_begin ? 1 : 0);
      sweep.u64(RuntimeAccess::spoken_ports(rt));
      const auto frame =
          wire::seal_frame(static_cast<std::uint8_t>(FrameType::kSweep),
                           phase, round, std::move(sweep.buf));
      for (int w = 0; w < worker_count(); ++w) send_to(w, frame);

      // Drain every worker in order: relay-buffer its kMsgs, land its
      // kStats into the owned shards' counters (merge_shards folds them
      // exactly as it folds an in-process sweep's). Relays go out only
      // AFTER all workers reported -- every worker is then parked in
      // recv(), so the coordinator can never deadlock against a worker
      // still blocked writing its own frames.
      std::vector<std::pair<int, std::vector<std::uint8_t>>> relays;
      for (int w = 0; w < worker_count(); ++w) {
        for (;;) {
          std::vector<std::uint8_t> frame_in = recv_from(w);
          const wire::FrameHeader h = wire::decode_frame_header(frame_in);
          const auto payload = wire::frame_payload(frame_in);
          if (h.type == static_cast<std::uint8_t>(FrameType::kMsgs)) {
            ByteReader r{payload, 0, "messages frame"};
            const auto dest = static_cast<int>(r.u32());
            DVC_ENSURE(dest >= 0 && dest < worker_count(),
                       "messages frame names an unknown destination worker");
            relays.emplace_back(dest, std::move(frame_in));
            continue;
          }
          if (h.type == static_cast<std::uint8_t>(FrameType::kError)) {
            rethrow_error_payload(payload, w);
          }
          DVC_ENSURE(h.type == static_cast<std::uint8_t>(FrameType::kStats),
                     "expected a stats frame, got type " +
                         std::to_string(static_cast<int>(h.type)));
          apply_stats(rt, w, payload);
          break;
        }
      }
      for (auto& [dest, frame_out] : relays) send_to(dest, frame_out);
    } catch (worker_lost_error& e) {
      // Stamp the loss with the phase context the transport cannot know.
      throw worker_lost_error("in phase '" +
                                  std::string(rt.last_phase()) + "' (phase " +
                                  std::to_string(phase) + "), round " +
                                  std::to_string(round) + ": " + e.what(),
                              e.worker, phase, round);
    }
  }

  void end_phase(sim::Runtime& rt, sim::VertexProgram& program,
                 bool success) override {
    if (!active_) return;  // idempotent failure teardown
    if (!success) {
      // Unwinding: kill and reap whatever is left, scrub half-filled
      // counters so the next phase on this persistent session starts clean.
      teardown(/*kill=*/true);
      RuntimeAccess::clear_shard_counters(rt);
      return;
    }
    PhaseWireMetrics& m = metrics_.back();
    ++m.round_trips;
    const int phase = RuntimeAccess::phase_cur(rt);
    const auto finish = wire::encode_frame(
        static_cast<std::uint8_t>(FrameType::kFinish), phase, -1, {});
    for (int w = 0; w < worker_count(); ++w) send_to(w, finish);
    const std::vector<sim::StateColumn> columns = program.state_columns();
    for (int w = 0; w < worker_count(); ++w) {
      std::vector<std::uint8_t> frame = recv_from(w);
      const wire::FrameHeader h = wire::decode_frame_header(frame);
      const auto payload = wire::frame_payload(frame);
      if (h.type == static_cast<std::uint8_t>(FrameType::kError)) {
        rethrow_error_payload(payload, w);
      }
      DVC_ENSURE(h.type == static_cast<std::uint8_t>(FrameType::kState),
                 "expected a state frame, got type " +
                     std::to_string(static_cast<int>(h.type)));
      const WorkerSlice& sl = slices_[static_cast<std::size_t>(w)];
      DVC_ENSURE(payload.size() == state_bytes(rt.graph(), columns, sl),
                 "worker " + std::to_string(w) +
                     " state frame size disagrees with the program's "
                     "state columns");
      const std::uint8_t* at = payload.data();
      for (const sim::StateColumn& col : columns) {
        const std::span<std::uint8_t> rows = owned_rows(rt.graph(), col, sl);
        std::copy_n(at, rows.size(), rows.data());
        at += rows.size();
      }
    }
    // The phase loop exited with live_ == 0, but the halts happened in the
    // workers: restore the coordinator's own halted bitmap to the phase-end
    // truth (every vertex halted).
    auto& halted = RuntimeAccess::halted(rt);
    std::fill(halted.begin(), halted.end(), 1);
    m.rounds = RuntimeAccess::round(rt);
    m.declared_words = RuntimeAccess::stats(rt).words;
    m.declared_messages = RuntimeAccess::stats(rt).messages;
    teardown(/*kill=*/false);
  }

  int effective_workers(sim::Runtime& rt) const {
    return std::min(cfg_.workers, rt.shards());
  }

 private:
  int worker_count() const { return static_cast<int>(links_.size()); }

  void send_to(int w, std::span<const std::uint8_t> frame) {
    PhaseWireMetrics& m = metrics_.back();
    m.wire_bytes += frame.size();
    ++m.frames;
    links_[static_cast<std::size_t>(w)]->send(frame);
  }

  std::vector<std::uint8_t> recv_from(int w) {
    std::vector<std::uint8_t> frame =
        links_[static_cast<std::size_t>(w)]->recv();
    PhaseWireMetrics& m = metrics_.back();
    m.wire_bytes += frame.size();
    ++m.frames;
    return frame;
  }

  /// Lands one kStats payload into the owned shards' counter slots; the
  /// coordinator's unchanged merge_shards then folds them canonically.
  void apply_stats(sim::Runtime& rt, int w,
                   std::span<const std::uint8_t> payload) {
    ByteReader r{payload, 0, "stats frame"};
    const WorkerSlice& sl = slices_[static_cast<std::size_t>(w)];
    for (int s = sl.shard_lo; s < sl.shard_hi; ++s) {
      auto& sh = RuntimeAccess::shard(rt, s);
      sh.messages = r.u64();
      sh.words = r.u64();
      sh.work_items = r.u64();
      sh.max_msg_words = r.u32();
      sh.newly_halted = r.i32();
      sh.spoken_ports = r.u64();
    }
    DVC_ENSURE(r.pos == payload.size(),
               "stats frame size disagrees with worker " + std::to_string(w) +
                   "'s shard count");
  }

  /// Releases workers. kill = false: the phase completed, workers exit on
  /// EOF when their channel closes. kill = true: failure path, SIGKILL
  /// survivors first. Reaps every forked child either way; never throws.
  void teardown(bool kill) noexcept {
    if (kill) {
      for (const pid_t pid : pids_) {
        if (pid > 0) ::kill(pid, SIGKILL);
      }
    }
    for (auto& link : links_) {
      if (link) link->shutdown();
    }
    links_.clear();
    for (pid_t& pid : pids_) {
      if (pid <= 0) continue;
      int status = 0;
      while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
      pid = -1;
    }
    pids_.clear();
    active_ = false;
  }

  std::vector<WorkerSlice> slices_;
  std::vector<std::unique_ptr<Transport>> links_;
  std::vector<pid_t> pids_;
  int sweeps_done_ = 0;
  bool active_ = false;
};

// ---------------------------------------------------------------------------
// DistSession

DistSession::DistSession(sim::Runtime& rt, DistConfig cfg)
    : rt_(&rt), exec_(std::make_unique<DistExecutor>(cfg)) {
  rt.set_phase_executor(exec_.get());
}

DistSession::~DistSession() { rt_->set_phase_executor(nullptr); }

const std::vector<PhaseWireMetrics>& DistSession::metrics() const {
  return exec_->metrics_;
}

PhaseWireMetrics DistSession::totals() const {
  PhaseWireMetrics t;
  t.label = "total";
  for (const PhaseWireMetrics& m : exec_->metrics_) {
    if (!m.distributed) continue;
    t.distributed = true;
    t.workers = std::max(t.workers, m.workers);
    t.rounds += m.rounds;
    t.wire_bytes += m.wire_bytes;
    t.frames += m.frames;
    t.round_trips += m.round_trips;
    t.declared_words += m.declared_words;
    t.declared_messages += m.declared_messages;
  }
  return t;
}

int DistSession::effective_workers() const {
  return exec_->effective_workers(*rt_);
}

}  // namespace dvc::dist
