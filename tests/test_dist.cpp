// Distributed transport suite (src/dist/, common/wire.hpp): the simulator's
// round loop running across OS processes. A preset pipeline run over the
// loopback or fork/socketpair backend is BIT-IDENTICAL (colors, RunStats,
// PhaseLog) to the in-process run at every shard and worker count -- an axis
// of tests/test_determinism_oracle.cpp. Under test here: fork and loopback
// put the same frames on the wire; measured wire traffic is reported next
// to the declared CONGEST words; and every transport
// failure edge -- truncated frame, checksum-corrupted frame, a worker
// SIGKILLed mid-round, coordinator teardown with frames in flight --
// surfaces as the structured error taxonomy (corruption_error /
// transient_error / precondition_error), never a hang, with the service's
// retry + checkpoint path healing a killed worker end to end.
//
// This file is the `dist` ctest label and runs in the ASan+UBSan and TSan
// CI legs (see .github/workflows/ci.yml): the fork backend crosses a real
// process boundary, so lifetime bugs around teardown are exactly what the
// sanitizers are for.
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/wire.hpp"
#include "core/api.hpp"
#include "decomp/forests.hpp"
#include "dist/dist.hpp"
#include "dist/transport.hpp"
#include "graph/arboricity.hpp"
#include "graph/coloring.hpp"
#include "graph/generators.hpp"
#include "service/service.hpp"
#include "sim/runtime.hpp"
#include "determinism_oracle.hpp"
#include "test_helpers.hpp"

namespace dvc {
namespace {

using dist::Backend;
using dist::DistConfig;
using dist::DistSession;
using dist::PhaseWireMetrics;
using dist::worker_lost_error;
using dvc_test::FloodAll;
using service::ColoringService;
using service::JobResult;
using service::JobSpec;
using service::JobStatus;
using service::ServiceConfig;

/// FloodAll with the distribution contract opted in: it keeps no per-vertex
/// mutable state, so the save/load hooks are empty and trivially correct.
class DistFlood : public FloodAll {
 public:
  using FloodAll::FloodAll;
  bool dist_capable() const override { return true; }
  void save_vertex_state(V, wire::ByteWriter&) const override {}
  void load_vertex_state(V, wire::ByteReader&) override {}
};

/// No unreaped child processes may survive a DistSession: the coordinator
/// reaps every forked worker at phase end and on every failure path.
void expect_no_zombie_children() {
  int status = 0;
  const pid_t r = ::waitpid(-1, &status, WNOHANG);
  EXPECT_TRUE(r < 0 && errno == ECHILD)
      << "a worker process outlived its DistSession (waitpid returned " << r
      << ")";
}

LegalColoringResult solo_run(const Graph& g, int bound, Preset preset,
                             int shards) {
  Knobs knobs;
  knobs.congest_words = kCongestWordsPaperPath;
  sim::Runtime rt(g, shards);
  return color_graph(rt, bound, preset, knobs);
}

// ---------------------------------------------------------------------------
// Wire framing (common/wire.hpp)

TEST(Wire, FrameRoundTripPreservesHeaderAndPayload) {
  wire::ByteWriter payload;
  payload.u64(0xdeadbeefcafef00dULL);
  payload.str("hello frames");
  payload.i32(-7);
  const std::vector<std::uint8_t> frame =
      wire::encode_frame(/*type=*/3, /*phase=*/5, /*round=*/12, payload.buf);

  const wire::FrameHeader h = wire::decode_frame_header(frame);
  EXPECT_EQ(h.type, 3);
  EXPECT_EQ(h.phase, 5);
  EXPECT_EQ(h.round, 12);
  EXPECT_EQ(h.payload_len, payload.buf.size());

  const auto body = wire::frame_payload(frame);
  ASSERT_EQ(body.size(), payload.buf.size());
  wire::ByteReader r{body, 0, "test payload"};
  EXPECT_EQ(r.u64(), 0xdeadbeefcafef00dULL);
  EXPECT_EQ(r.str(), "hello frames");
  EXPECT_EQ(r.i32(), -7);
  EXPECT_EQ(r.pos, body.size());
}

TEST(Wire, TruncatedFrameIsCorruption) {
  wire::ByteWriter payload;
  for (int i = 0; i < 64; ++i) payload.u32(static_cast<std::uint32_t>(i));
  const std::vector<std::uint8_t> frame =
      wire::encode_frame(1, 0, 0, payload.buf);
  // Every proper prefix must be rejected structurally: a cut inside the
  // header, inside the payload, and inside the trailing checksum.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, wire::kFrameHeaderBytes,
        wire::kFrameHeaderBytes + 11, frame.size() - 1}) {
    const std::span<const std::uint8_t> cut(frame.data(), keep);
    EXPECT_THROW((void)wire::frame_payload(cut), corruption_error)
        << "prefix of " << keep << " bytes was accepted";
  }
}

TEST(Wire, FlippedBitAnywhereIsCorruption) {
  wire::ByteWriter payload;
  payload.str("checksum covers every byte");
  const std::vector<std::uint8_t> frame =
      wire::encode_frame(2, 1, 3, payload.buf);
  ASSERT_NO_THROW((void)wire::frame_payload(frame));
  // Flip one bit at a spread of positions: header, payload, trailer.
  for (const std::size_t pos :
       {std::size_t{6}, wire::kFrameHeaderBytes, frame.size() / 2,
        frame.size() - 1}) {
    std::vector<std::uint8_t> damaged = frame;
    damaged[pos] ^= 0x10;
    EXPECT_THROW((void)wire::frame_payload(damaged), corruption_error)
        << "flip at byte " << pos << " was accepted";
  }
}

TEST(Wire, BadMagicVersionAndInsaneLengthAreCorruption) {
  const std::vector<std::uint8_t> frame = wire::encode_frame(1, -1, -1, {});
  {
    std::vector<std::uint8_t> bad = frame;
    bad[0] ^= 0xff;  // magic
    EXPECT_THROW((void)wire::decode_frame_header(bad), corruption_error);
  }
  {
    std::vector<std::uint8_t> bad = frame;
    bad[4] += 1;  // version
    EXPECT_THROW((void)wire::decode_frame_header(bad), corruption_error);
  }
  {
    // A length field beyond the sanity cap must be rejected as corruption
    // BEFORE anything tries to allocate it.
    std::vector<std::uint8_t> bad = frame;
    const std::uint32_t huge = wire::kFrameMaxPayload + 1;
    for (int i = 0; i < 4; ++i) {
      bad[16 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(huge >> (8 * i));
    }
    EXPECT_THROW((void)wire::decode_frame_header(bad), corruption_error);
  }
}

TEST(Wire, ReaderBoundsChecksEveryRead) {
  const std::vector<std::uint8_t> buf = {1, 2, 3};
  wire::ByteReader r{buf, 0, "tiny buffer"};
  EXPECT_EQ(r.u8(), 1);
  EXPECT_THROW((void)r.u32(), corruption_error);
  wire::ByteReader r2{buf, 0, "tiny buffer"};
  EXPECT_THROW((void)r2.str(), corruption_error);  // length prefix missing
}

TEST(Wire, ChecksumMatchesCheckpointIdiom) {
  // checksum64 is the shared fold: order-dependent, seed-dependent.
  const std::vector<std::uint8_t> a = {1, 2, 3, 4};
  const std::vector<std::uint8_t> b = {4, 3, 2, 1};
  EXPECT_NE(wire::checksum64(1, a), wire::checksum64(1, b));
  EXPECT_NE(wire::checksum64(1, a), wire::checksum64(2, a));
  EXPECT_EQ(wire::checksum64(7, a), wire::checksum64(7, a));
}

/// Re-seals a frame's trailing checksum after an edit, so only a field
/// check (not the checksum) can reject it.
void reseal_frame(std::vector<std::uint8_t>& frame) {
  const std::size_t body = frame.size() - wire::kFrameTrailerBytes;
  const std::uint64_t sum = wire::checksum64(
      wire::kFrameMagic, std::span<const std::uint8_t>(frame.data(), body));
  std::memcpy(frame.data() + body, &sum, sizeof(sum));
}

TEST(Wire, EverySingleBitFlipIsCorruption) {
  // An 11-byte payload makes the checksummed body 31 bytes: three whole
  // words plus a 7-byte tail, so the flips cover the word fold, the tail
  // fold and the trailer itself.
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  const std::vector<std::uint8_t> frame =
      wire::encode_frame(4, 2, 9, payload);
  ASSERT_EQ((frame.size() - wire::kFrameTrailerBytes) % 8, 7u);
  ASSERT_NO_THROW((void)wire::frame_payload(frame));
  for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
    std::vector<std::uint8_t> damaged = frame;
    damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_THROW((void)wire::frame_payload(damaged), corruption_error)
        << "flip of bit " << bit % 8 << " in byte " << bit / 8
        << " was accepted";
  }
}

TEST(Wire, ChecksumGoldenValues) {
  // Pinned outputs of the word-wise fold over bytes 1, 2, ..., n under the
  // frame seed. Frames and checkpoints both carry this checksum: changing
  // any value here changes both formats, so it requires bumping both
  // wire::kFrameVersion and the checkpoint format version.
  const std::pair<std::size_t, std::uint64_t> golden[] = {
      {0, 0xa3c0d9b1bd680114ULL}, {1, 0xa38a90f6ebf150e0ULL},
      {7, 0x462c424b39eb9897ULL}, {8, 0xee635f456806bd06ULL},
      {9, 0xbccf01d19b82cb79ULL}, {16, 0xf0bbebdadf31dcb5ULL},
  };
  for (const auto& [n, want] : golden) {
    std::vector<std::uint8_t> bytes(n);
    for (std::size_t i = 0; i < n; ++i) {
      bytes[i] = static_cast<std::uint8_t>(i + 1);
    }
    EXPECT_EQ(wire::checksum64(wire::kFrameMagic, bytes), want)
        << "length " << n;
  }
}

TEST(Wire, ChecksumSeparatesTrailingZeroBytes) {
  const std::vector<std::uint8_t> empty;
  const std::vector<std::uint8_t> zero = {0};
  EXPECT_NE(wire::checksum64(1, empty), wire::checksum64(1, zero));
  const std::vector<std::uint8_t> word = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<std::uint8_t> word_zero = word;
  word_zero.push_back(0);
  EXPECT_NE(wire::checksum64(1, word), wire::checksum64(1, word_zero));
}

TEST(Wire, BoundaryValuesRoundTrip) {
  const std::vector<std::int64_t> run = {
      0, -1, 1, std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max()};
  wire::ByteWriter w;
  w.i64(std::numeric_limits<std::int64_t>::min());
  w.u64(std::numeric_limits<std::uint64_t>::max());
  w.i32(-1);
  w.u16(std::numeric_limits<std::uint16_t>::max());
  w.u32(0x01020304u);
  w.i64s(run);
  // Fixed-width fields are little-endian on the wire.
  const std::size_t at = 8 + 8 + 4 + 2;
  EXPECT_EQ(std::vector<std::uint8_t>(w.buf.begin() + at,
                                      w.buf.begin() + at + 4),
            (std::vector<std::uint8_t>{4, 3, 2, 1}));
  ASSERT_EQ(w.buf.size(), at + 4 + run.size() * 8);

  wire::ByteReader r{w.buf, 0, "boundary values"};
  EXPECT_EQ(r.i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(r.u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(r.i32(), -1);
  EXPECT_EQ(r.u16(), std::numeric_limits<std::uint16_t>::max());
  EXPECT_EQ(r.u32(), 0x01020304u);
  std::vector<std::int64_t> got = {42};  // the bulk read appends
  r.i64s(static_cast<std::uint32_t>(run.size()), got);
  ASSERT_EQ(got.size(), run.size() + 1);
  EXPECT_EQ(got.front(), 42);
  EXPECT_TRUE(std::equal(run.begin(), run.end(), got.begin() + 1));
  EXPECT_EQ(r.pos, w.buf.size());

  // A bulk read past the end throws before its destination grows.
  wire::ByteReader short_r{std::span(w.buf).first(at + 4 + 15), at + 4,
                           "short run"};
  std::vector<std::int64_t> none;
  EXPECT_THROW(short_r.i64s(2, none), corruption_error);
  EXPECT_TRUE(none.empty());
}

TEST(Wire, U64ReadWithSevenBytesLeftThrows) {
  const std::vector<std::uint8_t> buf = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  wire::ByteReader r{buf, 0, "seven left"};
  EXPECT_EQ(r.u16(), 0x0201);
  EXPECT_THROW((void)r.u64(), corruption_error);
}

TEST(Wire, VersionOneFrameIsCorruption) {
  // Every older version: 1 (the byte-at-a-time checksum) and 2 (relay
  // entries per cut edge, addressed by receiver slot).
  for (const std::uint8_t version : {1, 2}) {
    std::vector<std::uint8_t> frame = wire::encode_frame(1, 0, 0, {});
    frame[4] = version;
    reseal_frame(frame);
    EXPECT_THROW((void)wire::frame_payload(frame), corruption_error)
        << "version " << int{version};
  }
}

TEST(Wire, SealedAndEncodedFramesAreByteIdentical) {
  wire::ByteWriter payload;
  payload.u32(7);
  payload.i64(-3);
  payload.str("sealed in place");
  wire::ByteWriter open = wire::open_frame();
  open.bytes(payload.buf);
  EXPECT_EQ(wire::seal_frame(2, 4, 9, std::move(open.buf)),
            wire::encode_frame(2, 4, 9, payload.buf));
  EXPECT_EQ(wire::seal_frame(6, -1, -1, wire::open_frame().buf),
            wire::encode_frame(6, -1, -1, {}));
  // A buffer without the header hole is a caller bug.
  EXPECT_THROW(
      (void)wire::seal_frame(1, 0, 0, std::vector<std::uint8_t>(3)),
      invariant_error);
}

TEST(Wire, OversizedPayloadIsRejectedBeforeEncoding) {
  // A never-touched anonymous mapping one byte past the cap: the size check
  // runs before any byte is read, so the test costs no resident memory.
  const std::size_t size = std::size_t{wire::kFrameMaxPayload} + 1;
  void* region = ::mmap(nullptr, size, PROT_READ,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  ASSERT_NE(region, MAP_FAILED);
  const std::span<const std::uint8_t> payload(
      static_cast<const std::uint8_t*>(region), size);
  try {
    (void)wire::encode_frame(1, 0, 0, payload);
    ADD_FAILURE() << "an over-cap payload was encoded";
  } catch (const invariant_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(std::to_string(size)), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(wire::kFrameMaxPayload)),
              std::string::npos)
        << what;
  }
  ::munmap(region, size);
}

// ---------------------------------------------------------------------------
// Wire traffic (that distributed runs are bit-identical to in-process ones
// at every worker count is an axis of tests/test_determinism_oracle.cpp)

TEST(DistWire, EveryPresetCrossesTheWire) {
  const Graph g = planted_arboricity(150, 3, 11);
  Knobs knobs;
  knobs.congest_words = kCongestWordsPaperPath;
  for (int p = 0; p < kNumPresets; ++p) {
    const auto preset = static_cast<Preset>(p);
    SCOPED_TRACE(preset_name(preset));
    sim::Runtime rt(g, 4, /*inline_shards=*/true);
    DistSession session(rt, DistConfig{.workers = 2,
                                       .backend = Backend::kLoopback});
    const LegalColoringResult got = color_graph(rt, 3, preset, knobs);
    EXPECT_TRUE(is_legal_coloring(g, got.colors));
    // At least one phase actually crossed the (simulated) wire.
    const PhaseWireMetrics totals = session.totals();
    EXPECT_TRUE(totals.distributed);
    EXPECT_GT(totals.wire_bytes, 0u);
    EXPECT_GT(totals.frames, 0u);
    EXPECT_GT(totals.round_trips, 0u);
  }
}

/// Per-phase wire metrics of one PolylogTime run over `backend`.
std::vector<PhaseWireMetrics> wire_metrics(const Graph& g, int shards,
                                           int workers, Backend backend) {
  Knobs knobs;
  knobs.congest_words = kCongestWordsPaperPath;
  sim::Runtime rt(g, shards, /*inline_shards=*/true);
  DistSession session(rt, DistConfig{.workers = workers, .backend = backend});
  (void)color_graph(rt, 3, Preset::PolylogTime, knobs);
  return session.metrics();
}

TEST(DistWire, ForkEncodesTheSameFramesAsLoopback) {
  const Graph g = planted_arboricity(140, 3, 7);
  for (const int shards : {1, 2, 8}) {
    for (const int workers : {2, 4}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " workers=" + std::to_string(workers));
      const std::vector<PhaseWireMetrics> loop =
          wire_metrics(g, shards, workers, Backend::kLoopback);
      const std::vector<PhaseWireMetrics> fork =
          wire_metrics(g, shards, workers, Backend::kFork);
      ASSERT_EQ(fork.size(), loop.size());
      for (std::size_t i = 0; i < fork.size(); ++i) {
        EXPECT_EQ(fork[i].distributed, loop[i].distributed);
        EXPECT_EQ(fork[i].wire_bytes, loop[i].wire_bytes)
            << "phase '" << fork[i].label
            << "': fork and loopback must encode identical wire traffic";
        EXPECT_EQ(fork[i].frames, loop[i].frames);
        EXPECT_EQ(fork[i].round_trips, loop[i].round_trips);
      }
      expect_no_zombie_children();
    }
  }
}

TEST(DistWire, PortSubsetSendsCrossTheWireBitIdentically) {
  // forest-labels sends on out-ports only: the relay must ship exactly the
  // cells a speaker wrote this round, never a stale cell on another port.
  const Graph g = planted_arboricity(3000, 3, 7);
  sim::Runtime ref(g, 4, /*inline_shards=*/true);
  const ForestsDecomposition want = forests_decomposition(ref, 3);
  ASSERT_TRUE(verify_forests_decomposition(g, want));
  for (const Backend backend : {Backend::kLoopback, Backend::kFork}) {
    SCOPED_TRACE(dist::backend_name(backend));
    sim::Runtime rt(g, 4, /*inline_shards=*/true);
    const DistSession session(rt, DistConfig{.workers = 2, .backend = backend});
    const ForestsDecomposition got = forests_decomposition(rt, 3);
    EXPECT_TRUE(verify_forests_decomposition(g, got));
    EXPECT_TRUE(dvc_test::bit_identical(want, ref.log(), got, rt.log()));
    EXPECT_TRUE(std::ranges::any_of(
        session.metrics(), [](const PhaseWireMetrics& m) {
          return m.label == "forest-labels" && m.distributed;
        }));
  }
  expect_no_zombie_children();
}

TEST(DistWire, WorkerCountAboveShardsClamps) {
  const Graph g = random_gnm(90, 240, 3);
  const int bound = std::max(1, arboricity_bounds(g).second);
  Knobs knobs;
  knobs.congest_words = kCongestWordsPaperPath;
  sim::Runtime rt(g, /*shards=*/2, /*inline_shards=*/true);
  DistConfig cfg;
  cfg.workers = 16;  // only 2 shards exist: clamps to 2 workers
  cfg.backend = Backend::kFork;
  DistSession session(rt, cfg);
  EXPECT_EQ(session.effective_workers(), 2);
  const LegalColoringResult got =
      color_graph(rt, bound, Preset::NearLinearColors, knobs);
  EXPECT_TRUE(is_legal_coloring(g, got.colors));
  EXPECT_EQ(session.totals().workers, 2);
  expect_no_zombie_children();
}

TEST(DistWire, DeclaredCongestWordsMatchRunStatsTotals) {
  const Graph g = planted_arboricity(120, 3, 19);
  Knobs knobs;
  knobs.congest_words = kCongestWordsPaperPath;
  sim::Runtime rt(g, 4, /*inline_shards=*/true);
  DistConfig cfg;
  cfg.workers = 2;
  cfg.backend = Backend::kLoopback;
  DistSession session(rt, cfg);
  (void)color_graph(rt, 3, Preset::LinearColors, knobs);
  // Per-phase declared words/messages are the phase's RunStats totals: the
  // CONGEST cost the paper reasons about, reported NEXT TO measured bytes
  // (which bound nothing per word: a broadcast crosses the wire once per
  // remote worker). Each run_phase adds one metrics entry and one log leaf.
  const sim::PhaseLog& log = rt.log();
  std::vector<std::size_t> leaves;
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (!log[i].span) leaves.push_back(i);
  }
  ASSERT_EQ(leaves.size(), session.metrics().size());
  int distributed = 0;
  for (std::size_t k = 0; k < leaves.size(); ++k) {
    const PhaseWireMetrics& m = session.metrics()[k];
    const sim::RunStats want = log.stats(leaves[k]);
    EXPECT_EQ(m.label, log.name(leaves[k]));
    if (!m.distributed) continue;
    ++distributed;
    EXPECT_EQ(m.declared_words, want.words) << "phase '" << m.label << "'";
    EXPECT_EQ(m.declared_messages, want.messages)
        << "phase '" << m.label << "'";
    EXPECT_EQ(m.rounds, want.rounds) << "phase '" << m.label << "'";
  }
  EXPECT_GT(distributed, 0);
}

/// Vertex 0 broadcasts one word in begin and halts; each neighbor halts
/// once it has heard it, and isolated vertices halt at once. No per-vertex
/// state, so the phase's frames depend only on who reaches which worker.
class CenterBroadcast : public sim::VertexProgram {
 public:
  std::string name() const override { return "center-broadcast"; }
  int max_words() const override { return 1; }
  bool dist_capable() const override { return true; }
  void begin(sim::Ctx& ctx) override {
    if (ctx.vertex() == 0) ctx.broadcast({42});
    if (ctx.vertex() == 0 || ctx.degree() == 0) ctx.halt();
  }
  void step(sim::Ctx& ctx, const sim::Inbox& inbox) override {
    DVC_ENSURE(inbox.size() == 1 && inbox[0].data[0] == 42,
               "a leaf did not hear the center's broadcast");
    ctx.halt();
  }
};

TEST(DistWire, BroadcastShipsOncePerRemoteWorker) {
  // A star whose m leaves all sit on the other worker: vertex 0 is the
  // center, 1..m are isolated (they balance the two-shard cut), m+1..2m
  // are the leaves. The center's broadcast crosses the wire once, so the
  // phase's bytes do not depend on m.
  for (const Backend backend : {Backend::kLoopback, Backend::kFork}) {
    SCOPED_TRACE(dist::backend_name(backend));
    std::vector<std::uint64_t> bytes;
    for (const V m : {8, 64}) {
      EdgeList edges;
      for (V i = 1; i <= m; ++i) edges.emplace_back(0, m + i);
      const Graph g = Graph::from_edges(2 * m + 1, edges);
      sim::Runtime rt(g, 2, /*inline_shards=*/true);
      ASSERT_EQ(rt.shard_bounds()[1], m + 1);  // every leaf on shard 1
      DistConfig cfg;
      cfg.workers = 2;
      cfg.backend = backend;
      DistSession session(rt, cfg);
      CenterBroadcast program;
      const sim::RunStats& stats = rt.run_phase(program, 4);
      EXPECT_EQ(stats.messages, static_cast<std::uint64_t>(m));
      ASSERT_TRUE(session.metrics().back().distributed);
      bytes.push_back(session.metrics().back().wire_bytes);
    }
    EXPECT_EQ(bytes[0], bytes[1])
        << "the broadcast crossed the wire once per leaf, not once";
  }
  expect_no_zombie_children();
}

// ---------------------------------------------------------------------------
// Failure edges: structured errors, never hangs, never leaks processes

TEST(DistFailure, SigkilledForkWorkerRaisesTransientWorkerLost) {
  const Graph g = planted_arboricity(140, 3, 7);
  Knobs knobs;
  knobs.congest_words = kCongestWordsPaperPath;
  sim::Runtime rt(g, 4, /*inline_shards=*/true);
  DistConfig cfg;
  cfg.workers = 2;
  cfg.backend = Backend::kFork;
  cfg.kill_at_sweep = 3;  // SIGKILL worker 1 mid-pipeline, mid-round
  cfg.kill_worker = 1;
  DistSession session(rt, cfg);
  try {
    (void)color_graph(rt, 3, Preset::PolylogTime, knobs);
    FAIL() << "killed worker did not surface";
  } catch (const worker_lost_error& e) {
    EXPECT_EQ(e.worker, 1);
    EXPECT_GE(e.phase, 0);
    EXPECT_NE(std::string(e.what()).find("worker 1"), std::string::npos);
    // The taxonomy contract: worker death is TRANSIENT (retry-safe), which
    // is what routes it into the service's self-healing path.
    const transient_error& as_transient = e;
    (void)as_transient;
  }
  expect_no_zombie_children();
}

TEST(DistFailure, LoopbackKillRaisesTheSameTaxonomy) {
  const Graph g = planted_arboricity(140, 3, 7);
  Knobs knobs;
  knobs.congest_words = kCongestWordsPaperPath;
  sim::Runtime rt(g, 4, /*inline_shards=*/true);
  DistConfig cfg;
  cfg.workers = 2;
  cfg.backend = Backend::kLoopback;
  cfg.kill_at_sweep = 3;
  cfg.kill_worker = 0;
  DistSession session(rt, cfg);
  EXPECT_THROW((void)color_graph(rt, 3, Preset::PolylogTime, knobs),
               worker_lost_error);
}

TEST(DistFailure, CorruptedStatsFrameIsDetectedByTheChecksum) {
  // The injected damage flips the stats frame's type byte, so it reads as a
  // messages frame whose destination (its first payload u32, the low word
  // of the first shard's message count) is worker 0: worker 1's shard holds
  // only isolated vertices, which send nothing. A coordinator that trusted
  // the type byte before the checksum would relay the frame and then wait
  // for a stats frame worker 1 already sent.
  const Graph g =
      Graph::from_edges(240, planted_arboricity(60, 3, 7).edges());
  Knobs knobs;
  knobs.congest_words = kCongestWordsPaperPath;
  for (const Backend backend : {Backend::kLoopback, Backend::kFork}) {
    SCOPED_TRACE(dist::backend_name(backend));
    sim::Runtime rt(g, 2, /*inline_shards=*/true);
    ASSERT_GE(rt.shard_bounds()[1], 60);  // shard 1 is all isolated vertices
    DistConfig cfg;
    cfg.workers = 2;
    cfg.backend = backend;
    cfg.corrupt_at_sweep = 2;  // flip the type byte AFTER frame encoding
    cfg.corrupt_worker = 1;
    DistSession session(rt, cfg);
    EXPECT_THROW((void)color_graph(rt, 3, Preset::PolylogTime, knobs),
                 corruption_error);
    expect_no_zombie_children();
  }
}

TEST(DistFailure, SessionStaysSoundAfterAWorkerDeath) {
  // The pool-reuse contract extended to the transport: a session whose
  // distributed phase lost a worker is scrubbed at the phase boundary and
  // then serves bit-identical results again.
  const Graph g = planted_arboricity(140, 3, 7);
  Knobs knobs;
  knobs.congest_words = kCongestWordsPaperPath;
  const LegalColoringResult base =
      solo_run(g, 3, Preset::NearLinearColors, 4);

  sim::Runtime rt(g, 4, /*inline_shards=*/true);
  {
    DistConfig cfg;
    cfg.workers = 2;
    cfg.backend = Backend::kFork;
    cfg.kill_at_sweep = 2;
    DistSession session(rt, cfg);
    EXPECT_THROW(
        (void)color_graph(rt, 3, Preset::NearLinearColors, knobs),
        worker_lost_error);
  }
  expect_no_zombie_children();
  rt.reset_log();
  {
    DistConfig cfg;
    cfg.workers = 2;
    cfg.backend = Backend::kFork;
    DistSession session(rt, cfg);
    const LegalColoringResult healed =
        color_graph(rt, 3, Preset::NearLinearColors, knobs);
    EXPECT_TRUE(dvc_test::bit_identical(base, healed))
        << "post-death session diverged";
  }
  expect_no_zombie_children();
}

TEST(DistFailure, CoordinatorTeardownWithFramesInFlightNeverHangs) {
  // Tear the coordinator down while workers are mid-phase (frames queued,
  // workers parked in recv): the DistSession destructor must kill, reap and
  // return -- a hang here would time the whole suite out.
  const Graph g = planted_arboricity(140, 3, 7);
  Knobs knobs;
  knobs.congest_words = kCongestWordsPaperPath;
  auto rt = std::make_unique<sim::Runtime>(g, 4, /*inline_shards=*/true);
  DistConfig cfg;
  cfg.workers = 2;
  cfg.backend = Backend::kFork;
  cfg.kill_at_sweep = 4;
  auto session = std::make_unique<DistSession>(*rt, cfg);
  EXPECT_THROW((void)color_graph(*rt, 3, Preset::PolylogTime, knobs),
               worker_lost_error);
  // Unwind order mirrors a crashing coordinator: session first (kills and
  // reaps the abandoned workers of the failed phase), then the runtime.
  session.reset();
  rt.reset();
  expect_no_zombie_children();
}

/// Body of the death test below: colors once, then lowers RLIMIT_NOFILE to
/// leave room for exactly one socketpair, so worker 0 forks and worker 1's
/// socketpair fails; then colors again on the same session with the limit
/// restored. Exits 0 only if that held, the last coloring equals the first
/// and no forked worker was left unreaped; any other outcome is named on
/// stderr, which the death test prints.
[[noreturn]] void color_with_room_for_one_socketpair(const Graph& g) {
  const auto die = [](const char* why) {
    std::fprintf(stderr, "%s\n", why);
    std::_Exit(1);
  };
  Knobs knobs;
  knobs.congest_words = kCongestWordsPaperPath;
  sim::Runtime rt(g, 4, /*inline_shards=*/true);
  DistConfig cfg;
  cfg.workers = 2;
  cfg.backend = Backend::kFork;
  {
    DistSession session(rt, cfg);
    // The first coloring and a refused session run at the full limit.
    // Under -fsanitize=vptr they also fill the sanitizer's type cache, whose
    // misses open a pipe that the lowered limit would leave no room for;
    // for the same reason the error's what() is read only after the limit
    // is restored.
    const LegalColoringResult want =
        color_graph(rt, 3, Preset::PolylogTime, knobs);
    rt.reset_log();
    try {
      DistSession refused(rt, DistConfig{.workers = 0});
      die("a session with no workers was accepted");
    } catch (const precondition_error& e) {
      (void)e.what();
    }
    int probe[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, probe) != 0) die("no probe");
    ::close(probe[0]);
    ::close(probe[1]);
    rlimit old{};
    ::getrlimit(RLIMIT_NOFILE, &old);
    rlimit low = old;
    low.rlim_cur = static_cast<rlim_t>(std::max(probe[0], probe[1]) + 1);
    if (::setrlimit(RLIMIT_NOFILE, &low) != 0) die("setrlimit failed");
    std::exception_ptr failure;
    try {
      (void)color_graph(rt, 3, Preset::PolylogTime, knobs);
    } catch (const precondition_error&) {
      failure = std::current_exception();
    }
    if (::setrlimit(RLIMIT_NOFILE, &old) != 0) die("setrlimit restore failed");
    if (!failure) die("the coloring ran with room for one socketpair");
    try {
      std::rethrow_exception(failure);
    } catch (const precondition_error& e) {
      const std::string what = e.what();
      if (what.find("socketpair failed") == std::string::npos) die(e.what());
    }
    rt.reset_log();
    if (!dvc_test::bit_identical(
            want, color_graph(rt, 3, Preset::PolylogTime, knobs))) {
      die("the coloring after the failure differs from the first");
    }
  }
  expect_no_zombie_children();
  if (::testing::Test::HasFailure()) {
    die("a worker process outlived its DistSession");
  }
  std::_Exit(0);
}

TEST(DistDeathTest, FailedSocketpairOfALaterWorkerReapsTheEarlierOnes) {
  // A death test: the lowered fd limit and the zombie check stay out of
  // this process.
  const Graph g = planted_arboricity(140, 3, 7);
  EXPECT_EXIT(color_with_room_for_one_socketpair(g),
              ::testing::ExitedWithCode(0), "");
}

TEST(DistFailure, ThreadedSessionRejectsTheTransportStructurally) {
  // The fork backend must never fork a process carrying parked shard
  // threads; set_phase_executor enforces inline shards at install time.
  const Graph g = cycle_graph(64);
  sim::Runtime rt(g, 4);  // threaded session
  DistConfig cfg;
  cfg.workers = 2;
  EXPECT_THROW({ DistSession session(rt, cfg); }, std::exception);
}

TEST(DistFailure, BandwidthErrorInAWorkerCrossesTheWireIntact) {
  // A CONGEST violation inside a worker process must arrive at the
  // coordinator as the SAME structured type with its fields -- the error
  // taxonomy survives serialization.
  const Graph g = cycle_graph(96);
  Knobs knobs;
  sim::Runtime rt(g, 2, /*inline_shards=*/true);
  rt.set_congest_words(2);  // FloodAll sends 3-word payloads
  DistConfig cfg;
  cfg.workers = 2;
  cfg.backend = Backend::kFork;
  DistSession session(rt, cfg);
  DistFlood flood(4);
  try {
    rt.run_phase(flood, 16);
    FAIL() << "bandwidth violation did not surface";
  } catch (const sim::bandwidth_error& e) {
    EXPECT_EQ(e.words, 3);
    EXPECT_EQ(e.cap, 2);
    EXPECT_NE(std::string(e.what()).find("worker"), std::string::npos);
  }
  expect_no_zombie_children();
}

// ---------------------------------------------------------------------------
// Service integration: pool scheduling jobs onto worker processes

JobSpec dist_spec(ColoringService& svc, const Graph& g, int workers,
                  Backend backend) {
  JobSpec spec;
  spec.graph = svc.intern(Graph(g));
  spec.arboricity_bound = 3;
  spec.preset = Preset::NearLinearColors;
  spec.knobs.congest_words = kCongestWordsPaperPath;
  spec.dist.workers = workers;
  spec.dist.backend = backend;
  return spec;
}

TEST(DistService, DistributedJobMatchesInProcessJobAndReportsWireBytes) {
  const Graph g = planted_arboricity(150, 3, 11);
  const LegalColoringResult base =
      solo_run(g, 3, Preset::NearLinearColors, 2);

  ServiceConfig config;
  config.workers = 2;
  config.default_shards = 2;
  // A distributed run is bit-identical to the in-process run, so the result
  // cache deliberately shares entries across the two flavors; disable it so
  // the distributed job actually executes and fills its wire metadata.
  config.result_cache_capacity = 0;
  ColoringService svc(config);
  // In-process job for reference...
  JobSpec plain = dist_spec(svc, g, /*workers=*/0, Backend::kFork);
  const JobResult plain_res = svc.wait(svc.submit(std::move(plain)));
  ASSERT_TRUE(plain_res.ok) << plain_res.error;
  EXPECT_TRUE(dvc_test::bit_identical(base, plain_res.result))
      << "in-process service job";
  EXPECT_EQ(plain_res.dist_workers, 0);
  EXPECT_EQ(plain_res.wire_bytes, 0u);
  // ...then the same work over 2 worker processes.
  JobSpec dist = dist_spec(svc, g, /*workers=*/2, Backend::kFork);
  const JobResult dist_res = svc.wait(svc.submit(std::move(dist)));
  ASSERT_TRUE(dist_res.ok) << dist_res.error;
  EXPECT_TRUE(dvc_test::bit_identical(base, dist_res.result))
      << "distributed service job";
  EXPECT_EQ(dist_res.dist_workers, 2);
  EXPECT_GT(dist_res.wire_bytes, 0u);
  EXPECT_GT(dist_res.wire_frames, 0u);
}

TEST(DistService, PoolKeysThreadedAndInlineSessionsSeparately) {
  // A distributed job must never be handed a threaded session or vice
  // versa: the two flavors pool under distinct keys, so alternating jobs
  // still warm-hit their own kind.
  const Graph g = planted_arboricity(150, 3, 11);
  ServiceConfig config;
  config.workers = 1;
  config.default_shards = 2;
  config.result_cache_capacity = 0;  // force every job through a session
  ColoringService svc(config);
  for (int round = 0; round < 2; ++round) {
    JobSpec plain = dist_spec(svc, g, 0, Backend::kFork);
    JobSpec dist = dist_spec(svc, g, 2, Backend::kLoopback);
    const JobResult a = svc.wait(svc.submit(std::move(plain)));
    const JobResult b = svc.wait(svc.submit(std::move(dist)));
    ASSERT_TRUE(a.ok && b.ok);
    EXPECT_EQ(a.result.colors, b.result.colors);
    if (round == 1) {
      // Second round: both flavors should have found a warm session of
      // their own kind in the pool.
      EXPECT_TRUE(a.warm_session);
      EXPECT_TRUE(b.warm_session);
    }
  }
}

TEST(DistService, SigkilledWorkerIsHealedByRetryCheckpointBitIdentically) {
  // The acceptance bar, end to end: a worker process SIGKILLed mid-round
  // fails the attempt with a transient worker_lost_error; the service
  // retries on a fresh session, resuming from the checkpoint captured at
  // the failed run's last completed phase boundary (replay-verified), and
  // the healed result is BITWISE-equal to the fault-free run.
  const Graph g = planted_arboricity(150, 3, 11);
  const LegalColoringResult base =
      solo_run(g, 3, Preset::NearLinearColors, 2);

  ServiceConfig config;
  config.workers = 1;
  config.default_shards = 2;
  config.retry.max_attempts = 2;
  config.retry.backoff_base_ms = 0.0;
  ColoringService svc(config);

  JobSpec spec = dist_spec(svc, g, /*workers=*/2, Backend::kFork);
  spec.dist.kill_at_sweep = 4;  // mid-pipeline, past the first boundary
  spec.dist.kill_worker = 1;
  spec.dist.kill_attempt = 0;  // attempt 0 dies; the retry runs clean
  const JobResult res = svc.wait(svc.submit(std::move(spec)));
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.recovered) << "the job must have healed through a retry";
  EXPECT_EQ(res.attempts, 2);
  EXPECT_TRUE(dvc_test::bit_identical(base, res.result))
      << "healed result diverged from fault-free";

  const auto metrics = svc.metrics();
  EXPECT_GE(metrics.retries, 1u);
  EXPECT_GE(metrics.recoveries, 1u);
  expect_no_zombie_children();
}

TEST(DistService, ArmedKillBypassesTheResultCacheBothWays) {
  const Graph g = planted_arboricity(150, 3, 11);
  ServiceConfig config;
  config.workers = 1;
  config.default_shards = 2;
  config.retry.max_attempts = 2;
  config.retry.backoff_base_ms = 0.0;
  ColoringService svc(config);
  // Populate the cache with a clean distributed run...
  JobSpec warm = dist_spec(svc, g, 2, Backend::kLoopback);
  ASSERT_TRUE(svc.wait(svc.submit(std::move(warm))).ok);
  // ...then an armed-kill job with the identical key must RUN (and fault,
  // and heal), not answer from the cache.
  JobSpec chaos = dist_spec(svc, g, 2, Backend::kLoopback);
  chaos.dist.kill_at_sweep = 3;
  const JobResult res = svc.wait(svc.submit(std::move(chaos)));
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_FALSE(res.cache_hit);
  EXPECT_TRUE(res.recovered);
}

}  // namespace
}  // namespace dvc
