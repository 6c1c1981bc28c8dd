// E12 -- message-passing throughput of the runtime on a G(n, Delta)
// flood, best-of-3 per configuration. Every configuration appends a record
// to BENCH_micro.json (family, n, Delta, rounds, messages, work_items,
// wall-ms, throughput). A `wire_codec` record adds the dist transport's
// codec cost in ns/byte, best-of-3, on a 16 MiB relay-shaped frame.
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "bench_stats.hpp"
#include "common/wire.hpp"
#include "dist/transport.hpp"
#include "graph/generators.hpp"
#include "sim/runtime.hpp"

namespace {

using namespace dvc;

constexpr int kFloodRounds = 8;

// Every vertex broadcasts a 1-word payload for kFloodRounds rounds: the
// densest message schedule the LOCAL model allows (2m messages per round).
class FloodAll : public sim::VertexProgram {
 public:
  std::string name() const override { return "flood"; }
  void begin(sim::Ctx& ctx) override { ctx.broadcast({1}); }
  void step(sim::Ctx& ctx, const sim::Inbox&) override {
    if (ctx.round() >= kFloodRounds) ctx.halt();
    else ctx.broadcast({1});
  }
};

void bench_flood_throughput(benchio::JsonSink& sink) {
  std::cout << "== message-passing throughput: G(n, Delta) flood, "
            << kFloodRounds << " rounds ==\n";
  struct Config { V n; int delta; };
  for (const Config cfg : {Config{1 << 13, 8}, Config{1 << 15, 8},
                           Config{1 << 15, 32}}) {
    const Graph g = random_near_regular(cfg.n, cfg.delta, 1);
    constexpr int kReps = 3;  // best-of-N to damp OS noise

    sim::Runtime rt(g, /*shards=*/1);
    sim::RunStats stats;
    const double ms = benchio::min_ms_over(kReps, [&] {
      FloodAll prog;
      stats = rt.run_phase(prog, kFloodRounds + 4);
    });
    const double mps = static_cast<double>(stats.messages) / (ms / 1e3);
    std::cout << "n=" << g.num_vertices() << " Delta=" << g.max_degree()
              << ": " << static_cast<std::int64_t>(mps / 1e3) << " kmsg/s\n";

    sink.add(benchio::JsonRecord()
                 .field("bench", "flood_throughput")
                 .field("family", "near_regular")
                 .field("n", static_cast<std::int64_t>(g.num_vertices()))
                 .field("delta", g.max_degree())
                 .field("rounds", stats.rounds)
                 .field("messages", stats.messages)
                 .field("words", stats.words)
                 .field("work_items", stats.work_items)
                 .field("max_msg_words",
                        static_cast<std::int64_t>(stats.max_msg_words))
                 .field("wall_ms", ms)
                 .field("msgs_per_sec", mps));
  }
}

// One kMsgs frame shaped like the relay's: u32 dest, u32 count, then per
// entry { u32 slot, u32 sender_shard, u32 len, len x i64 words } with 1-3
// words per message. `checksum` folds the whole frame; `encode` writes the
// entries and seals the frame (its checksum included); `decode` validates
// the frame (checksum included) and reads every entry's words back.
void bench_wire_codec(benchio::JsonSink& sink) {
  std::cout << "\n== wire codec: 16 MiB relay-shaped frame ==\n";
  constexpr std::size_t kPayloadBytes = std::size_t{16} << 20;
  struct Entry { std::uint32_t slot, shard, len; };
  std::vector<Entry> entries;
  std::vector<std::int64_t> words;
  for (std::size_t bytes = 8; bytes < kPayloadBytes;) {
    const auto i = static_cast<std::uint32_t>(entries.size());
    const Entry e{i * 7u, i % 4u, 1u + i % 3u};
    for (std::uint32_t k = 0; k < e.len; ++k) {
      words.push_back(static_cast<std::int64_t>(
          std::uint64_t{i} * 0x9e3779b97f4a7c15ULL - k));
    }
    entries.push_back(e);
    bytes += 12 + 8 * std::size_t{e.len};
  }
  const auto encode = [&] {
    wire::ByteWriter w;
    w.buf.reserve(kPayloadBytes + 64);
    w.u32(0);
    w.u32(static_cast<std::uint32_t>(entries.size()));
    std::size_t off = 0;
    for (const Entry& e : entries) {
      w.u32(e.slot);
      w.u32(e.shard);
      w.u32(e.len);
      w.i64s({words.data() + off, e.len});
      off += e.len;
    }
    return wire::encode_frame(
        static_cast<std::uint8_t>(dist::FrameType::kMsgs), 0, 0, w.buf);
  };
  std::vector<std::uint8_t> frame = encode();
  std::vector<std::int64_t> decoded;
  decoded.reserve(words.size());
  const auto decode = [&] {
    decoded.clear();
    wire::ByteReader r{wire::frame_payload(frame), 0, "relay frame"};
    (void)r.u32();
    const std::uint32_t n = r.u32();
    for (std::uint32_t i = 0; i < n; ++i) {
      (void)r.u32();
      (void)r.u32();
      r.i64s(r.u32(), decoded);
    }
  };

  constexpr int kReps = 3;
  volatile std::uint64_t fold = 0;  // keeps the checksum from being elided
  const double checksum_ms = benchio::min_ms_over(
      kReps, [&] { fold = wire::checksum64(wire::kFrameMagic, frame); });
  const double encode_ms =
      benchio::min_ms_over(kReps, [&] { frame = encode(); });
  const double decode_ms = benchio::min_ms_over(kReps, decode);
  DVC_CHECK(decoded == words, "wire codec bench: decoded words differ");

  const auto ns_per_byte = [&](double ms) {
    return ms * 1e6 / static_cast<double>(frame.size());
  };
  std::cout << "frame " << frame.size() << " B, " << entries.size()
            << " entries: checksum " << ns_per_byte(checksum_ms)
            << " ns/B, encode " << ns_per_byte(encode_ms) << " ns/B, decode "
            << ns_per_byte(decode_ms) << " ns/B\n";
  sink.add(benchio::JsonRecord()
               .field("bench", "wire_codec")
               .field("frame_bytes", static_cast<std::uint64_t>(frame.size()))
               .field("entries", static_cast<std::uint64_t>(entries.size()))
               .field("checksum_ns_per_byte", ns_per_byte(checksum_ms))
               .field("encode_ns_per_byte", ns_per_byte(encode_ms))
               .field("decode_ns_per_byte", ns_per_byte(decode_ms)));
}

}  // namespace

int main() {
  std::cout << "E12: runtime flood throughput\n\n";
  benchio::JsonSink sink("micro");
  bench_flood_throughput(sink);
  bench_wire_codec(sink);
  return 0;
}
