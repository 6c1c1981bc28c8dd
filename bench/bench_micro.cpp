// E12 -- message-passing throughput of the runtime on a G(n, Delta)
// flood, best-of-3 per configuration. Every configuration appends a record
// to BENCH_micro.json (family, n, Delta, rounds, messages, work_items,
// wall-ms, throughput).
#include <iostream>
#include <string>

#include "bench_json.hpp"
#include "bench_stats.hpp"
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

}  // namespace

int main() {
  std::cout << "E12: runtime flood throughput\n\n";
  benchio::JsonSink sink("micro");
  bench_flood_throughput(sink);
  return 0;
}
