// E12 -- micro-costs of the simulation substrate, now with a machine-
// readable trail: every configuration appends a record to BENCH_micro.json
// (family, n, Delta, rounds, messages, work_items, wall-ms, throughput) so
// the perf trajectory is tracked across PRs.
//
// Sections:
//   * message-passing throughput of the runtime on a G(n, Delta) flood;
//   * round-loop cost of the live-list executor on tail-heavy workloads (a
//     small live frontier inside a large graph) and on an all-live flood,
//     with the work_items and peak_live counters that make the cost
//     auditable;
//   * per-array CSR footprint;
//   * substrate end-to-end costs (h_partition, legal_coloring per phase,
//     degeneracy).
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "bench_stats.hpp"
#include "core/legal_coloring.hpp"
#include "decomp/h_partition.hpp"
#include "graph/arboricity.hpp"
#include "graph/generators.hpp"
#include "sim/runtime.hpp"

namespace {

using namespace dvc;
using benchio::Clock;
using benchio::ms_since;

using benchio::peak_active;

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

// Tail-heavy workload: 1-in-`sparsity` vertices survive begin() and keep
// exchanging 1-word messages on up to `fanout` ports (fanout < 0:
// broadcast) for `rounds` rounds, on a staggered schedule -- a survivor
// sends only on its 1-in-`period` rounds, the way the pipeline's greedy
// sweeps let one color class speak per round. This is the shape of the
// layer-peeling and refinement tails, where the paper's "all vertices
// active" observation does not hold; sparsity 1 / period 1 is the all-live
// flood where it does.
class TailExchange : public sim::VertexProgram {
 public:
  TailExchange(int sparsity, int fanout, int period, int rounds)
      : sparsity_(sparsity), fanout_(fanout), period_(period),
        rounds_(rounds) {}
  std::string name() const override { return "tail-exchange"; }
  int max_words() const override { return 1; }
  void begin(sim::Ctx& ctx) override {
    if (ctx.id() % sparsity_ != 0) {
      ctx.halt();
      return;
    }
    maybe_send(ctx);
  }
  void step(sim::Ctx& ctx, const sim::Inbox&) override {
    if (ctx.round() >= rounds_) ctx.halt();
    else maybe_send(ctx);
  }

 private:
  void maybe_send(sim::Ctx& ctx) {
    const auto slot = (ctx.id() / sparsity_) % period_;
    if (ctx.round() % period_ != static_cast<int>(slot)) return;
    const int deg = ctx.degree();
    const int ports = fanout_ < 0 ? deg : std::min(fanout_, deg);
    for (int p = 0; p < ports; ++p) ctx.send(p, {1});
  }
  int sparsity_;
  int fanout_;
  int period_;
  int rounds_;
};

/// Round-loop cost of the executor on tail-heavy workloads and the all-live
/// flood, best-of-3 on a persistent single-shard session.
void bench_tail(benchio::JsonSink& sink) {
  std::cout << "\n== round loop: tail-heavy frontiers and the all-live flood ==\n";
  struct Config {
    const char* label;
    const char* family;
    Graph g;
    int sparsity;
    int fanout;
    int period;
    int rounds;
  };
  std::vector<Config> configs;
  configs.push_back({"sparse tail, staggered 2-port frontier", "near_regular",
                     random_near_regular(1 << 17, 16, 7), 128, 2, 8, 256});
  configs.push_back({"sparse tail, staggered broadcast frontier",
                     "planted_arboricity", planted_arboricity(1 << 16, 16, 7),
                     64, -1, 16, 192});
  configs.push_back({"all-live flood", "near_regular",
                     random_near_regular(1 << 15, 16, 9), 1, -1, 1, 64});
  constexpr int kReps = 3;
  for (const Config& cfg : configs) {
    sim::Runtime rt(cfg.g, /*shards=*/1);
    sim::RunStats stats;
    const double ms = benchio::min_ms_over(kReps, [&] {
      TailExchange prog(cfg.sparsity, cfg.fanout, cfg.period, cfg.rounds);
      stats = rt.run_phase(prog, cfg.rounds + sim::kRoundCapSlack);
    });
    const double live_fraction =
        static_cast<double>(peak_active(stats)) /
        static_cast<double>(cfg.g.num_vertices());
    std::cout << cfg.label << ": n=" << cfg.g.num_vertices()
              << " live<=" << peak_active(stats) << " ("
              << 100.0 * live_fraction << "%), " << ms << " ms\n";
    sink.add(benchio::JsonRecord()
                 .field("bench", "tail_exchange")
                 .field("config", cfg.label)
                 .field("family", cfg.family)
                 .field("n", static_cast<std::int64_t>(cfg.g.num_vertices()))
                 .field("delta", cfg.g.max_degree())
                 .field("rounds", stats.rounds)
                 .field("messages", stats.messages)
                 .field("work_items", stats.work_items)
                 .field("peak_live", peak_active(stats))
                 .field("live_fraction", live_fraction)
                 .field("wall_ms", ms));
  }
}

// Per-array CSR footprint (satellite of the giant-graph work): bytes per
// vertex of the 32-bit offset/mirror layout, tracked as a first-class bench
// number.
void bench_graph_memory(benchio::JsonSink& sink) {
  std::cout << "\n== graph memory: CSR bytes per vertex ==\n";
  struct Config { const char* family; Graph g; };
  for (const Config& cfg :
       {Config{"near_regular", random_near_regular(1 << 15, 16, 3)},
        Config{"barabasi_albert", barabasi_albert(1 << 15, 8, 3)}}) {
    const auto mb = cfg.g.memory_breakdown();
    const double bpv = static_cast<double>(cfg.g.memory_bytes()) /
                       static_cast<double>(cfg.g.num_vertices());
    std::cout << cfg.family << " n=" << cfg.g.num_vertices() << ": " << bpv
              << " B/vertex\n";
    sink.add(benchio::JsonRecord()
                 .field("bench", "graph_memory")
                 .field("family", cfg.family)
                 .field("n", static_cast<std::int64_t>(cfg.g.num_vertices()))
                 .field("edges", cfg.g.num_edges())
                 .field("offsets_bytes", mb.offsets_bytes)
                 .field("adjacency_bytes", mb.adjacency_bytes)
                 .field("mirror_bytes", mb.mirror_bytes)
                 .field("bytes_per_vertex", bpv));
  }
}

void bench_substrate(benchio::JsonSink& sink) {
  std::cout << "\n== substrate end-to-end costs ==\n";
  {
    const Graph g = planted_arboricity(1 << 15, 8, 2);
    sim::Runtime rt(g);
    auto t0 = Clock::now();
    const HPartitionResult hp = h_partition(rt, 8);
    const double ms = ms_since(t0);
    std::cout << "h_partition n=" << g.num_vertices() << ": " << ms << " ms\n";
    sink.add(benchio::JsonRecord()
                 .field("bench", "h_partition")
                 .field("family", "planted_arboricity")
                 .field("n", static_cast<std::int64_t>(g.num_vertices()))
                 .field("delta", g.max_degree())
                 .field("rounds", hp.stats.rounds)
                 .field("messages", hp.stats.messages)
                 .field("wall_ms", ms));
  }
  {
    const Graph g = planted_arboricity(1 << 13, 8, 3);
    sim::Runtime rt(g);
    auto t0 = Clock::now();
    const LegalColoringResult res = legal_coloring(rt, 8, 4);
    const double ms = ms_since(t0);
    std::cout << "legal_coloring n=" << g.num_vertices() << ": " << ms
              << " ms (" << res.distinct << " colors, " << res.total.rounds
              << " rounds, B=" << res.total.max_msg_words << " words/msg)\n";
    sink.add(benchio::JsonRecord()
                 .field("bench", "legal_coloring")
                 .field("family", "planted_arboricity")
                 .field("n", static_cast<std::int64_t>(g.num_vertices()))
                 .field("delta", g.max_degree())
                 .field("rounds", res.total.rounds)
                 .field("messages", res.total.messages)
                 .field("total_words", res.total.words)
                 .field("work_items", res.total.work_items)
                 .field("peak_live", peak_active(res.total))
                 .field("max_msg_words",
                        static_cast<std::int64_t>(res.total.max_msg_words))
                 .field("peak_round_words", benchio::peak_round_words(res.total))
                 .field("wall_ms", ms));
    // Per-phase breakdown from the session PhaseLog (depth encodes the
    // span tree; spans aggregate their subtrees). peak_live is derived
    // from each leaf's active_per_round series (spans: subtree max), so
    // the live-list executor's cost is auditable per phase from this file.
    for (std::size_t i = 0; i < res.phases.size(); ++i) {
      const auto& entry = res.phases[i];
      sink.add(benchio::JsonRecord()
                   .field("bench", "legal_coloring_phase")
                   .field("phase", std::string(res.phases.name(i)))
                   .field("depth", entry.depth)
                   .field("span", entry.span ? 1 : 0)
                   .field("rounds", entry.rounds)
                   .field("messages", entry.messages)
                   .field("words", entry.words)
                   .field("work_items", entry.work_items)
                   .field("peak_live", res.phases.peak_active(i))
                   .field("max_msg_words",
                          static_cast<std::int64_t>(entry.max_msg_words)));
    }
  }
  {
    const Graph g = planted_arboricity(1 << 15, 8, 4);
    auto t0 = Clock::now();
    const int d = degeneracy(g);
    const double ms = ms_since(t0);
    std::cout << "degeneracy n=" << g.num_vertices() << ": " << ms << " ms (d="
              << d << ")\n";
    sink.add(benchio::JsonRecord()
                 .field("bench", "degeneracy")
                 .field("family", "planted_arboricity")
                 .field("n", static_cast<std::int64_t>(g.num_vertices()))
                 .field("delta", g.max_degree())
                 .field("wall_ms", ms));
  }
}

}  // namespace

int main() {
  std::cout << "E12: simulation-substrate microbenchmarks\n\n";
  benchio::JsonSink sink("micro");
  bench_flood_throughput(sink);
  bench_tail(sink);
  bench_graph_memory(sink);
  bench_substrate(sink);
  return 0;
}
