// E14 -- giant-graph scale path: streaming-build a Graph500-class instance
// (R-MAT or Barabasi-Albert, scale = log2 n, edgefactor ~ m/n), color it
// with a paper-path preset under the CONGEST budget, and report the full
// memory story: per-array CSR bytes, runtime arena bytes, bytes per vertex
// and per slot, and the process peak RSS. Every configuration appends a
// "scale"-schema record to BENCH_scale.json. The run exits nonzero when a
// coloring is illegal or uses more colors than its palette formula, when
// peak_rss_bytes, bytes_per_vertex or rounds_per_sec is missing or
// non-positive, or when the steady state breaks the 64 B/slot budget.
//
//   ./bench_scale [--scale=20] [--edgefactor=16] [--family=rmat|ba|both]
//                 [--preset=polylog] [--seed=1] [--shards=1]
//   ./bench_scale --smoke      # scale-16 ctest gate on both families
//
// The scale-24 budget this bench exists to police (see DESIGN.md, "Memory
// layout & giant graphs"): graph + runtime state must stay under 64 bytes
// per directed slot, so a scale-24/ef16 instance (~5.4e8 slots) fits in
// ~32 GiB of arenas + CSR on a commodity box.
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "bench_stats.hpp"
#include "common/cli.hpp"
#include "core/api.hpp"
#include "graph/arboricity.hpp"
#include "graph/coloring.hpp"
#include "graph/generators.hpp"
#include "sim/runtime.hpp"

namespace {

using namespace dvc;
using benchio::Clock;
using benchio::ms_since;

Preset parse_preset(const std::string& name) {
  if (name == "polylog") return Preset::PolylogTime;
  if (name == "linear") return Preset::LinearColors;
  if (name == "nearlinear") return Preset::NearLinearColors;
  if (name == "fastsub") return Preset::FastSubquadratic;
  if (name == "tradeoff") return Preset::TradeoffAT;
  std::cerr << "unknown --preset=" << name
            << " (want polylog|linear|nearlinear|fastsub|tradeoff)\n";
  std::exit(2);
}

/// Builds, bounds, colors and reports one (family, scale) configuration.
/// Returns false if the run failed a correctness check.
bool run_config(benchio::JsonSink& sink, const std::string& family, int scale,
                int edgefactor, std::uint64_t seed, Preset preset, int shards) {
  std::cout << "-- " << family << " scale=" << scale
            << " edgefactor=" << edgefactor << " --\n";

  auto t0 = Clock::now();
  const Graph g = family == "rmat"
                      ? rmat_graph(scale, edgefactor, seed)
                      : barabasi_albert_scale(scale, edgefactor, seed);
  const double build_ms = ms_since(t0);
  const auto n = static_cast<std::int64_t>(g.num_vertices());
  std::cout << "   built: n=" << n << " m=" << g.num_edges()
            << " Delta=" << g.max_degree() << " in " << build_ms
            << " ms (" << g.memory_bytes() / (1 << 20) << " MiB CSR)\n";

  // Degeneracy is a certified arboricity bound (a <= degeneracy), computed
  // in linear time -- the honest "paper input" for a graph with no planted
  // structure. For BA it also certifies the attachment bound k.
  t0 = Clock::now();
  const int bound = degeneracy(g);
  const double bound_ms = ms_since(t0);
  std::cout << "   degeneracy=" << bound << " in " << bound_ms << " ms\n";

  // One explicit session so the runtime's arena footprint is measurable
  // next to the graph's; the paper-path CONGEST budget applies throughout.
  sim::Runtime rt(g, shards);
  Knobs knobs;
  knobs.congest_words = kCongestWordsPaperPath;
  t0 = Clock::now();
  const LegalColoringResult res = color_graph(rt, bound, preset, knobs);
  const double color_ms = ms_since(t0);

  bool ok = true;
  if (!is_legal_coloring(g, res.colors)) {
    std::cout << "   FAILURE: coloring is not legal\n";
    ok = false;
  }
  if (static_cast<std::uint64_t>(res.distinct) > res.palette_formula) {
    std::cout << "   FAILURE: " << res.distinct
              << " colors exceed the palette formula's "
              << res.palette_formula << "\n";
    ok = false;
  }

  const double seconds = color_ms / 1e3;
  const double rounds_per_sec =
      seconds > 0.0 ? static_cast<double>(res.total.rounds) / seconds : 0.0;
  const std::uint64_t graph_bytes = g.memory_bytes();
  const sim::Runtime::MemoryBreakdown rb = rt.memory_breakdown();
  const std::uint64_t runtime_bytes = rb.total();
  // The DESIGN.md budget line: slot-indexed steady state (graph + arenas +
  // indexes + per-vertex bookkeeping), excluding the traffic-proportional
  // payload high-water, which is reported separately.
  const double steady_bytes_per_slot =
      g.num_slots() > 0
          ? static_cast<double>(graph_bytes + rb.steady_bytes()) /
                static_cast<double>(g.num_slots())
          : 0.0;
  const double bytes_per_vertex =
      n > 0 ? static_cast<double>(graph_bytes + runtime_bytes) /
                  static_cast<double>(n)
            : 0.0;
  const double bytes_per_slot =
      g.num_slots() > 0
          ? static_cast<double>(graph_bytes + runtime_bytes) /
                static_cast<double>(g.num_slots())
          : 0.0;
  const std::int64_t rss = benchio::peak_rss_bytes();  // -1 = unmeasurable

  std::cout << "   " << preset_name(preset) << ": " << res.distinct
            << " colors, " << res.total.rounds << " rounds in " << color_ms
            << " ms (" << rounds_per_sec << " rounds/s)\n"
            << "   memory: graph " << graph_bytes / (1 << 20)
            << " MiB + runtime " << runtime_bytes / (1 << 20)
            << " MiB (payload " << rb.payload_bytes / (1 << 20) << " MiB) = "
            << bytes_per_vertex << " B/vertex, " << bytes_per_slot
            << " B/slot total, " << steady_bytes_per_slot
            << " B/slot steady; peak RSS " << rss / (1 << 20) << " MiB\n";

  const auto mb = g.memory_breakdown();
  sink.add(benchio::JsonRecord()
               .field("bench", "scale")
               .field("family", family)
               .field("scale", scale)
               .field("edgefactor", edgefactor)
               .field("preset", preset_name(preset))
               .field("n", n)
               .field("edges", g.num_edges())
               .field("delta", g.max_degree())
               .field("arboricity_bound", bound)
               .field("shards", shards)
               .field("build_ms", build_ms)
               .field("degeneracy_ms", bound_ms)
               .field("wall_ms", color_ms)
               .field("colors", static_cast<std::int64_t>(res.distinct))
               .field("rounds", res.total.rounds)
               .field("messages", res.total.messages)
               .field("words", res.total.words)
               .field("work_items", res.total.work_items)
               .field("max_msg_words",
                      static_cast<std::int64_t>(res.total.max_msg_words))
               .field("rounds_per_sec", rounds_per_sec)
               .field("graph_offsets_bytes", mb.offsets_bytes)
               .field("graph_adjacency_bytes", mb.adjacency_bytes)
               .field("graph_mirror_bytes", mb.mirror_bytes)
               .field("graph_bytes", graph_bytes)
               .field("runtime_bytes", runtime_bytes)
               .field("runtime_arena_bytes", rb.arena_bytes)
               .field("runtime_payload_bytes", rb.payload_bytes)
               .field("runtime_index_bytes", rb.index_bytes)
               .field("runtime_vertex_bytes", rb.vertex_bytes)
               .field("bytes_per_vertex", bytes_per_vertex)
               .field("bytes_per_slot", bytes_per_slot)
               .field("steady_bytes_per_slot", steady_bytes_per_slot)
               .field("peak_rss_bytes", rss)
               .field("legal", ok ? 1 : 0));

  if (rss <= 0 || rounds_per_sec <= 0.0 || bytes_per_vertex <= 0.0) {
    std::cout << "   FAILURE: a gated metric is missing or non-positive\n";
    ok = false;
  }
  // The documented giant-graph budget (DESIGN.md): slot-indexed steady
  // state stays under 64 bytes per slot. Payload high-water is reported
  // but not capped here -- it is traffic- (and preset-) proportional.
  if (steady_bytes_per_slot > 64.0) {
    std::cout << "   FAILURE: steady state " << steady_bytes_per_slot
              << " B/slot exceeds the documented 64 B/slot budget\n";
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const bool smoke = cli.has("smoke");
  const int scale = static_cast<int>(cli.get_int("scale", smoke ? 16 : 20));
  const int edgefactor =
      static_cast<int>(cli.get_int("edgefactor", smoke ? 8 : 16));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const int shards = static_cast<int>(cli.get_int("shards", 1));
  const Preset preset = parse_preset(cli.get_string("preset", "polylog"));
  const std::string family = cli.get_string("family", smoke ? "both" : "rmat");

  std::cout << "E14: giant-graph scale path (scale=" << scale
            << ", edgefactor=" << edgefactor << ", family=" << family
            << (smoke ? ", smoke" : "") << ")\n\n";
  benchio::JsonSink sink(smoke ? "scale_smoke" : "scale");

  bool ok = true;
  if (family == "rmat" || family == "both") {
    ok = run_config(sink, "rmat", scale, edgefactor, seed, preset, shards) && ok;
  }
  if (family == "ba" || family == "both") {
    ok = run_config(sink, "ba", scale, edgefactor, seed, preset, shards) && ok;
  }
  if (family != "rmat" && family != "ba" && family != "both") {
    std::cerr << "unknown --family=" << family << " (want rmat|ba|both)\n";
    return 2;
  }
  std::cout << (ok ? "\nscale bench OK\n" : "\nscale bench FAILED\n");
  return ok ? 0 : 1;
}
