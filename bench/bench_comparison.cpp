// E11 -- the head-to-head grid (the paper's Section 1.2 state-of-the-art
// comparison as a table): every preset of this library against every
// baseline on a common workload. Each row is also appended to
// BENCH_comparison.json (family, n, Delta, colors, rounds, messages,
// bandwidth, wall-ms) so the trajectory is tracked across PRs.
//
// Bandwidth axis: every preset row runs under the CONGEST budget
// (Knobs::congest_words = kCongestWordsPaperPath), so the bench itself
// proves the pipelines conform to the O(log n)-bit message model; records
// carry total_words and max_msg_words.
//
// Paper prediction: reading each row block, the BE10 presets dominate the
// deterministic baselines -- fewer colors than Linial at polylog cost,
// asymptotically fewer rounds than BE08 at comparable colors -- while the
// randomized baselines match rounds but lose determinism.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/greedy.hpp"
#include "baselines/luby.hpp"
#include "baselines/rand_coloring.hpp"
#include "bench_json.hpp"
#include "bench_stats.hpp"
#include "common/table.hpp"
#include "core/api.hpp"
#include "decomp/orientations.hpp"
#include "defective/kuhn.hpp"
#include "defective/reduce.hpp"
#include "graph/generators.hpp"

int main() {
  using namespace dvc;
  using benchio::Clock;
  using benchio::ms_since;
  std::cout << "E11: all algorithms on a common workload grid\n\n";
  benchio::JsonSink sink("comparison");
  std::vector<std::tuple<std::string, std::string, int, Graph>> workloads;
  workloads.emplace_back("planted a=8, n=2^14", "planted_arboricity", 8,
                         planted_arboricity(1 << 14, 8, 1));
  workloads.emplace_back("BA k=6, n=2^14", "barabasi_albert", 6,
                         barabasi_albert(1 << 14, 6, 2));
  workloads.emplace_back("near-regular d=16, n=2^14", "near_regular", 16,
                         random_near_regular(1 << 14, 16, 3));
  for (const auto& [label, family, a, g] : workloads) {
    std::cout << "== workload: " << label << " (Delta=" << g.max_degree()
              << ") ==\n";
    Table table({"algorithm", "deterministic", "colors", "rounds", "messages",
                 "B(words)"});
    auto record = [&](const std::string& algorithm, const char* deterministic,
                      std::int64_t colors, const sim::RunStats& stats,
                      double wall_ms) {
      table.row(algorithm, deterministic, colors, stats.rounds, stats.messages,
                stats.max_msg_words);
      sink.add(benchio::JsonRecord()
                   .field("bench", "comparison")
                   .field("algorithm", algorithm)
                   .field("deterministic", deterministic)
                   .field("family", family)
                   .field("n", static_cast<std::int64_t>(g.num_vertices()))
                   .field("delta", g.max_degree())
                   .field("colors", colors)
                   .field("rounds", stats.rounds)
                   .field("messages", stats.messages)
                   .field("total_words", stats.words)
                   .field("work_items", stats.work_items)
                   .field("peak_live", benchio::peak_active(stats))
                   .field("max_msg_words",
                          static_cast<std::int64_t>(stats.max_msg_words))
                   .field("peak_round_words", benchio::peak_round_words(stats))
                   .field("wall_ms", wall_ms));
    };
    // Presets run under the CONGEST budget: a send wider than
    // kCongestWordsPaperPath words would abort the bench.
    Knobs knobs;
    knobs.congest_words = kCongestWordsPaperPath;
    for (const Preset preset :
         {Preset::LinearColors, Preset::NearLinearColors, Preset::PolylogTime,
          Preset::TradeoffAT}) {
      const auto t0 = Clock::now();
      const LegalColoringResult res = color_graph(g, a, preset, knobs);
      record(preset_name(preset), "yes", res.distinct, res.total, ms_since(t0));
      // Per-phase breakdown from the session PhaseLog: one record per tree
      // node, `depth`/`span` encode the nesting.
      for (std::size_t i = 0; i < res.phases.size(); ++i) {
        const auto& entry = res.phases[i];
        sink.add(benchio::JsonRecord()
                     .field("bench", "comparison_phase")
                     .field("algorithm", preset_name(preset))
                     .field("family", family)
                     .field("n", static_cast<std::int64_t>(g.num_vertices()))
                     .field("delta", g.max_degree())
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
    sim::Runtime rt(g);
    {
      const auto t0 = Clock::now();
      const DefectiveResult res = linial_coloring(rt, g.max_degree());
      record("linial87 O(Delta^2)", "yes", distinct_colors(res.colors),
             res.stats, ms_since(t0));
    }
    {
      // BE08 Lemma 2.2(1).
      const auto t0 = Clock::now();
      const CompleteOrientationResult ori = complete_orientation(rt, a);
      const ReduceResult greedy =
          greedy_by_orientation(rt, ori.sigma, ori.hp.threshold + 1);
      sim::RunStats total = ori.total;
      total += greedy.stats;
      record("be08 (2+eps)a+1 colors", "yes", distinct_colors(greedy.colors),
             total, ms_since(t0));
    }
    {
      const auto t0 = Clock::now();
      const RandColoringResult res = randomized_delta_plus_one(rt, 7);
      record("randomized Delta+1", "no", distinct_colors(res.colors),
             res.stats, ms_since(t0));
    }
    {
      const auto t0 = Clock::now();
      const GreedyResult res = greedy_coloring(g, GreedyOrder::ByDegeneracy);
      record("greedy (centralized ref)", "-", res.colors_used, sim::RunStats{},
             ms_since(t0));
    }
    table.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "Shape check: among deterministic algorithms, BE10 presets "
               "give the only sub-Delta^2 palettes at polylog rounds; BE08 "
               "matches colors but needs ~a log n rounds; Linial is fastest "
               "but pays quadratic colors.\n";
  return 0;
}
