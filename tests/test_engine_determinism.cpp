// Determinism guarantees of the mailbox runtime (DESIGN.md, "Sharded
// execution"):
//   1. RunStats and colorings are bit-identical for any shard count, also
//      on hub-heavy graphs and across every other execution axis.
//   2. Inbox contents are independent of the order in which a vertex issues
//      its sends within a round (slot routing).
//   3. The round loop performs no per-message heap allocations once warm
//      (verified through a global operator-new counting hook).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/api.hpp"
#include "dist/dist.hpp"
#include "graph/arboricity.hpp"
#include "graph/generators.hpp"
#include "sim/runtime.hpp"
#include "test_support.hpp"

namespace dvc {
namespace {

using dvc_test::FloodAll;
using dvc_test::same_stats;

// --- 1. Shard-count invariance across full API presets --------------------

TEST(EngineDeterminism, PresetsAreBitIdenticalAcrossShardCounts) {
  const Graph g = planted_arboricity(1 << 10, 4, 7);
  for (const Preset preset : {Preset::LinearColors, Preset::PolylogTime,
                              Preset::TradeoffAT}) {
    Knobs knobs;
    knobs.shards = 1;
    const LegalColoringResult base = color_graph(g, 4, preset, knobs);
    for (const int shards : {2, 8}) {
      knobs.shards = shards;
      const LegalColoringResult res = color_graph(g, 4, preset, knobs);
      EXPECT_EQ(res.colors, base.colors)
          << preset_name(preset) << " colors differ at " << shards << " shards";
      EXPECT_EQ(res.distinct, base.distinct);
      EXPECT_TRUE(same_stats(res.total, base.total))
          << preset_name(preset) << " stats differ at " << shards << " shards";
      ASSERT_EQ(res.phases.size(), base.phases.size());
      for (std::size_t i = 0; i < res.phases.size(); ++i) {
        EXPECT_EQ(res.phases.name(i), base.phases.name(i));
        EXPECT_TRUE(same_stats(res.phases.stats(i), base.phases.stats(i)))
            << preset_name(preset) << " phase " << res.phases.name(i)
            << " differs at " << shards << " shards";
      }
      EXPECT_TRUE(res.phases == base.phases)
          << preset_name(preset) << " phase log differs at " << shards
          << " shards";
    }
  }
}

TEST(EngineDeterminism, MisIsBitIdenticalAcrossShardCounts) {
  const Graph g = planted_arboricity(1 << 9, 3, 11);
  Knobs knobs;
  knobs.shards = 1;
  const MisResult base = mis_graph(g, 3, knobs);
  knobs.shards = 8;
  const MisResult res = mis_graph(g, 3, knobs);
  EXPECT_EQ(res.in_mis, base.in_mis);
  EXPECT_TRUE(same_stats(res.total, base.total));
}

/// A star joined to a path: one hub holding half the star's slots, then a
/// long degree-2 tail -- the cost-balanced shard cuts land far from equal
/// vertex blocks.
Graph star_and_path(V star, V path) {
  EdgeList edges = star_graph(star).edges();
  for (const auto& [u, v] : path_graph(path).edges()) {
    edges.emplace_back(u + star, v + star);
  }
  edges.emplace_back(star - 1, star);  // a leaf to the path's head
  return Graph::from_edges(star + path, edges);
}

TEST(EngineDeterminism, HubHeavyGraphsAreBitIdenticalOnEveryExecutionAxis) {
  struct Input {
    std::string name;
    Graph g;
    int bound;
  };
  std::vector<Input> inputs;
  inputs.push_back({"rmat", rmat_graph(10, 8, 5), 0});
  inputs.back().bound = degeneracy(inputs.back().g);
  inputs.push_back({"star+path", star_and_path(200, 300), 1});
  Knobs knobs;
  knobs.congest_words = kCongestWordsPaperPath;
  const sim::FaultPlan oracle = dvc_test::port_scan_oracle_plan();
  Knobs armed = knobs;
  armed.fault_plan = &oracle;

  for (const Input& in : inputs) {
    for (int p = 0; p < kNumPresets; ++p) {
      const auto preset = static_cast<Preset>(p);
      SCOPED_TRACE(in.name + " " + preset_name(preset));
      const auto run = [&](sim::Runtime& rt, const Knobs& k) {
        return color_graph(rt, in.bound, preset, k);
      };
      sim::Runtime base_rt(in.g, 1);
      const LegalColoringResult base = run(base_rt, knobs);
      const auto expect_same = [&](const LegalColoringResult& got,
                                   const std::string& axis) {
        EXPECT_EQ(got.colors, base.colors) << axis;
        EXPECT_TRUE(same_stats(got.total, base.total)) << axis;
        EXPECT_TRUE(got.phases == base.phases) << axis;
      };
      for (const int shards : {2, 3, 4, 8}) {
        sim::Runtime rt(in.g, shards);
        expect_same(run(rt, knobs), "shards=" + std::to_string(shards));
      }
      {
        sim::Runtime rt(in.g, 4, /*inline_shards=*/true);
        expect_same(run(rt, knobs), "inline shards=4");
      }
      {
        sim::Runtime rt(in.g, 4);
        expect_same(run(rt, armed), "port-scan oracle, shards=4");
      }
      for (const int workers : {2, 3}) {
        sim::Runtime rt(in.g, 4, /*inline_shards=*/true);
        dist::DistConfig cfg;
        cfg.workers = workers;
        cfg.backend = dist::Backend::kLoopback;
        dist::DistSession session(rt, cfg);
        expect_same(run(rt, knobs),
                    "loopback, workers=" + std::to_string(workers));
      }
      // Checkpoint at a phase boundary on 3 shards, resume on 8.
      struct Abort {};
      std::vector<std::uint8_t> ckpt;
      sim::Runtime victim(in.g, 3);
      int seen = 0;
      victim.set_interrupt([&] {
        if (seen++ == 2) {
          ckpt = victim.checkpoint();
          throw Abort{};
        }
      });
      EXPECT_THROW(run(victim, knobs), Abort);
      ASSERT_FALSE(ckpt.empty());
      sim::Runtime resumed(in.g, 8);
      resumed.resume(ckpt);
      expect_same(run(resumed, knobs), "checkpoint at shards=3, resume at 8");
    }
  }
}

// --- 2. Send-order invariance within a round ------------------------------

// Broadcasts the vertex id every round, sweeping ports forward or backward,
// and records each round's inbox as delivered. Slot routing must make the
// recorded trace independent of the send order.
class OrderProbe : public sim::VertexProgram {
 public:
  OrderProbe(V n, bool reverse_sends, int rounds)
      : reverse_(reverse_sends), rounds_(rounds),
        trace_(static_cast<std::size_t>(n)) {}

  std::string name() const override { return "order-probe"; }

  void begin(sim::Ctx& ctx) override { announce(ctx); }

  void step(sim::Ctx& ctx, const sim::Inbox& inbox) override {
    auto& trace = trace_[static_cast<std::size_t>(ctx.vertex())];
    for (const sim::MsgView& msg : inbox) {
      trace.push_back(msg.port);
      for (const std::int64_t w : msg.data) trace.push_back(w);
    }
    if (ctx.round() >= rounds_) {
      ctx.halt();
      return;
    }
    announce(ctx);
  }

  const std::vector<std::vector<std::int64_t>>& trace() const { return trace_; }

 private:
  void announce(sim::Ctx& ctx) {
    const int deg = ctx.degree();
    if (reverse_) {
      for (int p = deg - 1; p >= 0; --p) ctx.send(p, {ctx.id(), p});
    } else {
      for (int p = 0; p < deg; ++p) ctx.send(p, {ctx.id(), p});
    }
  }

  bool reverse_;
  int rounds_;
  std::vector<std::vector<std::int64_t>> trace_;
};

TEST(EngineDeterminism, InboxIndependentOfSendOrderWithinRound) {
  const Graph g = random_near_regular(512, 6, 5);
  OrderProbe forward(g.num_vertices(), /*reverse_sends=*/false, 4);
  OrderProbe backward(g.num_vertices(), /*reverse_sends=*/true, 4);
  sim::Runtime rt1(g, 1), rt2(g, 1);
  const sim::RunStats s1 = rt1.run_phase(forward, 16);
  const sim::RunStats s2 = rt2.run_phase(backward, 16);
  EXPECT_TRUE(same_stats(s1, s2));
  EXPECT_EQ(forward.trace(), backward.trace());
}

TEST(EngineDeterminism, PermutedSendsAndShardsCompose) {
  const Graph g = random_near_regular(512, 6, 9);
  OrderProbe base(g.num_vertices(), false, 4);
  OrderProbe permuted(g.num_vertices(), true, 4);
  sim::Runtime rt1(g, 1), rt2(g, 8);
  const sim::RunStats s1 = rt1.run_phase(base, 16);
  const sim::RunStats s2 = rt2.run_phase(permuted, 16);
  EXPECT_TRUE(same_stats(s1, s2));
  EXPECT_EQ(base.trace(), permuted.trace());
}

// --- 3. Zero per-message allocations in the warm round loop ---------------

TEST(EngineDeterminism, RoundLoopIsAllocationFreeOnceWarm) {
  const Graph g = random_near_regular(2048, 8, 3);
  constexpr int kRounds = 12;
  FloodAll prog(kRounds);
  sim::Runtime rt(g, 1);
  std::vector<std::uint64_t> per_round(kRounds + 2, 0);
  rt.set_round_observer([&per_round](int round) {
    per_round[static_cast<std::size_t>(round)] =
        dvc_test::alloc_count();
  });
  const sim::RunStats stats = rt.run_phase(prog, kRounds + 4);
  rt.set_round_observer(nullptr);
  ASSERT_GE(stats.rounds, 6);
  // Rounds 1-2 warm the arena word buffers and the inbox; every later round
  // must allocate nothing despite moving ~2m messages per round.
  for (int r = 3; r <= stats.rounds; ++r) {
    EXPECT_EQ(per_round[static_cast<std::size_t>(r)] -
                  per_round[static_cast<std::size_t>(r - 1)],
              0u)
        << "allocation in warm round " << r;
  }
  EXPECT_GT(stats.messages, 0u);
}

// A second run on the same session must also stay clean (arena reuse across
// runs).
TEST(EngineDeterminism, SecondRunReusesArenas) {
  const Graph g = random_near_regular(1024, 6, 4);
  sim::Runtime rt(g, 1);
  constexpr int kRounds = 8;
  FloodAll warmup(kRounds);
  rt.run_phase(warmup, kRounds + 4);
  FloodAll prog(kRounds);
  std::vector<std::uint64_t> per_round(kRounds + 2, 0);
  rt.set_round_observer([&per_round](int round) {
    per_round[static_cast<std::size_t>(round)] =
        dvc_test::alloc_count();
  });
  const sim::RunStats stats = rt.run_phase(prog, kRounds + 4);
  for (int r = 2; r <= stats.rounds; ++r) {
    EXPECT_EQ(per_round[static_cast<std::size_t>(r)] -
                  per_round[static_cast<std::size_t>(r - 1)],
              0u)
        << "allocation in round " << r << " of a warm session";
  }
}

}  // namespace
}  // namespace dvc
