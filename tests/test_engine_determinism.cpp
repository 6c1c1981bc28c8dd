// Determinism guarantees of the mailbox runtime (DESIGN.md, "Sharded
// execution"); shard-count and execution-axis bit-identity of the presets is
// tests/test_determinism_oracle.cpp's:
//   1. Inbox contents are independent of the order in which a vertex issues
//      its sends within a round (slot routing).
//   2. The round loop performs no per-message heap allocations once warm
//      (verified through a global operator-new counting hook).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "sim/runtime.hpp"
#include "test_support.hpp"

namespace dvc {
namespace {

using dvc_test::FloodAll;

// --- 1. Send-order invariance within a round ------------------------------

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
  EXPECT_TRUE(s1 == s2);
  EXPECT_EQ(forward.trace(), backward.trace());
}

TEST(EngineDeterminism, PermutedSendsAndShardsCompose) {
  const Graph g = random_near_regular(512, 6, 9);
  OrderProbe base(g.num_vertices(), false, 4);
  OrderProbe permuted(g.num_vertices(), true, 4);
  sim::Runtime rt1(g, 1), rt2(g, 8);
  const sim::RunStats s1 = rt1.run_phase(base, 16);
  const sim::RunStats s2 = rt2.run_phase(permuted, 16);
  EXPECT_TRUE(s1 == s2);
  EXPECT_EQ(base.trace(), permuted.trace());
}

// --- 2. Zero per-message allocations in the warm round loop ---------------

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
