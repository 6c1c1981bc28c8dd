#include <gtest/gtest.h>

#include "common/check.hpp"
#include "graph/generators.hpp"
#include "sim/runtime.hpp"

namespace dvc {
namespace {

// Flood: vertex 0 starts a wave; every vertex halts one round after first
// hearing it. Rounds must equal the eccentricity of vertex 0.
class FloodProgram : public sim::VertexProgram {
 public:
  explicit FloodProgram(V n) : heard_(static_cast<std::size_t>(n), 0) {}
  std::string name() const override { return "flood"; }
  void begin(sim::Ctx& ctx) override {
    if (ctx.vertex() == 0) {
      heard_[0] = 1;
      ctx.broadcast({1});
      ctx.halt();
    }
  }
  void step(sim::Ctx& ctx, const sim::Inbox& inbox) override {
    if (!inbox.empty()) {
      heard_[static_cast<std::size_t>(ctx.vertex())] = 1;
      ctx.broadcast({1});
      ctx.halt();
    }
  }
  const std::vector<std::uint8_t>& heard() const { return heard_; }

 private:
  std::vector<std::uint8_t> heard_;
};

TEST(Engine, FloodTakesEccentricityRounds) {
  Graph p = path_graph(6);
  FloodProgram prog(6);
  sim::Runtime rt(p);
  const auto stats = rt.run_phase(prog, 100);
  EXPECT_EQ(stats.rounds, 5);  // vertex 5 hears at round 5
  for (const auto h : prog.heard()) EXPECT_TRUE(h);
}

TEST(Engine, CountsMessagesAndWords) {
  Graph p = path_graph(3);  // degrees 1,2,1
  class OneShot : public sim::VertexProgram {
   public:
    std::string name() const override { return "one-shot"; }
    void begin(sim::Ctx& ctx) override {
      ctx.broadcast({7, 8});  // 2 words per message
      ctx.halt();
    }
    void step(sim::Ctx&, const sim::Inbox&) override {}
  } prog;
  sim::Runtime rt(p);
  const auto stats = rt.run_phase(prog, 10);
  EXPECT_EQ(stats.rounds, 0);  // everyone halts in begin
  EXPECT_EQ(stats.messages, 4u);  // sum of degrees
  EXPECT_EQ(stats.words, 8u);
}

TEST(Engine, ThrowsOnRoundCapExceeded) {
  Graph p = path_graph(4);
  class Chatter : public sim::VertexProgram {
   public:
    std::string name() const override { return "chatter"; }
    void begin(sim::Ctx& ctx) override { ctx.broadcast({0}); }
    void step(sim::Ctx& ctx, const sim::Inbox&) override { ctx.broadcast({0}); }
  } prog;
  sim::Runtime rt(p);
  EXPECT_THROW(rt.run_phase(prog, 5), invariant_error);
}

TEST(Engine, PortNumbersAreReceiverSide) {
  // Vertex 1 on a path 0-1-2 must see messages from 0 on port 0 and from 2
  // on port 1 (sorted adjacency).
  Graph p = path_graph(3);
  class PortCheck : public sim::VertexProgram {
   public:
    std::string name() const override { return "port-check"; }
    void begin(sim::Ctx& ctx) override { ctx.broadcast({ctx.id()}); }
    void step(sim::Ctx& ctx, const sim::Inbox& inbox) override {
      if (ctx.vertex() == 1) {
        for (const auto& msg : inbox) {
          if (msg.port == 0) EXPECT_EQ(msg.data[0], 1);  // id of vertex 0
          if (msg.port == 1) EXPECT_EQ(msg.data[0], 3);  // id of vertex 2
        }
        EXPECT_EQ(inbox.size(), 2u);
      }
      ctx.halt();
    }
  } prog;
  sim::Runtime rt(p);
  rt.run_phase(prog, 10);
}

TEST(Engine, DirectedSendReachesOnlyTarget) {
  Graph s = star_graph(4);  // hub 0 with leaves 1..3
  class Direct : public sim::VertexProgram {
   public:
    std::string name() const override { return "direct"; }
    void begin(sim::Ctx& ctx) override {
      if (ctx.vertex() == 0) ctx.send(1, {42});  // second leaf only
    }
    void step(sim::Ctx& ctx, const sim::Inbox& inbox) override {
      if (ctx.vertex() == 2) {
        ASSERT_EQ(inbox.size(), 1u);
        EXPECT_EQ(inbox[0].data[0], 42);
        got_ = true;
      } else {
        EXPECT_TRUE(inbox.empty());
      }
      ctx.halt();
    }
    bool got_ = false;
  } prog;
  sim::Runtime rt(s);
  rt.run_phase(prog, 10);
  EXPECT_TRUE(prog.got_);
}

TEST(Engine, HaltInBeginGivesZeroRounds) {
  Graph g = complete_graph(5);
  class Noop : public sim::VertexProgram {
   public:
    std::string name() const override { return "noop"; }
    void begin(sim::Ctx& ctx) override { ctx.halt(); }
    void step(sim::Ctx&, const sim::Inbox&) override {}
  } prog;
  sim::Runtime rt(g);
  EXPECT_EQ(rt.run_phase(prog, 10).rounds, 0);
}

TEST(Engine, StatsAccumulateAcrossPhases) {
  sim::RunStats a{3, 10, 20};
  sim::RunStats b{2, 5, 7};
  a += b;
  EXPECT_EQ(a.rounds, 5);
  EXPECT_EQ(a.messages, 15u);
  EXPECT_EQ(a.words, 27u);
}

TEST(Engine, DefaultRoundCapGrowsWithN) {
  EXPECT_GT(sim::default_round_cap(1 << 20), sim::default_round_cap(16));
  EXPECT_GE(sim::default_round_cap(2), 256);
}

}  // namespace
}  // namespace dvc
