#include "baselines/luby.hpp"

#include "common/check.hpp"
#include "common/prng.hpp"
#include "sim/runtime.hpp"

namespace dvc {
namespace {

// Message tags.
constexpr std::int64_t kPriority = 0;
constexpr std::int64_t kJoin = 1;

class LubyProgram : public sim::VertexProgram {
 public:
  LubyProgram(const Graph& g, std::uint64_t seed)
      : seed_(seed),
        in_mis_(static_cast<std::size_t>(g.num_vertices()), 0),
        my_priority_(static_cast<std::size_t>(g.num_vertices()), 0) {}

  std::string name() const override { return "luby-mis"; }
  int max_words() const override { return luby_max_words(); }

  void begin(sim::Ctx& ctx) override { draw_and_announce(ctx); }

  void step(sim::Ctx& ctx, const sim::Inbox& inbox) override {
    const V v = ctx.vertex();
    const bool deciding = ctx.round() % 2 == 1;  // odd rounds: compare draws
    if (deciding) {
      bool beaten = false;
      bool neighbor_joined = false;
      for (const sim::MsgView& msg : inbox) {
        if (msg.data[0] == kJoin) {
          neighbor_joined = true;  // late join (should not happen; safety)
        } else if (msg.data[1] > my_priority_[static_cast<std::size_t>(v)] ||
                   (msg.data[1] == my_priority_[static_cast<std::size_t>(v)] &&
                    msg.data[2] > ctx.id())) {
          beaten = true;
        }
      }
      if (neighbor_joined) {
        ctx.halt();
        return;
      }
      if (!beaten) {
        in_mis_[static_cast<std::size_t>(v)] = 1;
        ctx.broadcast({kJoin});
        ctx.halt();
      }
      // Beaten: wait one round to hear whether the winner joined.
      return;
    }
    // Even rounds: absorb join notifications, then redraw if still active.
    for (const sim::MsgView& msg : inbox) {
      if (msg.data[0] == kJoin) {
        ctx.halt();
        return;
      }
    }
    draw_and_announce(ctx);
  }

  std::vector<std::uint8_t> take() { return std::move(in_mis_); }

  bool dist_capable() const override { return true; }
  std::vector<sim::StateColumn> state_columns() override {
    return {sim::StateColumn::vertex(in_mis_.data()),
            sim::StateColumn::vertex(my_priority_.data())};
  }

 private:
  void draw_and_announce(sim::Ctx& ctx) {
    const V v = ctx.vertex();
    // Per-vertex, per-phase deterministic draw from the run seed.
    std::uint64_t state =
        seed_ ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(ctx.id())) ^
        (0xbf58476d1ce4e5b9ULL * static_cast<std::uint64_t>(ctx.round() + 1));
    const std::int64_t draw =
        static_cast<std::int64_t>(splitmix64(state) >> 2);
    my_priority_[static_cast<std::size_t>(v)] = draw;
    ctx.broadcast({kPriority, draw, ctx.id()});
  }

  std::uint64_t seed_;
  std::vector<std::uint8_t> in_mis_;
  std::vector<std::int64_t> my_priority_;
};

}  // namespace

MisResult luby_mis(sim::Runtime& rt, std::uint64_t seed) {
  const Graph& g = rt.graph();
  LubyProgram program(g, seed);
  MisResult out;
  out.total = rt.run_phase(program, sim::default_round_cap(g.num_vertices()),
                           "luby-mis");
  out.in_mis = program.take();
  out.algorithm = "luby(randomized)";
  return out;
}

}  // namespace dvc
