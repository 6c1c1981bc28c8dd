#include "baselines/rand_coloring.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/prng.hpp"

namespace dvc {
namespace {

constexpr std::int64_t kTry = 0;
constexpr std::int64_t kFinal = 1;

class TrialColoringProgram : public sim::VertexProgram {
 public:
  TrialColoringProgram(const Graph& g, std::uint64_t seed)
      : g_(&g),
        seed_(seed),
        palette_(g.max_degree() + 1),
        colors_(static_cast<std::size_t>(g.num_vertices()), -1),
        taken_(static_cast<std::size_t>(g.num_slots()), -1),
        proposal_(static_cast<std::size_t>(g.num_vertices()), -1) {}

  std::string name() const override { return "randomized-trial-coloring"; }
  int max_words() const override { return rand_coloring_max_words(); }

  void begin(sim::Ctx& ctx) override { propose(ctx); }

  void step(sim::Ctx& ctx, const sim::Inbox& inbox) override {
    const V v = ctx.vertex();
    const bool resolving = ctx.round() % 2 == 1;
    if (resolving) {
      // Keep the proposal iff no neighbor proposed or owns the same color.
      bool clash = false;
      for (const sim::MsgView& msg : inbox) {
        if (msg.data[1] == proposal_[static_cast<std::size_t>(v)]) clash = true;
        if (msg.data[0] == kFinal) {
          taken_[static_cast<std::size_t>(g_->slot(v, msg.port))] = msg.data[1];
        }
      }
      if (!clash) {
        colors_[static_cast<std::size_t>(v)] = proposal_[static_cast<std::size_t>(v)];
        ctx.broadcast({kFinal, colors_[static_cast<std::size_t>(v)]});
        ctx.halt();
      }
      return;
    }
    // Absorb finalized neighbor colors, then re-propose.
    for (const sim::MsgView& msg : inbox) {
      if (msg.data[0] == kFinal) {
        taken_[static_cast<std::size_t>(g_->slot(v, msg.port))] = msg.data[1];
      }
    }
    propose(ctx);
  }

  Coloring take_colors() { return std::move(colors_); }
  std::int64_t palette() const { return palette_; }

  bool dist_capable() const override { return true; }
  std::vector<sim::StateColumn> state_columns() override {
    return {sim::StateColumn::vertex(colors_.data()),
            sim::StateColumn::vertex(proposal_.data()),
            sim::StateColumn::slot(taken_.data())};
  }

 private:
  void propose(sim::Ctx& ctx) {
    const V v = ctx.vertex();
    // Available = palette minus colors finalized by neighbors. Both work
    // lists live in per-shard engine scratch (allocation- and race-free).
    auto& avail = ctx.scratch(0);
    auto& used = ctx.scratch(1);
    avail.clear();
    used.clear();
    const int deg = ctx.degree();
    for (int p = 0; p < deg; ++p) {
      const std::int64_t c = taken_[static_cast<std::size_t>(g_->slot(v, p))];
      if (c >= 0) used.push_back(c);
    }
    std::sort(used.begin(), used.end());
    used.erase(std::unique(used.begin(), used.end()), used.end());
    for (std::int64_t c = 0; c < palette_; ++c) {
      if (!std::binary_search(used.begin(), used.end(), c)) avail.push_back(c);
    }
    DVC_ENSURE(!avail.empty(), "palette Delta+1 cannot be exhausted");
    std::uint64_t state =
        seed_ ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(ctx.id())) ^
        (0xbf58476d1ce4e5b9ULL * static_cast<std::uint64_t>(ctx.round() + 1));
    proposal_[static_cast<std::size_t>(v)] =
        avail[static_cast<std::size_t>(splitmix64(state) % avail.size())];
    ctx.broadcast({kTry, proposal_[static_cast<std::size_t>(v)]});
  }

  const Graph* g_;
  std::uint64_t seed_;
  std::int64_t palette_;
  Coloring colors_;
  std::vector<std::int64_t> taken_;     // per-slot finalized neighbor color
  std::vector<std::int64_t> proposal_;
};

}  // namespace

RandColoringResult randomized_delta_plus_one(sim::Runtime& rt, std::uint64_t seed) {
  const Graph& g = rt.graph();
  TrialColoringProgram program(g, seed);
  RandColoringResult out;
  out.stats = rt.run_phase(program, sim::default_round_cap(g.num_vertices()),
                           "randomized-trial-coloring");
  out.colors = program.take_colors();
  out.palette = program.palette();
  return out;
}

}  // namespace dvc
