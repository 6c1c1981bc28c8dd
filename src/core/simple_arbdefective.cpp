#include "core/simple_arbdefective.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace dvc {
namespace {

class SimpleArbProgram : public sim::VertexProgram {
 public:
  SimpleArbProgram(const Graph& g, const Orientation& sigma, int k,
                   const std::vector<std::int64_t>* groups)
      : g_(&g),
        sigma_(&sigma),
        k_(k),
        groups_(groups),
        colors_(static_cast<std::size_t>(g.num_vertices()), -1),
        pending_(static_cast<std::size_t>(g.num_vertices()), 0),
        histogram_(static_cast<std::size_t>(g.num_vertices()) *
                       static_cast<std::size_t>(k)) {}

  std::string name() const override { return "simple-arbdefective"; }
  int max_words() const override { return simple_arbdefective_max_words(); }

  void begin(sim::Ctx& ctx) override {
    // Round 0: announce group so everyone can identify same-group parents.
    // Messages are round-keyed (CONGEST tightening): anything received in
    // round 1 is this one-word announcement; later messages are two-word
    // {group, color} selections -- a vertex selects exactly once and halts.
    // After round 1 a vertex still waiting for parents sleeps until mail:
    // a step without mail would change nothing.
    ctx.broadcast({group_of(ctx.vertex())});
  }

  void step(sim::Ctx& ctx, const sim::Inbox& inbox) override {
    const V v = ctx.vertex();
    const std::int64_t mine = group_of(v);
    if (ctx.round() == 1) {
      int parents = 0;
      for (const sim::MsgView& msg : inbox) {
        if (msg.data[0] == mine && sigma_->is_out(v, msg.port)) ++parents;
      }
      pending_[static_cast<std::size_t>(v)] = parents;
      if (parents == 0) {
        select_and_finish(ctx, v, mine);
      } else {
        ctx.sleep_until(sim::Ctx::kUntilMail);
      }
      return;
    }
    for (const sim::MsgView& msg : inbox) {
      if (msg.data[0] != mine) continue;
      if (!sigma_->is_out(v, msg.port)) continue;
      ++hist_of(v)[msg.data[1]];
      --pending_[static_cast<std::size_t>(v)];
    }
    if (pending_[static_cast<std::size_t>(v)] == 0) {
      select_and_finish(ctx, v, mine);
    } else {
      ctx.sleep_until(sim::Ctx::kUntilMail);
    }
  }

  Coloring take_colors() { return std::move(colors_); }

  bool dist_capable() const override { return true; }
  std::vector<sim::StateColumn> state_columns() override {
    return {sim::StateColumn::vertex(colors_.data()),
            sim::StateColumn::vertex(pending_.data()),
            sim::StateColumn::vertex(histogram_.data(),
                                     static_cast<std::size_t>(k_))};
  }

 private:
  std::int64_t group_of(V v) const {
    return groups_ ? (*groups_)[static_cast<std::size_t>(v)] : 0;
  }

  /// v's row of the histogram: how many parents took each color.
  int* hist_of(V v) {
    return histogram_.data() +
           static_cast<std::size_t>(v) * static_cast<std::size_t>(k_);
  }

  void select_and_finish(sim::Ctx& ctx, V v, std::int64_t mine) {
    // Color used by the fewest parents (ties: smallest color).
    const int* hist = hist_of(v);
    int best = 0;
    for (int c = 1; c < k_; ++c) {
      if (hist[c] < hist[best]) best = c;
    }
    colors_[static_cast<std::size_t>(v)] = best;
    ctx.broadcast({mine, best});
    ctx.halt();
  }

  const Graph* g_;
  const Orientation* sigma_;
  int k_;
  const std::vector<std::int64_t>* groups_;
  Coloring colors_;
  std::vector<int> pending_;
  /// n rows of k counts (flat, row v at v * k).
  std::vector<int> histogram_;
};

}  // namespace

SimpleArbResult simple_arbdefective(sim::Runtime& rt, const Orientation& sigma,
                                    int k, const std::vector<std::int64_t>* groups) {
  DVC_REQUIRE(k >= 1, "palette size k must be >= 1");
  SimpleArbProgram program(rt.graph(), sigma, k, groups);
  SimpleArbResult out;
  // Rounds: 1 (group exchange) + length of the orientation + 1.
  out.stats = rt.run_phase(program, sigma.length() + sim::kRoundCapSlack,
                           "simple-arbdefective");
  out.colors = program.take_colors();
  out.k = k;
  return out;
}

}  // namespace dvc
