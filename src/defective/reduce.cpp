#include "defective/reduce.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace dvc {
namespace {

std::int64_t group_at(const std::vector<std::int64_t>* groups, V v) {
  return groups ? (*groups)[static_cast<std::size_t>(v)] : 0;
}

// Greedy along an orientation: round 1 exchanges groups so every vertex can
// identify its same-group parents; afterwards a vertex that has heard the
// colors of all parents picks the smallest free color and halts, and sleeps
// until mail while it waits (a step without mail changes nothing). Messages
// are round-keyed (CONGEST tightening): a message received in round 1 is a
// one-word group announcement from begin(); any later message is a
// two-word {group, color} -- a vertex announces its color exactly once and
// halts, so no group announcements exist after round 1.
class GreedyByOrientationProgram : public sim::VertexProgram {
 public:
  GreedyByOrientationProgram(const Graph& g, const Orientation& sigma,
                             std::int64_t palette,
                             const std::vector<std::int64_t>* groups)
      : g_(&g),
        sigma_(&sigma),
        palette_(palette),
        groups_(groups),
        colors_(static_cast<std::size_t>(g.num_vertices()), -1),
        pending_(static_cast<std::size_t>(g.num_vertices()), 0),
        parent_colors_(static_cast<std::size_t>(g.num_slots()), -1) {}

  std::string name() const override { return "greedy-by-orientation"; }
  int max_words() const override { return greedy_by_orientation_max_words(); }

  void begin(sim::Ctx& ctx) override {
    ctx.broadcast({group_at(groups_, ctx.vertex())});
  }

  void step(sim::Ctx& ctx, const sim::Inbox& inbox) override {
    const V v = ctx.vertex();
    const std::int64_t mine = group_at(groups_, v);
    if (ctx.round() == 1) {
      // Learn which out-ports lead to same-group parents.
      int parents = 0;
      for (const sim::MsgView& msg : inbox) {
        if (msg.data[0] == mine && sigma_->is_out(v, msg.port)) ++parents;
      }
      pending_[static_cast<std::size_t>(v)] = parents;
      if (parents == 0) {
        choose_and_finish(ctx, v, mine);
      } else {
        ctx.sleep_until(sim::Ctx::kUntilMail);
      }
      return;
    }
    for (const sim::MsgView& msg : inbox) {
      if (msg.data[0] != mine) continue;
      if (!sigma_->is_out(v, msg.port)) continue;
      parent_colors_[static_cast<std::size_t>(g_->slot(v, msg.port))] =
          static_cast<std::int32_t>(msg.data[1]);
      --pending_[static_cast<std::size_t>(v)];
    }
    if (pending_[static_cast<std::size_t>(v)] == 0) {
      choose_and_finish(ctx, v, mine);
    } else {
      ctx.sleep_until(sim::Ctx::kUntilMail);
    }
  }

  Coloring take_colors() { return std::move(colors_); }

  bool dist_capable() const override { return true; }
  std::vector<sim::StateColumn> state_columns() override {
    return {sim::StateColumn::vertex(colors_.data()),
            sim::StateColumn::vertex(pending_.data()),
            sim::StateColumn::slot(parent_colors_.data())};
  }

 private:
  void choose_and_finish(sim::Ctx& ctx, V v, std::int64_t mine) {
    auto& taken = ctx.scratch();
    taken.clear();
    const int deg = g_->degree(v);
    for (int p = 0; p < deg; ++p) {
      const std::int32_t c =
          parent_colors_[static_cast<std::size_t>(g_->slot(v, p))];
      if (c >= 0) taken.push_back(c);
    }
    std::sort(taken.begin(), taken.end());
    std::int64_t pick = 0;
    for (const std::int64_t c : taken) {
      if (c == pick) ++pick;
      if (c > pick) break;
    }
    DVC_ENSURE(pick < palette_, "palette must exceed max parent count");
    colors_[static_cast<std::size_t>(v)] = pick;
    ctx.broadcast({mine, pick});
    ctx.halt();
  }

  const Graph* g_;
  const Orientation* sigma_;
  std::int64_t palette_;
  const std::vector<std::int64_t>* groups_;
  Coloring colors_;
  std::vector<int> pending_;
  /// Per slot: the color the parent on that port announced (-1 = none yet).
  std::vector<std::int32_t> parent_colors_;
};

// Kuhn-Wattenhofer: phases of D+1 rounds, each phase halves the palette by
// reducing color buckets of size 2(D+1) to D+1 in parallel. A vertex acts
// in one round per phase at most -- the round its local color's turn comes
// -- and in the final round, when every vertex halts; it can tell those
// rounds from its own color alone, so between them it sleeps until the
// next one or until mail. Colors are renumbered at every phase end; a
// vertex applies the renumbering to its own and its stored neighbor colors
// lazily, when it next steps.
class KwReduceProgram : public sim::VertexProgram {
 public:
  KwReduceProgram(const Graph& g, Coloring colors, std::int64_t palette,
                  int degree_bound, const std::vector<std::int64_t>* groups)
      : g_(&g),
        colors_(std::move(colors)),
        groups_(groups),
        bucket_width_(2 * (static_cast<std::int64_t>(degree_bound) + 1)),
        half_(static_cast<std::int64_t>(degree_bound) + 1),
        port_colors_(static_cast<std::size_t>(g.num_slots()), -1),
        synced_(static_cast<std::size_t>(g.num_vertices()), 0) {
    // Precompute the global phase schedule: palettes after each phase.
    std::int64_t m = palette;
    palettes_.push_back(m);
    while (m > half_) {
      const std::int64_t buckets = (m + bucket_width_ - 1) / bucket_width_;
      m = buckets * half_;
      palettes_.push_back(m);
    }
  }

  std::string name() const override { return "kw-reduce"; }
  int max_words() const override { return kw_reduce_max_words(); }

  int total_rounds() const { return 1 + phases() * static_cast<int>(half_); }

  void begin(sim::Ctx& ctx) override {
    const V v = ctx.vertex();
    if (palettes_.size() == 1) {  // already within D+1 colors
      ctx.halt();
      return;
    }
    ctx.broadcast({group_at(groups_, v), colors_[static_cast<std::size_t>(v)]});
    ctx.sleep_until(wake_round(v));
  }

  void step(sim::Ctx& ctx, const sim::Inbox& inbox) override {
    const V v = ctx.vertex();
    const std::int64_t mine = group_at(groups_, v);
    // Decode the phase and the in-phase position from the round number.
    const int r = ctx.round() - 1;  // 0-based over recoloring rounds
    const int phase = r / static_cast<int>(half_);
    const int pos = r % static_cast<int>(half_);
    // Messages carry colors in this phase's numbering.
    catch_up(v, phase);
    for (const sim::MsgView& msg : inbox) {
      if (msg.data[0] != mine) continue;
      port_colors_[static_cast<std::size_t>(g_->slot(v, msg.port))] = msg.data[1];
    }
    // In this phase colors live in [0, palettes_[phase]); bucket b covers
    // [b*W, b*W + W); local colors in [half_, W) recolor, highest first.
    const std::int64_t handled_local = bucket_width_ - 1 - pos;
    const std::int64_t own = colors_[static_cast<std::size_t>(v)];
    const std::int64_t bucket = own / bucket_width_;
    const std::int64_t local = own % bucket_width_;
    bool recolored = false;
    if (local == handled_local) {
      // Recolor into [bucket*W, bucket*W + half_): smallest local color not
      // used by same-group neighbors currently in my bucket.
      auto& taken = ctx.scratch();
      taken.clear();
      const int deg = g_->degree(v);
      for (int p = 0; p < deg; ++p) {
        const std::int64_t c = port_colors_[static_cast<std::size_t>(g_->slot(v, p))];
        if (c < 0 || c / bucket_width_ != bucket) continue;
        taken.push_back(c % bucket_width_);
      }
      std::sort(taken.begin(), taken.end());
      std::int64_t pick = 0;
      for (const std::int64_t c : taken) {
        if (c == pick) ++pick;
        if (c > pick) break;
      }
      DVC_ENSURE(pick < half_, "degree bound violated in kw_reduce");
      colors_[static_cast<std::size_t>(v)] = bucket * bucket_width_ + pick;
      recolored = true;
    }
    if (pos == static_cast<int>(half_) - 1) {
      // Phase end: messages crossing the boundary carry the next phase's
      // numbering (all local colors are now < half_).
      const std::int64_t next = renumber(colors_[static_cast<std::size_t>(v)]);
      if (recolored) ctx.broadcast({mine, next});
      if (phase + 1 == phases()) {
        colors_[static_cast<std::size_t>(v)] = next;
        ctx.halt();
        return;
      }
    } else if (recolored) {
      ctx.broadcast({mine, colors_[static_cast<std::size_t>(v)]});
    }
    ctx.sleep_until(wake_round(v));
  }

  Coloring take_colors() { return std::move(colors_); }

  bool dist_capable() const override { return true; }
  std::vector<sim::StateColumn> state_columns() override {
    return {sim::StateColumn::vertex(colors_.data()),
            sim::StateColumn::vertex(synced_.data()),
            sim::StateColumn::slot(port_colors_.data())};
  }

 private:
  int phases() const { return static_cast<int>(palettes_.size()) - 1; }

  /// A color's number in the next phase: bucket b's local colors, all
  /// below half_ by the phase end, move to [b*half_, b*half_ + half_).
  std::int64_t renumber(std::int64_t c) const {
    return (c / bucket_width_) * half_ + (c % bucket_width_);
  }

  /// The lazy phase-end renumbering: brings v's own color and its stored
  /// neighbor colors (-1 = unknown) from the phase they were last written
  /// in up to `phase`.
  void catch_up(V v, int phase) {
    auto& synced = synced_[static_cast<std::size_t>(v)];
    for (; synced < phase; ++synced) {
      auto& own = colors_[static_cast<std::size_t>(v)];
      own = renumber(own);
      const int deg = g_->degree(v);
      for (int p = 0; p < deg; ++p) {
        auto& c = port_colors_[static_cast<std::size_t>(g_->slot(v, p))];
        if (c >= 0) c = renumber(c);
      }
    }
  }

  /// The next round in which v recolors, read off its own color in its
  /// synced phase (a vertex past its turn holds a local color below half_),
  /// or else the final round, when every vertex halts.
  int wake_round(V v) const {
    std::int64_t c = colors_[static_cast<std::size_t>(v)];
    for (int q = synced_[static_cast<std::size_t>(v)]; q < phases();
         ++q, c = renumber(c)) {
      const std::int64_t local = c % bucket_width_;
      if (local < half_) continue;
      return 1 + q * static_cast<int>(half_) +
             static_cast<int>(bucket_width_ - 1 - local);
    }
    return phases() * static_cast<int>(half_);
  }

  const Graph* g_;
  Coloring colors_;
  const std::vector<std::int64_t>* groups_;
  std::int64_t bucket_width_;
  std::int64_t half_;
  std::vector<std::int64_t> palettes_;
  std::vector<std::int64_t> port_colors_;
  /// Per vertex: the phase whose numbering colors_[v] and v's port colors
  /// are in (see catch_up).
  std::vector<int> synced_;
};

}  // namespace

ReduceResult greedy_by_orientation(sim::Runtime& rt, const Orientation& sigma,
                                   std::int64_t palette,
                                   const std::vector<std::int64_t>* groups) {
  DVC_REQUIRE(palette >= 1, "palette must be positive");
  DVC_REQUIRE(palette <= std::numeric_limits<std::int32_t>::max(),
              "palette must fit in int32 (parent colors are stored per slot "
              "as int32)");
  const Graph& g = rt.graph();
  GreedyByOrientationProgram program(g, sigma, palette, groups);
  ReduceResult out;
  out.stats = rt.run_phase(
      program, sigma.length() + g.num_vertices() + sim::kRoundCapSlack,
      "greedy-by-orientation");
  out.colors = program.take_colors();
  out.palette = palette;
  return out;
}

ReduceResult kw_reduce(sim::Runtime& rt, const Coloring& initial,
                       std::int64_t initial_palette, int degree_bound,
                       const std::vector<std::int64_t>* groups) {
  DVC_REQUIRE(degree_bound >= 0, "degree bound must be >= 0");
  KwReduceProgram program(rt.graph(), initial, initial_palette, degree_bound, groups);
  ReduceResult out;
  out.stats = rt.run_phase(program, program.total_rounds() + sim::kRoundCapSlack,
                           "kw-reduce");
  out.colors = program.take_colors();
  out.palette = degree_bound + 1;
  return out;
}

}  // namespace dvc
