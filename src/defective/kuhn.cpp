#include "defective/kuhn.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace dvc {
namespace {

// Shared recoloring program. Each round applies one RecolorStep: a vertex
// broadcasts {group, color}; on receipt it searches for the smallest alpha
// whose collision count against relevant differently-colored neighbors is
// within the step's budget, then adopts (alpha, f_x(alpha)).
//
// "Relevant" ports are same-group ports; when an orientation is supplied,
// only same-group OUT-ports (parents, in the paper's terminology) count.
class RecolorProgram : public sim::VertexProgram {
 public:
  RecolorProgram(const Graph& g, std::vector<RecolorStep> schedule,
                 const std::vector<std::int64_t>* groups,
                 const Orientation* sigma, Coloring initial)
      : g_(&g),
        schedule_(std::move(schedule)),
        groups_(groups),
        sigma_(sigma),
        colors_(std::move(initial)) {}

  std::string name() const override { return "poly-recolor"; }
  int max_words() const override { return recolor_max_words(); }

  void begin(sim::Ctx& ctx) override {
    if (schedule_.empty()) {
      ctx.halt();
      return;
    }
    ctx.broadcast({group_of(ctx.vertex()), colors_[static_cast<std::size_t>(ctx.vertex())]});
  }

  void step(sim::Ctx& ctx, const sim::Inbox& inbox) override {
    const V v = ctx.vertex();
    const RecolorStep& st = schedule_[static_cast<std::size_t>(ctx.round() - 1)];
    const std::int64_t mine = group_of(v);
    const std::int64_t x = colors_[static_cast<std::size_t>(v)];

    // Gather relevant neighbor colors (with multiplicity) into per-shard
    // engine scratch (allocation- and race-free).
    auto& relevant = ctx.scratch();
    relevant.clear();
    for (const sim::MsgView& msg : inbox) {
      if (msg.data[0] != mine) continue;
      if (sigma_ && !sigma_->is_out(v, msg.port)) continue;
      if (msg.data[1] == x) continue;  // same color never separates; budgeted
      relevant.push_back(msg.data[1]);
    }

    // Find the smallest alpha with at most st.defect_increment collisions.
    std::int64_t chosen_alpha = -1, chosen_value = -1;
    for (std::int64_t alpha = 0; alpha < st.q; ++alpha) {
      const std::int64_t fx = poly_eval(x, st.q, st.d, alpha);
      int collisions = 0;
      for (const std::int64_t y : relevant) {
        collisions += poly_eval(y, st.q, st.d, alpha) == fx;
        if (collisions > st.defect_increment) break;
      }
      if (collisions <= st.defect_increment) {
        chosen_alpha = alpha;
        chosen_value = fx;
        break;
      }
    }
    DVC_ENSURE(chosen_alpha >= 0,
               "no valid alpha: a relevant-degree bound was violated");
    colors_[static_cast<std::size_t>(v)] = chosen_alpha * st.q + chosen_value;

    if (ctx.round() == static_cast<int>(schedule_.size())) {
      ctx.halt();
      return;
    }
    ctx.broadcast({mine, colors_[static_cast<std::size_t>(v)]});
  }

  Coloring take_colors() { return std::move(colors_); }

  bool dist_capable() const override { return true; }
  std::vector<sim::StateColumn> state_columns() override {
    return {sim::StateColumn::vertex(colors_.data())};
  }

 private:
  std::int64_t group_of(V v) const {
    return groups_ ? (*groups_)[static_cast<std::size_t>(v)] : 0;
  }

  const Graph* g_;
  std::vector<RecolorStep> schedule_;
  const std::vector<std::int64_t>* groups_;
  const Orientation* sigma_;
  Coloring colors_;
};

DefectiveResult run_recolor(sim::Runtime& rt, std::int64_t relevant_degree_bound,
                            int defect_budget,
                            const std::vector<std::int64_t>* groups,
                            const Orientation* sigma, const Coloring* initial,
                            std::int64_t initial_palette, std::string_view label) {
  DVC_REQUIRE(relevant_degree_bound >= 0, "degree bound must be >= 0");
  DVC_REQUIRE(defect_budget >= 0, "defect budget must be >= 0");
  const Graph& g = rt.graph();
  Coloring start;
  std::int64_t M0;
  if (initial) {
    DVC_REQUIRE(initial_palette > 0, "initial coloring needs its palette size");
    start = *initial;
    M0 = initial_palette;
  } else {
    start.resize(static_cast<std::size_t>(g.num_vertices()));
    for (V v = 0; v < g.num_vertices(); ++v) start[static_cast<std::size_t>(v)] = v;
    M0 = std::max<std::int64_t>(1, g.num_vertices());
  }

  DefectiveResult out;
  out.schedule = build_recolor_schedule(M0, relevant_degree_bound, defect_budget);
  out.palette = schedule_final_palette(out.schedule, M0);
  out.defect_budget = defect_budget;

  RecolorProgram program(g, out.schedule, groups, sigma, std::move(start));
  out.stats = rt.run_phase(
      program, static_cast<int>(out.schedule.size()) + sim::kRoundCapSlack,
      label);
  out.colors = program.take_colors();
  for (const std::int64_t c : out.colors) {
    DVC_ENSURE(c >= 0 && c < out.palette, "color escaped the palette");
  }
  return out;
}

}  // namespace

DefectiveResult kuhn_defective(sim::Runtime& rt, std::int64_t relevant_degree_bound,
                               int defect_budget,
                               const std::vector<std::int64_t>* groups,
                               const Coloring* initial, std::int64_t initial_palette) {
  return run_recolor(rt, relevant_degree_bound, defect_budget, groups,
                     /*sigma=*/nullptr, initial, initial_palette,
                     "kuhn-defective");
}

DefectiveResult kuhn_defective_p(sim::Runtime& rt, int p) {
  DVC_REQUIRE(p >= 1, "p must be >= 1");
  const int delta = rt.graph().max_degree();
  return kuhn_defective(rt, delta, delta / p);
}

DefectiveResult linial_coloring(sim::Runtime& rt, std::int64_t degree_bound,
                                const std::vector<std::int64_t>* groups,
                                const Coloring* initial, std::int64_t initial_palette) {
  return run_recolor(rt, degree_bound, /*defect_budget=*/0, groups,
                     /*sigma=*/nullptr, initial, initial_palette, "linial");
}

DefectiveResult arb_recolor_iterated(sim::Runtime& rt, const Orientation& sigma,
                                     std::int64_t out_degree_bound,
                                     int arbdefect_budget,
                                     const std::vector<std::int64_t>* groups) {
  return run_recolor(rt, out_degree_bound, arbdefect_budget, groups, &sigma,
                     /*initial=*/nullptr, /*initial_palette=*/0, "arb-recolor");
}

}  // namespace dvc
