#include "core/mis.hpp"

#include "common/check.hpp"
#include "core/legal_coloring.hpp"

namespace dvc {
namespace {

class ColorSweepProgram : public sim::VertexProgram {
 public:
  ColorSweepProgram(const Graph& g, const Coloring& colors)
      : colors_(&colors),
        in_mis_(static_cast<std::size_t>(g.num_vertices()), 0),
        blocked_(static_cast<std::size_t>(g.num_vertices()), 0) {}

  std::string name() const override { return "mis-color-sweep"; }
  int max_words() const override { return mis_sweep_max_words(); }

  void begin(sim::Ctx& ctx) override { maybe_decide(ctx, 0); }

  void step(sim::Ctx& ctx, const sim::Inbox& inbox) override {
    const V v = ctx.vertex();
    if (!inbox.empty()) blocked_[static_cast<std::size_t>(v)] = 1;
    maybe_decide(ctx, ctx.round());
  }

  std::vector<std::uint8_t> take() { return std::move(in_mis_); }

  bool dist_capable() const override { return true; }
  std::vector<sim::StateColumn> state_columns() override {
    return {sim::StateColumn::vertex(in_mis_.data()),
            sim::StateColumn::vertex(blocked_.data())};
  }

 private:
  void maybe_decide(sim::Ctx& ctx, int round) {
    const V v = ctx.vertex();
    if ((*colors_)[static_cast<std::size_t>(v)] != round) return;
    if (!blocked_[static_cast<std::size_t>(v)]) {
      in_mis_[static_cast<std::size_t>(v)] = 1;
      ctx.broadcast({1});
    }
    ctx.halt();
  }

  const Coloring* colors_;
  std::vector<std::uint8_t> in_mis_;
  std::vector<std::uint8_t> blocked_;
};

}  // namespace

MisResult mis_from_coloring(sim::Runtime& rt, const Coloring& colors, int num_colors) {
  const Graph& g = rt.graph();
  DVC_REQUIRE(is_legal_coloring(g, colors), "MIS sweep needs a legal coloring");
  MisResult out;
  ColorSweepProgram program(g, colors);
  out.total = rt.run_phase(program, num_colors + sim::kRoundCapSlack,
                           "mis-color-sweep");
  out.in_mis = program.take();
  out.colors_used = num_colors;
  out.algorithm = "color-sweep";
  return out;
}

MisResult deterministic_mis(sim::Runtime& rt, int arboricity_bound, double mu,
                            double eps) {
  const std::size_t log_mark = rt.log().size();
  LegalColoringResult coloring =
      legal_coloring_linear(rt, arboricity_bound, mu, eps);
  MisResult out = mis_from_coloring(rt, coloring.colors, coloring.distinct);
  out.total.prepend(std::move(coloring.total));
  out.algorithm = "barenboim-elkin(coloring)+sweep";
  out.phases = rt.log().slice(log_mark);
  return out;
}

}  // namespace dvc
