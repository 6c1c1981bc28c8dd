#include "core/api.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/math.hpp"
#include "core/arb_kuhn.hpp"

namespace dvc {

std::string preset_name(Preset p) {
  switch (p) {
    case Preset::LinearColors: return "linear-colors(Thm4.3)";
    case Preset::NearLinearColors: return "near-linear-colors(Cor4.6)";
    case Preset::PolylogTime: return "polylog-time(Thm4.5)";
    case Preset::FastSubquadratic: return "fast-subquadratic(Thm5.2)";
    case Preset::TradeoffAT: return "tradeoff-a-t(Thm5.3)";
    case Preset::DeltaPlusOneLowArb: return "delta-plus-one(Cor4.7)";
  }
  return "unknown";
}

LegalColoringResult color_graph(sim::Runtime& rt, int arboricity_bound,
                                Preset preset, const Knobs& knobs) {
  DVC_REQUIRE(arboricity_bound >= 1, "arboricity bound must be >= 1");
  const sim::ScopedCongestWords congest_guard(rt, knobs.congest_words);
  const sim::ScopedFaultPlan fault_guard(rt, knobs.fault_plan);
  switch (preset) {
    case Preset::LinearColors:
      return legal_coloring_linear(rt, arboricity_bound, knobs.mu, knobs.eps);
    case Preset::NearLinearColors:
      return legal_coloring_near_linear(rt, arboricity_bound, knobs.eta, knobs.eps);
    case Preset::PolylogTime: {
      const int f = std::max<int>(
          16, ilog2_ceil(static_cast<std::uint64_t>(std::max(2, arboricity_bound))));
      return legal_coloring_slow_fn(rt, arboricity_bound, f, knobs.eps);
    }
    case Preset::FastSubquadratic: {
      const int f = knobs.f > 0
                        ? knobs.f
                        : std::max(1, static_cast<int>(std::sqrt(
                                          static_cast<double>(arboricity_bound))));
      return fast_subquadratic_coloring(rt, arboricity_bound, f, knobs.eta, knobs.eps);
    }
    case Preset::TradeoffAT:
      // Effective t clamped to [1, a] (see Knobs::t): the default t = 2 is
      // then valid on forests, where a = 1.
      return tradeoff_coloring(rt, arboricity_bound,
                               std::clamp(knobs.t, 1, arboricity_bound),
                               knobs.mu, knobs.eps);
    case Preset::DeltaPlusOneLowArb:
      return delta_plus_one_low_arb(rt, arboricity_bound, knobs.eta, knobs.eps);
  }
  DVC_REQUIRE(false, "unknown preset");
  return {};
}

LegalColoringResult color_graph(const Graph& g, int arboricity_bound, Preset preset,
                                const Knobs& knobs) {
  DVC_REQUIRE(arboricity_bound >= 1, "arboricity bound must be >= 1");
  sim::Runtime rt(g, knobs.shards);
  return color_graph(rt, arboricity_bound, preset, knobs);
}

MisResult mis_graph(sim::Runtime& rt, int arboricity_bound, const Knobs& knobs) {
  const sim::ScopedCongestWords congest_guard(rt, knobs.congest_words);
  const sim::ScopedFaultPlan fault_guard(rt, knobs.fault_plan);
  return deterministic_mis(rt, arboricity_bound, knobs.mu, knobs.eps);
}

MisResult mis_graph(const Graph& g, int arboricity_bound, const Knobs& knobs) {
  sim::Runtime rt(g, knobs.shards);
  return mis_graph(rt, arboricity_bound, knobs);
}

}  // namespace dvc
