#include "core/legal_coloring.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "common/math.hpp"
#include "core/arbdefective.hpp"
#include "decomp/h_partition.hpp"
#include "defective/reduce.hpp"
#include "defective/small_degree.hpp"

namespace dvc {
namespace {

/// Order-preserving dense renaming of group labels (behaviour-preserving
/// bookkeeping between phases; see header). Runs once per refinement phase
/// on the hot pipeline path: rank lookup is binary search over a flat
/// sorted vector, O(n log n) total with no node allocations.
std::vector<std::int64_t> compact_groups(const std::vector<std::int64_t>& groups) {
  std::vector<std::int64_t> sorted(groups);
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::vector<std::int64_t> out(groups.size());
  for (std::size_t i = 0; i < groups.size(); ++i) {
    out[i] = std::lower_bound(sorted.begin(), sorted.end(), groups[i]) -
             sorted.begin();
  }
  return out;
}

std::uint64_t saturating_mul(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t cap = std::numeric_limits<std::uint64_t>::max();
  if (b != 0 && a > cap / b) return cap;
  return a * b;
}

}  // namespace

LegalColoringResult legal_coloring(sim::Runtime& rt, int arboricity_bound, int p,
                                   double eps,
                                   const std::vector<std::int64_t>* initial_groups,
                                   int initial_alpha) {
  DVC_REQUIRE(arboricity_bound >= 1, "arboricity bound must be >= 1");
  DVC_REQUIRE(p >= 4, "Legal-Coloring needs p >= 4 so the arboricity shrinks "
                      "each phase (the paper assumes p >= 16)");
  const Graph& g = rt.graph();
  const std::size_t log_mark = rt.log().size();
  LegalColoringResult out;
  std::vector<std::int64_t> groups;
  if (initial_groups) {
    groups = compact_groups(*initial_groups);
  } else {
    groups.assign(static_cast<std::size_t>(g.num_vertices()), 0);
  }
  int alpha = initial_alpha > 0 ? initial_alpha : arboricity_bound;
  std::uint64_t formula_groups = 1;
  for (const std::int64_t lab : groups) {
    formula_groups = std::max<std::uint64_t>(
        formula_groups, static_cast<std::uint64_t>(lab) + 1);
  }

  // While-loop of Algorithm 2: refine the decomposition until alpha <= p.
  while (alpha > p) {
    ArbdefectiveColoringResult phase = [&] {
      const sim::PhaseSpan span(rt, "arbdefective(p=" + std::to_string(p) +
                                        ",alpha=" + std::to_string(alpha) + ")");
      return arbdefective_coloring(rt, alpha, /*t=*/p, /*k=*/p, eps, &groups);
    }();
    out.total += phase.total;
    ++out.iterations;
    for (V v = 0; v < g.num_vertices(); ++v) {
      groups[static_cast<std::size_t>(v)] =
          groups[static_cast<std::size_t>(v)] * p + phase.colors[static_cast<std::size_t>(v)];
    }
    groups = compact_groups(groups);
    formula_groups = saturating_mul(formula_groups, static_cast<std::uint64_t>(p));
    const int next_alpha = phase.arbdefect_bound;
    DVC_ENSURE(next_alpha < alpha, "arboricity bound failed to shrink");
    alpha = next_alpha;
    if (alpha < 1) alpha = 1;
  }

  // Final stage (lines 17-20): color every subgraph legally with
  // A = floor((2+eps)alpha)+1 colors via Complete-Orientation + greedy.
  const int threshold = static_cast<int>(std::floor((2.0 + eps) * alpha));
  const std::int64_t A = threshold + 1;

  // The whole final stage runs inside one RAII span (closed when the lambda
  // returns, before the log slice below, and unwound on a throw so the
  // session log's depth survives a caught invariant_error).
  const ReduceResult greedy = [&] {
  const sim::PhaseSpan final_span(rt, "final-coloring");

  HPartitionResult hp = h_partition(rt, alpha, eps, &groups);
  out.total += hp.stats;

  std::vector<std::int64_t> layer_labels(static_cast<std::size_t>(g.num_vertices()));
  for (V v = 0; v < g.num_vertices(); ++v) {
    layer_labels[static_cast<std::size_t>(v)] =
        groups[static_cast<std::size_t>(v)] * hp.num_levels +
        hp.level[static_cast<std::size_t>(v)];
  }
  ReduceResult layers = legal_small_degree(rt, hp.threshold, &layer_labels);
  out.total += layers.stats;

  // Complete orientation within groups by (layer, layer-color), then greedy.
  Orientation sigma(g);
  {
    // One exchange round: {group, level, layer color}; orient towards the
    // greater pair. (Same level + same layer color cannot be adjacent: the
    // layer coloring is legal.)
    class OrientProgram : public sim::VertexProgram {
     public:
      OrientProgram(Orientation& s, const std::vector<std::int64_t>& grp,
                    const std::vector<int>& level, const Coloring& psi)
          : sigma_(&s), groups_(&grp), level_(&level), psi_(&psi) {}
      std::string name() const override { return "final-orient"; }
      int max_words() const override { return final_orient_max_words(); }
      void begin(sim::Ctx& ctx) override {
        const V v = ctx.vertex();
        ctx.broadcast({(*groups_)[static_cast<std::size_t>(v)],
                       (*level_)[static_cast<std::size_t>(v)],
                       (*psi_)[static_cast<std::size_t>(v)]});
      }
      void step(sim::Ctx& ctx, const sim::Inbox& inbox) override {
        const V v = ctx.vertex();
        const std::int64_t mine = (*groups_)[static_cast<std::size_t>(v)];
        const std::int64_t l = (*level_)[static_cast<std::size_t>(v)];
        const std::int64_t c = (*psi_)[static_cast<std::size_t>(v)];
        for (const sim::MsgView& msg : inbox) {
          if (msg.data[0] != mine) continue;
          const std::int64_t ul = msg.data[1], uc = msg.data[2];
          // Single-slot writes keep the exchange race-free under the
          // sharded executor; the neighbor sets the mirror side itself.
          if (ul > l || (ul == l && uc > c)) {
            sigma_->orient_out_local(v, msg.port);
          } else {
            DVC_ENSURE(ul != l || uc != c,
                       "layer coloring must be legal inside layers");
            sigma_->orient_in_local(v, msg.port);
          }
        }
        ctx.halt();
      }
      bool dist_capable() const override { return true; }
      std::vector<sim::StateColumn> state_columns() override {
        return {sim::StateColumn::slot(sigma_->slot_dirs())};
      }
     private:
      Orientation* sigma_;
      const std::vector<std::int64_t>* groups_;
      const std::vector<int>* level_;
      const Coloring* psi_;
    };
    OrientProgram program(sigma, groups, hp.level, layers.colors);
    const sim::RunStats& st =
        rt.run_phase(program, sim::kOneExchangeRoundCap, "final-orient");
    out.total += st;
  }

  ReduceResult gr = greedy_by_orientation(rt, sigma, A, &groups);
  out.total += gr.stats;
  return gr;
  }();

  // Final color: (subgraph index) * A + greedy color; disjoint palettes make
  // the union legal.
  out.colors.resize(static_cast<std::size_t>(g.num_vertices()));
  for (V v = 0; v < g.num_vertices(); ++v) {
    out.colors[static_cast<std::size_t>(v)] =
        groups[static_cast<std::size_t>(v)] * A +
        greedy.colors[static_cast<std::size_t>(v)];
  }
  out.distinct = distinct_colors(out.colors);
  out.colors = compact_colors(out.colors);
  out.palette_formula =
      saturating_mul(formula_groups, static_cast<std::uint64_t>(A));
  out.phases = rt.log().slice(log_mark);
  return out;
}

LegalColoringResult legal_coloring_linear(sim::Runtime& rt, int arboricity_bound,
                                          double mu, double eps) {
  DVC_REQUIRE(mu > 0.0 && mu < 1.0, "mu must be in (0,1)");
  const int p = std::max(
      4, static_cast<int>(std::ceil(std::pow(arboricity_bound, mu / 2.0))));
  return legal_coloring(rt, arboricity_bound, p, eps);
}

LegalColoringResult legal_coloring_near_linear(sim::Runtime& rt, int arboricity_bound,
                                               double eta, double eps) {
  DVC_REQUIRE(eta > 0.0, "eta must be positive");
  const int exponent = std::min(16, static_cast<int>(std::ceil(2.0 / eta)));
  const int p = std::max(4, 1 << exponent);
  return legal_coloring(rt, arboricity_bound, p, eps);
}

LegalColoringResult legal_coloring_slow_fn(sim::Runtime& rt, int arboricity_bound,
                                           int f_value, double eps) {
  DVC_REQUIRE(f_value >= 1, "f(a) must be >= 1");
  const int p = std::max(
      4, static_cast<int>(std::ceil(std::sqrt(static_cast<double>(f_value)))));
  return legal_coloring(rt, arboricity_bound, p, eps);
}

LegalColoringResult delta_plus_one_low_arb(sim::Runtime& rt, int arboricity_bound,
                                           double eta, double eps) {
  const Graph& g = rt.graph();
  const std::size_t log_mark = rt.log().size();
  LegalColoringResult out = legal_coloring_near_linear(rt, arboricity_bound, eta, eps);
  const std::int64_t target = g.max_degree() + 1;
  if (out.distinct <= target) return out;
  // Constant-factor overshoot on a small instance: finish with a
  // Kuhn-Wattenhofer reduction to Delta+1 (colors are already dense).
  {
    const sim::PhaseSpan span(rt, "kw-fallback-to-delta-plus-one");
    ReduceResult reduced =
        kw_reduce(rt, out.colors, out.distinct, g.max_degree());
    out.total += reduced.stats;
    out.colors = std::move(reduced.colors);
  }
  out.distinct = distinct_colors(out.colors);
  out.phases = rt.log().slice(log_mark);
  return out;
}

}  // namespace dvc
