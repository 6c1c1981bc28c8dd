#include "decomp/forests.hpp"

#include <numeric>

#include "common/check.hpp"

namespace dvc {
namespace {

// Labels out-edges 1..out_deg (in port order) and tells each out-neighbor
// which label its shared edge received.
class ForestLabelProgram : public sim::VertexProgram {
 public:
  ForestLabelProgram(const Graph& g, const Orientation& sigma,
                     std::vector<int>& forest_of_slot)
      : g_(&g), sigma_(&sigma), forest_of_slot_(&forest_of_slot) {}

  std::string name() const override { return "forest-labels"; }
  int max_words() const override { return forest_labels_max_words(); }

  void begin(sim::Ctx& ctx) override {
    const V v = ctx.vertex();
    const int deg = ctx.degree();
    int label = 0;
    for (int p = 0; p < deg; ++p) {
      if (!sigma_->is_out(v, p)) continue;
      (*forest_of_slot_)[static_cast<std::size_t>(g_->slot(v, p))] = label;
      ctx.send(p, {label});
      ++label;
    }
  }

  void step(sim::Ctx& ctx, const sim::Inbox& inbox) override {
    const V v = ctx.vertex();
    for (const sim::MsgView& msg : inbox) {
      (*forest_of_slot_)[static_cast<std::size_t>(g_->slot(v, msg.port))] =
          static_cast<int>(msg.data[0]);
    }
    ctx.halt();
  }

  bool dist_capable() const override { return true; }
  std::vector<sim::StateColumn> state_columns() override {
    return {sim::StateColumn::slot(forest_of_slot_->data())};
  }

 private:
  const Graph* g_;
  const Orientation* sigma_;
  std::vector<int>* forest_of_slot_;
};

}  // namespace

ForestsDecomposition forests_decomposition(sim::Runtime& rt, int arboricity_bound,
                                           double eps,
                                           const std::vector<std::int64_t>* groups) {
  const Graph& g = rt.graph();
  const sim::PhaseSpan span(rt, "forests-decomposition");
  ForestsDecomposition out{
      std::vector<int>(static_cast<std::size_t>(g.num_slots()), -1),
      0,
      orient_by_ids(rt, arboricity_bound, eps, groups),
      sim::RunStats{}};
  out.total += out.orientation.total;
  ForestLabelProgram program(g, out.orientation.sigma, out.forest_of_slot);
  out.total += rt.run_phase(program, sim::kOneExchangeRoundCap, "forest-labels");
  for (const int f : out.forest_of_slot) {
    out.num_forests = std::max(out.num_forests, f + 1);
  }
  return out;
}

bool verify_forests_decomposition(const Graph& g, const ForestsDecomposition& fd) {
  // Slot agreement.
  for (std::int64_t s = 0; s < g.num_slots(); ++s) {
    if (fd.forest_of_slot[static_cast<std::size_t>(s)] !=
        fd.forest_of_slot[static_cast<std::size_t>(g.mirror_slot(s))]) {
      return false;
    }
  }
  // Acyclicity per forest via union-find.
  for (int f = 0; f < fd.num_forests; ++f) {
    std::vector<V> parent(static_cast<std::size_t>(g.num_vertices()));
    std::iota(parent.begin(), parent.end(), 0);
    auto find = [&](V x) {
      while (parent[static_cast<std::size_t>(x)] != x) {
        parent[static_cast<std::size_t>(x)] =
            parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
        x = parent[static_cast<std::size_t>(x)];
      }
      return x;
    };
    for (V v = 0; v < g.num_vertices(); ++v) {
      const int deg = g.degree(v);
      for (int p = 0; p < deg; ++p) {
        const V u = g.neighbor(v, p);
        if (u < v) continue;  // each undirected edge once
        if (fd.forest_of_slot[static_cast<std::size_t>(g.slot(v, p))] != f) continue;
        const V rv = find(v), ru = find(u);
        if (rv == ru) return false;  // cycle within forest f
        parent[static_cast<std::size_t>(rv)] = ru;
      }
    }
  }
  return true;
}

}  // namespace dvc
