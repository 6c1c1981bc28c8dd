#include "decomp/orientations.hpp"

#include "common/check.hpp"
#include "common/math.hpp"
#include "defective/small_degree.hpp"

namespace dvc {
namespace {

// One-round orientation exchange: every vertex broadcasts
// {group, key1, key2} and orients each same-group edge towards the
// lexicographically greater (key1, key2); equal keys leave the edge
// unoriented (used by Partial-Orientation, where equal keys mean "same
// layer, same defective color").
class OrientExchangeProgram : public sim::VertexProgram {
 public:
  OrientExchangeProgram(Orientation& sigma,
                        const std::vector<std::int64_t>* groups,
                        const std::vector<std::int64_t>& key1,
                        const std::vector<std::int64_t>& key2)
      : sigma_(&sigma), groups_(groups), key1_(&key1), key2_(&key2) {}

  std::string name() const override { return "orient-exchange"; }
  int max_words() const override { return orient_exchange_max_words(); }

  void begin(sim::Ctx& ctx) override {
    const V v = ctx.vertex();
    ctx.broadcast({group_of(v), (*key1_)[static_cast<std::size_t>(v)],
                   (*key2_)[static_cast<std::size_t>(v)]});
  }

  void step(sim::Ctx& ctx, const sim::Inbox& inbox) override {
    const V v = ctx.vertex();
    const std::int64_t mine = group_of(v);
    const std::int64_t k1 = (*key1_)[static_cast<std::size_t>(v)];
    const std::int64_t k2 = (*key2_)[static_cast<std::size_t>(v)];
    for (const sim::MsgView& msg : inbox) {
      if (msg.data[0] != mine) continue;  // cross-group: stays unoriented
      const std::int64_t u1 = msg.data[1];
      const std::int64_t u2 = msg.data[2];
      // Single-slot writes: the neighbor runs the mirror comparison in this
      // same round and sets its own side, which keeps the two slots
      // consistent without writing across shard boundaries.
      if (u1 > k1 || (u1 == k1 && u2 > k2)) {
        sigma_->orient_out_local(v, msg.port);
      } else if (u1 < k1 || (u1 == k1 && u2 < k2)) {
        sigma_->orient_in_local(v, msg.port);
      }
      // Equal (key1, key2): unoriented.
    }
    ctx.halt();
  }

  bool dist_capable() const override { return true; }
  std::vector<sim::StateColumn> state_columns() override {
    return {sim::StateColumn::slot(sigma_->slot_dirs())};
  }

 private:
  std::int64_t group_of(V v) const {
    return groups_ ? (*groups_)[static_cast<std::size_t>(v)] : 0;
  }

  Orientation* sigma_;
  const std::vector<std::int64_t>* groups_;
  const std::vector<std::int64_t>* key1_;
  const std::vector<std::int64_t>* key2_;
};

sim::RunStats run_orient_exchange(sim::Runtime& rt, Orientation& sigma,
                                  const std::vector<std::int64_t>* groups,
                                  const std::vector<std::int64_t>& key1,
                                  const std::vector<std::int64_t>& key2) {
  OrientExchangeProgram program(sigma, groups, key1, key2);
  return rt.run_phase(program, sim::kOneExchangeRoundCap, "orient-exchange");
}

std::vector<std::int64_t> to_i64(const std::vector<int>& v) {
  return std::vector<std::int64_t>(v.begin(), v.end());
}

/// Composite (group, level) labels for running layer-local subroutines in
/// parallel across groups: equal label <=> same group and same H-layer.
std::vector<std::int64_t> group_level_labels(const Graph& g,
                                             const std::vector<std::int64_t>* groups,
                                             const HPartitionResult& hp) {
  std::vector<std::int64_t> labels(static_cast<std::size_t>(g.num_vertices()));
  for (V v = 0; v < g.num_vertices(); ++v) {
    const std::int64_t base = groups ? (*groups)[static_cast<std::size_t>(v)] : 0;
    labels[static_cast<std::size_t>(v)] =
        base * hp.num_levels + hp.level[static_cast<std::size_t>(v)];
  }
  return labels;
}

}  // namespace

OrientationResult orient_by_ids(sim::Runtime& rt, int arboricity_bound, double eps,
                                const std::vector<std::int64_t>* groups) {
  const Graph& g = rt.graph();
  const sim::PhaseSpan span(rt, "orient-by-ids");
  OrientationResult out{Orientation(g), h_partition(rt, arboricity_bound, eps, groups),
                        sim::RunStats{}};
  out.total += out.hp.stats;
  std::vector<std::int64_t> key1 = to_i64(out.hp.level);
  std::vector<std::int64_t> key2(static_cast<std::size_t>(g.num_vertices()));
  for (V v = 0; v < g.num_vertices(); ++v) key2[static_cast<std::size_t>(v)] = v + 1;
  out.total += run_orient_exchange(rt, out.sigma, groups, key1, key2);
  return out;
}

CompleteOrientationResult complete_orientation(
    sim::Runtime& rt, int arboricity_bound, double eps,
    const std::vector<std::int64_t>* groups) {
  const Graph& g = rt.graph();
  const sim::PhaseSpan span(rt, "complete-orientation");
  HPartitionResult hp = h_partition(rt, arboricity_bound, eps, groups);
  const std::vector<std::int64_t> layer_labels = group_level_labels(g, groups, hp);
  // Legal O(a)-coloring of every layer in parallel; degree within a layer is
  // bounded by the H-partition threshold.
  ReduceResult layers = legal_small_degree(rt, hp.threshold, &layer_labels);

  CompleteOrientationResult out{Orientation(g), std::move(hp), std::move(layers),
                                sim::RunStats{}};
  out.total += out.hp.stats;
  out.total += out.layer_coloring.stats;
  const std::vector<std::int64_t> key1 = to_i64(out.hp.level);
  out.total +=
      run_orient_exchange(rt, out.sigma, groups, key1, out.layer_coloring.colors);
  return out;
}

PartialOrientationResult partial_orientation(
    sim::Runtime& rt, int arboricity_bound, int t, double eps,
    const std::vector<std::int64_t>* groups) {
  DVC_REQUIRE(t >= 1, "t must be >= 1");
  const Graph& g = rt.graph();
  const sim::PhaseSpan span(rt, "partial-orientation");
  HPartitionResult hp = h_partition(rt, arboricity_bound, eps, groups);
  const std::vector<std::int64_t> layer_labels = group_level_labels(g, groups, hp);
  // floor(a/t)-defective O(t^2)-coloring of every layer in parallel
  // (Lemma 2.1 applied with layer degree bound floor((2+eps)a)).
  const int defect = arboricity_bound / t;
  DefectiveResult layers = kuhn_defective(rt, hp.threshold, defect, &layer_labels);

  PartialOrientationResult out{Orientation(g), std::move(hp), std::move(layers),
                               defect, sim::RunStats{}};
  out.total += out.hp.stats;
  out.total += out.layer_coloring.stats;
  const std::vector<std::int64_t> key1 = to_i64(out.hp.level);
  out.total +=
      run_orient_exchange(rt, out.sigma, groups, key1, out.layer_coloring.colors);
  return out;
}

}  // namespace dvc
