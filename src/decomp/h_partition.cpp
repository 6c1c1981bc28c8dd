#include "decomp/h_partition.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace dvc {
namespace {

class HPartitionProgram : public sim::VertexProgram {
 public:
  HPartitionProgram(const Graph& g, int threshold,
                    const std::vector<std::int64_t>* groups)
      : threshold_(threshold),
        groups_(groups),
        level_(static_cast<std::size_t>(g.num_vertices()), -1) {}

  std::string name() const override { return "h-partition"; }
  int max_words() const override { return h_partition_max_words(); }

  void begin(sim::Ctx& ctx) override {
    ctx.broadcast({group_of(ctx.vertex())});
  }

  void step(sim::Ctx& ctx, const sim::Inbox& inbox) override {
    const std::int64_t mine = group_of(ctx.vertex());
    int active_neighbors = 0;
    for (const sim::MsgView& msg : inbox) {
      active_neighbors += msg.data[0] == mine;
    }
    if (active_neighbors <= threshold_) {
      level_[static_cast<std::size_t>(ctx.vertex())] = ctx.round() - 1;
      ctx.halt();
      return;
    }
    ctx.broadcast({mine});
  }

  const std::vector<int>& levels() const { return level_; }

  bool dist_capable() const override { return true; }
  std::vector<sim::StateColumn> state_columns() override {
    return {sim::StateColumn::vertex(level_.data())};
  }

 private:
  std::int64_t group_of(V v) const {
    return groups_ ? (*groups_)[static_cast<std::size_t>(v)] : 0;
  }

  int threshold_;
  const std::vector<std::int64_t>* groups_;
  std::vector<int> level_;
};

}  // namespace

HPartitionResult h_partition(sim::Runtime& rt, int arboricity_bound, double eps,
                             const std::vector<std::int64_t>* groups) {
  DVC_REQUIRE(arboricity_bound >= 1, "arboricity bound must be >= 1");
  DVC_REQUIRE(eps > 0.0 && eps <= 2.0, "eps must be in (0, 2]");
  const Graph& g = rt.graph();
  HPartitionResult out;
  out.threshold =
      static_cast<int>(std::floor((2.0 + eps) * arboricity_bound));
  HPartitionProgram program(g, out.threshold, groups);
  // Active-vertex count shrinks by a factor (2+eps)/2 per round; the cap
  // below is ~4x the worst-case iteration count for eps = 0.25.
  const int cap = sim::default_round_cap(g.num_vertices());
  out.stats = rt.run_phase(program, cap, "h-partition");
  out.level = program.levels();
  out.num_levels = 0;
  for (const int lvl : out.level) {
    DVC_ENSURE(lvl >= 0, "every vertex must be assigned a level");
    out.num_levels = std::max(out.num_levels, lvl + 1);
  }
  return out;
}

bool verify_h_partition(const Graph& g, const HPartitionResult& hp,
                        const std::vector<std::int64_t>* groups) {
  for (V v = 0; v < g.num_vertices(); ++v) {
    const int lv = hp.level[static_cast<std::size_t>(v)];
    int upward = 0;
    for (const V u : g.neighbors(v)) {
      if (groups && (*groups)[static_cast<std::size_t>(u)] !=
                        (*groups)[static_cast<std::size_t>(v)]) {
        continue;
      }
      upward += hp.level[static_cast<std::size_t>(u)] >= lv;
    }
    if (upward > hp.threshold) return false;
  }
  return true;
}

}  // namespace dvc
