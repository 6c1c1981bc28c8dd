#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"
#include "common/math.hpp"
#include "decomp/h_partition.hpp"
#include "graph/arboricity.hpp"
#include "graph/generators.hpp"

namespace dvc {
namespace {

TEST(HPartition, ForestCollapsesQuickly) {
  Graph t = random_tree(500, 1);
  sim::Runtime rt(t);
  const HPartitionResult hp = h_partition(rt, 1);
  EXPECT_TRUE(verify_h_partition(t, hp));
  EXPECT_EQ(hp.threshold, 2);  // floor(2.25 * 1)
  EXPECT_LE(hp.num_levels, 20);
  EXPECT_LE(hp.stats.rounds, 25);
}

TEST(HPartition, LevelsAreLogarithmic) {
  for (const V n : {1 << 10, 1 << 12, 1 << 14}) {
    Graph g = planted_arboricity(n, 4, 7);
    sim::Runtime rt(g);
    const HPartitionResult hp = h_partition(rt, 4);
    EXPECT_TRUE(verify_h_partition(g, hp));
    // Lemma 2.3: l = O(log n); with eps = 0.25 the shrink factor is 1.125,
    // so l <= log_{1.125}(n) ~ 5.9 ln n.
    const double cap = 6.0 * std::log(static_cast<double>(n)) + 4;
    EXPECT_LE(hp.num_levels, cap);
    EXPECT_LE(hp.stats.rounds, cap + 4);
  }
}

TEST(HPartition, ThresholdMatchesEps) {
  Graph g = planted_arboricity(256, 3, 3);
  sim::Runtime rt(g);
  EXPECT_EQ(h_partition(rt, 3, 0.25).threshold, 6);   // floor(2.25*3)
  EXPECT_EQ(h_partition(rt, 3, 1.0).threshold, 9);    // floor(3*3)
  EXPECT_EQ(h_partition(rt, 3, 0.01).threshold, 6);   // floor(2.03*3)
}

TEST(HPartition, ThrowsWhenBoundTooSmall) {
  // K7 has arboricity 4; an arboricity bound of 1 gives threshold 2 and the
  // partition can never make progress.
  Graph k7 = complete_graph(7);
  sim::Runtime rt(k7);
  EXPECT_THROW(h_partition(rt, 1), invariant_error);
}

TEST(HPartition, CompleteGraphIsOneLevelWhenBoundIsLarge) {
  Graph k6 = complete_graph(6);
  sim::Runtime rt(k6);
  const HPartitionResult hp = h_partition(rt, 3);
  EXPECT_TRUE(verify_h_partition(k6, hp));
  // threshold = 6 >= degree 5: everyone joins level 0 immediately.
  EXPECT_EQ(hp.num_levels, 1);
  EXPECT_EQ(hp.stats.rounds, 1);
}

TEST(HPartition, GroupsPartitionIndependently) {
  // Two planted-arboricity graphs joined by a complete bipartite "bridge";
  // with groups the bridge edges must be invisible.
  const V half = 128;
  Graph a = planted_arboricity(half, 2, 1);
  EdgeList edges = a.edges();
  for (const auto& [u, v] : planted_arboricity(half, 2, 2).edges()) {
    edges.emplace_back(u + half, v + half);
  }
  // Dense bridge that would wreck degrees if counted.
  for (V u = 0; u < 16; ++u) {
    for (V v = 0; v < 16; ++v) edges.emplace_back(u, half + v);
  }
  Graph g = Graph::from_edges(2 * half, edges);
  sim::Runtime rt(g);
  std::vector<std::int64_t> groups(static_cast<std::size_t>(2 * half), 0);
  for (V v = half; v < 2 * half; ++v) groups[static_cast<std::size_t>(v)] = 1;
  const HPartitionResult hp = h_partition(rt, 2, 0.25, &groups);
  EXPECT_TRUE(verify_h_partition(g, hp, &groups));
  // Without groups the same bound must fail on the bridged graph: the
  // 16-vertex bicliques give arboricity ~8.
  EXPECT_THROW(h_partition(rt, 2), invariant_error);
}

class HPartitionSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HPartitionSweep, PropertyHolds) {
  const auto [n, a] = GetParam();
  Graph g = planted_arboricity(n, a, static_cast<std::uint64_t>(n) * 13 + a);
  sim::Runtime rt(g);
  const HPartitionResult hp = h_partition(rt, a);
  EXPECT_TRUE(verify_h_partition(g, hp));
  EXPECT_EQ(hp.threshold, static_cast<int>(std::floor(2.25 * a)));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, HPartitionSweep,
    ::testing::Combine(::testing::Values(64, 256, 1024, 4096),
                       ::testing::Values(1, 2, 4, 8)));

}  // namespace
}  // namespace dvc
