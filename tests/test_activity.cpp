// Tests of the per-round activity accounting (the Section 1.4 parallelism
// instrumentation) and of stats composition across phases.
#include <gtest/gtest.h>

#include <numeric>

#include "core/legal_coloring.hpp"
#include "decomp/h_partition.hpp"
#include "graph/generators.hpp"
#include "sim/runtime.hpp"

namespace dvc {
namespace {

TEST(Activity, EngineRecordsOneSamplePerRound) {
  Graph g = planted_arboricity(512, 4, 1);
  sim::Runtime rt(g);
  const HPartitionResult hp = h_partition(rt, 4);
  EXPECT_EQ(static_cast<int>(hp.stats.active_per_round.size()), hp.stats.rounds);
  // Round 1 starts with everyone alive.
  ASSERT_FALSE(hp.stats.active_per_round.empty());
  EXPECT_EQ(hp.stats.active_per_round.front(), g.num_vertices());
}

TEST(Activity, HPartitionActivityIsNonIncreasing) {
  Graph g = planted_arboricity(2048, 8, 2);
  sim::Runtime rt(g);
  const HPartitionResult hp = h_partition(rt, 8);
  const auto& act = hp.stats.active_per_round;
  for (std::size_t i = 1; i < act.size(); ++i) EXPECT_LE(act[i], act[i - 1]);
}

TEST(Activity, StatsConcatenateAcrossPhases) {
  sim::RunStats a;
  a.rounds = 2;
  a.active_per_round = {10, 5};
  sim::RunStats b;
  b.rounds = 1;
  b.active_per_round = {7};
  a += b;
  EXPECT_EQ(a.active_per_round, (std::vector<std::int32_t>{10, 5, 7}));
  EXPECT_EQ(static_cast<int>(a.active_per_round.size()), a.rounds);
}

TEST(Activity, LegalColoringProfileCoversEveryRound) {
  Graph g = planted_arboricity(1024, 8, 3);
  sim::Runtime rt(g);
  const LegalColoringResult res = legal_coloring(rt, 8, 4);
  EXPECT_EQ(static_cast<int>(res.total.active_per_round.size()),
            res.total.rounds);
  // Section 1.4: most rounds keep most vertices active. Require a mean
  // activity of at least 30% as a conservative regression floor (measured
  // values are far higher).
  double sum = 0;
  for (const auto live : res.total.active_per_round) sum += live;
  const double mean_fraction =
      sum / (static_cast<double>(res.total.active_per_round.size()) *
             g.num_vertices());
  EXPECT_GE(mean_fraction, 0.3);
}

}  // namespace
}  // namespace dvc
