#include <gtest/gtest.h>

#include "common/check.hpp"
#include <set>

#include "core/api.hpp"
#include "graph/generators.hpp"

namespace dvc {
namespace {

class PresetSweep : public ::testing::TestWithParam<Preset> {};

TEST_P(PresetSweep, EveryPresetColorsLegally) {
  const Preset preset = GetParam();
  const int a = 8;
  Graph g = planted_arboricity(2048, a, 1);
  const LegalColoringResult res = color_graph(g, a, preset);
  EXPECT_TRUE(is_legal_coloring(g, res.colors)) << preset_name(preset);
  EXPECT_GT(res.distinct, 0);
  EXPECT_GT(res.total.rounds, 0);
}

INSTANTIATE_TEST_SUITE_P(
    All, PresetSweep,
    ::testing::Values(Preset::LinearColors, Preset::NearLinearColors,
                      Preset::PolylogTime, Preset::FastSubquadratic,
                      Preset::TradeoffAT, Preset::DeltaPlusOneLowArb),
    [](const auto& info) {
      std::string s = preset_name(info.param);
      for (auto& ch : s) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return s;
    });

TEST(Api, PresetNamesAreUnique) {
  std::set<std::string> names;
  for (const Preset p :
       {Preset::LinearColors, Preset::NearLinearColors, Preset::PolylogTime,
        Preset::FastSubquadratic, Preset::TradeoffAT, Preset::DeltaPlusOneLowArb}) {
    names.insert(preset_name(p));
  }
  EXPECT_EQ(names.size(), 6u);
}

TEST(Api, KnobsChangeTheTradeoff) {
  Graph g = planted_arboricity(2048, 16, 2);
  Knobs t2;
  t2.t = 2;
  Knobs t8;
  t8.t = 8;
  const LegalColoringResult a = color_graph(g, 16, Preset::TradeoffAT, t2);
  const LegalColoringResult b = color_graph(g, 16, Preset::TradeoffAT, t8);
  EXPECT_TRUE(is_legal_coloring(g, a.colors));
  EXPECT_TRUE(is_legal_coloring(g, b.colors));
}

TEST(Api, TradeoffDefaultKnobsColorForestsThroughBothOverloads) {
  // Default Knobs (t = 2) on arboricity bound 1: the facade clamps the
  // effective t to [1, a], so forests color legally -- and exactly as with
  // an explicit t = 1 -- through the Graph and the session overloads alike.
  Knobs t1;
  t1.t = 1;
  for (const Graph& g : {path_graph(40), star_graph(40)}) {
    const LegalColoringResult want = color_graph(g, 1, Preset::TradeoffAT, t1);
    const LegalColoringResult by_graph = color_graph(g, 1, Preset::TradeoffAT);
    sim::Runtime rt(g);
    const LegalColoringResult by_session =
        color_graph(rt, 1, Preset::TradeoffAT);
    EXPECT_TRUE(is_legal_coloring(g, by_graph.colors));
    EXPECT_TRUE(is_legal_coloring(g, by_session.colors));
    EXPECT_EQ(by_graph.colors, want.colors);
    EXPECT_EQ(by_session.colors, want.colors);
  }
  // Below the range clamps up to 1 as well.
  Knobs t0;
  t0.t = 0;
  const Graph p = path_graph(16);
  EXPECT_TRUE(is_legal_coloring(
      p, color_graph(p, 1, Preset::TradeoffAT, t0).colors));
}

TEST(Api, MisIsMaximal) {
  Graph g = planted_arboricity(1024, 4, 3);
  const MisResult res = mis_graph(g, 4);
  EXPECT_TRUE(is_maximal_independent_set(g, res.in_mis));
}

TEST(Api, KnobsShardsReachTheFacadeSession) {
  // Outputs are bit-identical at any shard count, so only the spawned
  // worker threads show the knob arrived: shards - 1 per session.
  const Graph g = planted_arboricity(1024, 4, 5);
  const auto spawned_by = [](auto&& run) {
    const std::uint64_t before = sim::Runtime::lifetime_threads_spawned();
    run();
    return sim::Runtime::lifetime_threads_spawned() - before;
  };
  const Knobs four{.shards = 4};
  EXPECT_EQ(spawned_by([&] { color_graph(g, 4, Preset::PolylogTime, four); }), 3u);
  EXPECT_EQ(spawned_by([&] { mis_graph(g, 4, four); }), 3u);
  EXPECT_EQ(spawned_by([&] { color_graph(g, 4, Preset::PolylogTime, Knobs{}); }), 0u);
  EXPECT_EQ(spawned_by([&] { mis_graph(g, 4, Knobs{}); }), 0u);
}

TEST(Api, RejectsBadArboricityBound) {
  Graph g = planted_arboricity(128, 4, 4);
  EXPECT_THROW(color_graph(g, 0, Preset::LinearColors), precondition_error);
  // Bound below the true arboricity: the H-partition stalls and the engine
  // round cap fires.
  EXPECT_THROW(color_graph(complete_graph(32), 2, Preset::LinearColors),
               invariant_error);
}

}  // namespace
}  // namespace dvc
