// Robustness and regression tests: parameter sweeps over eps, adversarial
// topologies, phase-boundary regressions, and palette-shape properties that
// pin down the paper's asymptotics numerically.
#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"
#include "core/arb_kuhn.hpp"
#include "core/legal_coloring.hpp"
#include "decomp/h_partition.hpp"
#include "defective/kuhn.hpp"
#include "defective/reduce.hpp"
#include "graph/generators.hpp"

namespace dvc {
namespace {

// ---------- eps sweeps: every driver must work across the slack range ----

class EpsSweep : public ::testing::TestWithParam<double> {};

TEST_P(EpsSweep, HPartitionAndLegalColoring) {
  const double eps = GetParam();
  Graph g = planted_arboricity(1024, 6, 1);
  sim::Runtime rt(g);
  const HPartitionResult hp = h_partition(rt, 6, eps);
  EXPECT_TRUE(verify_h_partition(g, hp));
  EXPECT_EQ(hp.threshold, static_cast<int>(std::floor((2.0 + eps) * 6)));

  const LegalColoringResult res = legal_coloring(rt, 6, 4, eps);
  EXPECT_TRUE(is_legal_coloring(g, res.colors));
}

INSTANTIATE_TEST_SUITE_P(Slack, EpsSweep, ::testing::Values(0.05, 0.25, 0.5, 1.0));

// Larger eps => higher threshold => fewer, fatter layers.
TEST(EpsTradeoff, LayersShrinkWithEps) {
  Graph g = planted_arboricity(4096, 8, 2);
  sim::Runtime rt(g);
  const HPartitionResult tight = h_partition(rt, 8, 0.05);
  const HPartitionResult loose = h_partition(rt, 8, 1.0);
  EXPECT_GE(tight.num_levels, loose.num_levels);
}

// ---------- adversarial topologies ---------------------------------------

TEST(Adversarial, DeepPathStressesWaitingChains) {
  // A bare path is the worst case for greedy waves: orientation lengths can
  // reach the full H-layer bound, but the pipeline's partial orientations
  // keep rounds logarithmic.
  Graph p = path_graph(20000);
  sim::Runtime rt(p);
  const LegalColoringResult res = legal_coloring(rt, 1, 4);
  EXPECT_TRUE(is_legal_coloring(p, res.colors));
  EXPECT_LE(res.distinct, 3);
  EXPECT_LE(res.total.rounds, 200);  // not O(n)!
}

TEST(Adversarial, StarHubNeverOverflows) {
  Graph s = star_graph(50000);
  sim::Runtime rt(s);
  const LegalColoringResult res = legal_coloring(rt, 1, 4);
  EXPECT_TRUE(is_legal_coloring(s, res.colors));
  EXPECT_LE(res.distinct, 3);
}

TEST(Adversarial, DoubleStarBridge) {
  // Two hubs joined by an edge, all leaves private: arboricity 1, Delta huge.
  EdgeList edges;
  const V n = 10001;
  for (V v = 2; v < n; ++v) edges.emplace_back(v % 2, v);
  edges.emplace_back(0, 1);
  Graph g = Graph::from_edges(n, edges);
  sim::Runtime rt(g);
  const LegalColoringResult res = legal_coloring(rt, 1, 4);
  EXPECT_TRUE(is_legal_coloring(g, res.colors));
  EXPECT_LE(res.distinct, 3);
}

TEST(Adversarial, CliqueAtMaxSupportedArboricity) {
  // K_24: arboricity 12. The pipeline must handle dense graphs too.
  Graph k = complete_graph(24);
  sim::Runtime rt(k);
  const LegalColoringResult res = legal_coloring(rt, 12, 4);
  EXPECT_TRUE(is_legal_coloring(k, res.colors));
  EXPECT_GE(res.distinct, 24);  // chi(K_24) = 24: no algorithm can beat it
}

TEST(Adversarial, LollipopCliquePlusPath) {
  EdgeList edges = complete_graph(16).edges();
  for (V v = 16; v < 5000; ++v) edges.emplace_back(v - 1, v);
  Graph g = Graph::from_edges(5000, edges);
  sim::Runtime rt(g);
  const LegalColoringResult res = legal_coloring(rt, 8, 4);
  EXPECT_TRUE(is_legal_coloring(g, res.colors));
  EXPECT_GE(res.distinct, 16);  // the K_16 end forces 16 colors
}

// ---------- phase-boundary regression (kw_reduce renumbering) ------------

TEST(Regression, KwReducePhaseBoundaryMessagesCarryNewNumbering) {
  // Exercises multiple halving phases: palette 20x the target so the
  // reduction crosses >= 4 phase boundaries. The legality of the result
  // proves in-flight messages are interpreted in the new numbering (this
  // was a real bug during development).
  Graph g = random_near_regular(600, 6, 4);
  sim::Runtime rt(g);
  const DefectiveResult linial = linial_coloring(rt, g.max_degree());
  ASSERT_GT(linial.palette, 20 * (g.max_degree() + 1));
  const ReduceResult res =
      kw_reduce(rt, linial.colors, linial.palette, g.max_degree());
  EXPECT_TRUE(is_legal_coloring(g, res.colors));
  EXPECT_LT(palette_span(res.colors), g.max_degree() + 2);
}

// ---------- palette-shape properties --------------------------------------

TEST(Shape, Theorem45ColorRatioShrinksWithF) {
  // a^{1+o(1)}: for fixed a, growing f (slower-growing allowed time) must
  // not increase colors; the ratio colors/a stays modest.
  const int a = 32;
  Graph g = planted_arboricity(4096, a, 5);
  sim::Runtime rt(g);
  int prev = 1 << 30;
  for (const int f : {16, 64, 256}) {
    const LegalColoringResult res = legal_coloring_slow_fn(rt, a, f);
    EXPECT_TRUE(is_legal_coloring(g, res.colors));
    EXPECT_LE(res.distinct, prev + a);  // near-monotone in f
    prev = res.distinct;
  }
}

TEST(Shape, ArbKuhnPaletteQuadraticInAOverD) {
  // O((A/d)^2) palette: quadrupling d shrinks the palette substantially.
  // (The staged defect-budget schedule spends roughly half the budget in
  // the final step, so the measured ratio is ~(4/2)^2 = 4x rather than the
  // asymptotic 16x; assert a factor > 3.)
  const int a = 32;
  Graph g = planted_arboricity(4096, a, 6);
  sim::Runtime rt(g);
  const ArbKuhnResult d2 = arb_kuhn_arbdefective(rt, a, 2);
  const ArbKuhnResult d8 = arb_kuhn_arbdefective(rt, a, 8);
  EXPECT_LT(3 * d8.palette, d2.palette);
}

TEST(Shape, TradeoffRoundsDecreaseInT) {
  const int a = 16;
  Graph g = planted_arboricity(4096, a, 7);
  sim::Runtime rt(g);
  const LegalColoringResult t1 = tradeoff_coloring(rt, a, 1);
  const LegalColoringResult t8 = tradeoff_coloring(rt, a, 8);
  EXPECT_GT(t1.total.rounds, t8.total.rounds);
}

// ---------- bound misuse ---------------------------------------------------

TEST(Misuse, UnderestimatedArboricityFailsLoudly) {
  // K_16 has arboricity 8; claiming 3 must throw, not return garbage.
  Graph k = complete_graph(16);
  sim::Runtime rt(k);
  EXPECT_THROW(legal_coloring(rt, 3, 4), invariant_error);
}

TEST(Misuse, OverestimatedArboricityStillCorrect) {
  // Overestimating a only costs colors/rounds, never correctness.
  Graph t = random_tree(2048, 14);
  sim::Runtime rt(t);
  const LegalColoringResult res = legal_coloring(rt, 16, 4);
  EXPECT_TRUE(is_legal_coloring(t, res.colors));
}

}  // namespace
}  // namespace dvc
