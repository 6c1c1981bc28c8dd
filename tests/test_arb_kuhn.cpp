#include <gtest/gtest.h>

#include <cmath>

#include "core/arb_kuhn.hpp"
#include "graph/generators.hpp"

namespace dvc {
namespace {

TEST(ArbKuhn, ArbdefectWithinBudget) {
  const int a = 8;
  Graph g = planted_arboricity(2048, a, 1);
  sim::Runtime rt(g);
  for (const int d : {1, 2, 4, 8}) {
    const ArbKuhnResult res = arb_kuhn_arbdefective(rt, a, d);
    const Orientation witness =
        make_arbdefect_witness(g, res.colors, res.orientation.sigma);
    EXPECT_LE(certified_arbdefect(g, res.colors, witness), d) << "d=" << d;
    for (const auto c : res.colors) EXPECT_LT(c, res.palette);
  }
}

TEST(ArbKuhn, PaletteShrinksWithBudget) {
  const int a = 16;
  Graph g = planted_arboricity(4096, a, 2);
  sim::Runtime rt(g);
  const ArbKuhnResult tight = arb_kuhn_arbdefective(rt, a, 1);
  const ArbKuhnResult loose = arb_kuhn_arbdefective(rt, a, 8);
  EXPECT_LT(loose.palette, tight.palette);  // O((A/d)^2) in the budget d
}

TEST(ArbKuhn, RunsInLogarithmicRounds) {
  const int a = 8;
  for (const V n : {1 << 10, 1 << 13}) {
    Graph g = planted_arboricity(n, a, 3);
    sim::Runtime rt(g);
    const ArbKuhnResult res = arb_kuhn_arbdefective(rt, a, 4);
    EXPECT_LE(res.total.rounds, 8 * std::log2(static_cast<double>(n)) + 32);
  }
}

TEST(ArbKuhn, Theorem52SubquadraticColoring) {
  const int a = 16;
  Graph g = planted_arboricity(4096, a, 4);
  sim::Runtime rt(g);
  const LegalColoringResult res =
      fast_subquadratic_coloring(rt, a, /*class_arboricity=*/4);
  EXPECT_TRUE(is_legal_coloring(g, res.colors));
  // o(a^2): far below the Linial-style a^2-ish count.
  EXPECT_LT(res.distinct, a * a * 4);
}

TEST(ArbKuhn, Theorem53TradeoffMonotone) {
  const int a = 16;
  Graph g = planted_arboricity(4096, a, 5);
  sim::Runtime rt(g);
  int prev_colors = -1;
  for (const int t : {1, 2, 4}) {
    const LegalColoringResult res = tradeoff_coloring(rt, a, t);
    EXPECT_TRUE(is_legal_coloring(g, res.colors)) << "t=" << t;
    if (prev_colors >= 0) {
      // More subgraphs (larger t) => more colors, fewer rounds per class.
      EXPECT_GE(res.distinct, prev_colors / 4) << "t=" << t;
    }
    prev_colors = res.distinct;
  }
}

TEST(ArbKuhn, ZeroBudgetIsLegalColoring) {
  // d = 0: no collisions against parents allowed at all; since every edge
  // is oriented, the result is a legal coloring with O(A^2) colors.
  Graph g = planted_arboricity(1024, 4, 6);
  sim::Runtime rt(g);
  const ArbKuhnResult res = arb_kuhn_arbdefective(rt, 4, 0);
  EXPECT_TRUE(is_legal_coloring(g, res.colors));
}

class ArbKuhnSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ArbKuhnSweep, BudgetHonoredAcrossFamilies) {
  const auto [a, d] = GetParam();
  Graph g = planted_arboricity(1024, a, static_cast<std::uint64_t>(a * 100 + d));
  sim::Runtime rt(g);
  const ArbKuhnResult res = arb_kuhn_arbdefective(rt, a, d);
  const Orientation witness =
      make_arbdefect_witness(g, res.colors, res.orientation.sigma);
  EXPECT_LE(certified_arbdefect(g, res.colors, witness), d);
}

INSTANTIATE_TEST_SUITE_P(Params, ArbKuhnSweep,
                         ::testing::Combine(::testing::Values(4, 8, 16),
                                            ::testing::Values(0, 1, 3, 6)));

}  // namespace
}  // namespace dvc
