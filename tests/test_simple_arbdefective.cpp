#include <gtest/gtest.h>

#include "core/simple_arbdefective.hpp"
#include "decomp/orientations.hpp"
#include "graph/generators.hpp"

namespace dvc {
namespace {

TEST(SimpleArbdefective, Theorem32BoundOnCompleteOrientation) {
  // Complete acyclic orientation with out-degree m: tau = 0, so each class
  // has arboricity <= floor(m/k).
  const int a = 6;
  Graph g = planted_arboricity(1024, a, 1);
  sim::Runtime rt(g);
  const CompleteOrientationResult ori = complete_orientation(rt, a);
  const int m = ori.sigma.max_out_degree();
  for (const int k : {2, 3, 5}) {
    const SimpleArbResult res = simple_arbdefective(rt, ori.sigma, k);
    EXPECT_LT(palette_span(res.colors), k + 1);
    const Orientation witness = make_arbdefect_witness(g, res.colors, ori.sigma);
    EXPECT_LE(certified_arbdefect(g, res.colors, witness), m / k) << "k=" << k;
    // O(length) rounds.
    EXPECT_LE(res.stats.rounds, ori.sigma.length() + 3);
  }
}

TEST(SimpleArbdefective, PartialOrientationAddsDeficit) {
  const int a = 8;
  const int t = 4;
  Graph g = planted_arboricity(2048, a, 2);
  sim::Runtime rt(g);
  const PartialOrientationResult ori = partial_orientation(rt, a, t);
  const int m = ori.sigma.max_out_degree();
  const int tau = ori.sigma.max_deficit();
  const int k = 4;
  const SimpleArbResult res = simple_arbdefective(rt, ori.sigma, k);
  const Orientation witness = make_arbdefect_witness(g, res.colors, ori.sigma);
  // Theorem 3.2: (tau + floor(m/k))-arbdefective k-coloring.
  EXPECT_LE(certified_arbdefect(g, res.colors, witness), tau + m / k);
  EXPECT_LE(res.stats.rounds, ori.sigma.length() + 3);
}

TEST(SimpleArbdefective, SingleColorClassGetsWholeGraph) {
  // k = 1: everything is color 0 and the arbdefect equals the out-degree
  // bound of the orientation.
  Graph g = planted_arboricity(256, 3, 3);
  sim::Runtime rt(g);
  const CompleteOrientationResult ori = complete_orientation(rt, 3);
  const SimpleArbResult res = simple_arbdefective(rt, ori.sigma, 1);
  EXPECT_EQ(distinct_colors(res.colors), 1);
  const Orientation witness = make_arbdefect_witness(g, res.colors, ori.sigma);
  EXPECT_LE(certified_arbdefect(g, res.colors, witness),
            ori.sigma.max_out_degree());
}

TEST(SimpleArbdefective, SinksChooseImmediately) {
  // A star oriented leaves -> hub: leaves wait for the hub only.
  Graph s = star_graph(64);
  sim::Runtime rt(s);
  Orientation o(s);
  for (int p = 0; p < s.degree(0); ++p) o.orient_in(0, p);  // leaves point at hub
  const SimpleArbResult res = simple_arbdefective(rt, o, 2);
  // Hub has no parents: picks color 0 in round 1; leaves have one parent
  // each and pick the least-used color among {hub's} -> color 1... or the
  // pigeonhole bound floor(1/2) = 0 same-color parents.
  const Orientation witness = make_arbdefect_witness(s, res.colors, o);
  EXPECT_EQ(certified_arbdefect(s, res.colors, witness), 0);
  EXPECT_LE(res.stats.rounds, 4);
}

class SimpleArbSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SimpleArbSweep, PigeonholeAcrossParameters) {
  const auto [a, k] = GetParam();
  Graph g = planted_arboricity(512, a, static_cast<std::uint64_t>(a * k));
  sim::Runtime rt(g);
  const CompleteOrientationResult ori = complete_orientation(rt, a);
  const SimpleArbResult res = simple_arbdefective(rt, ori.sigma, k);
  const Orientation witness = make_arbdefect_witness(g, res.colors, ori.sigma);
  EXPECT_LE(certified_arbdefect(g, res.colors, witness),
            ori.sigma.max_out_degree() / k);
}

INSTANTIATE_TEST_SUITE_P(Params, SimpleArbSweep,
                         ::testing::Combine(::testing::Values(2, 4, 8),
                                            ::testing::Values(2, 4, 8)));

}  // namespace
}  // namespace dvc
