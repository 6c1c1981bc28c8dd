#include <gtest/gtest.h>

#include <cmath>

#include "baselines/greedy.hpp"
#include "baselines/luby.hpp"
#include "baselines/rand_coloring.hpp"
#include "graph/arboricity.hpp"
#include "graph/generators.hpp"

namespace dvc {
namespace {

TEST(Luby, ProducesMaximalIndependentSet) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    Graph g = random_gnm(1024, 4096, seed);
    sim::Runtime rt(g);
    const MisResult res = luby_mis(rt, seed);
    EXPECT_TRUE(is_maximal_independent_set(g, res.in_mis)) << seed;
    // O(log n) rounds w.h.p.; generous envelope.
    EXPECT_LE(res.total.rounds, 12 * std::log2(1024.0) + 16);
  }
}

TEST(Luby, HandlesIsolatedVertices) {
  Graph g = Graph::from_edges(5, {{0, 1}});
  sim::Runtime rt(g);
  const MisResult res = luby_mis(rt, 9);
  EXPECT_TRUE(is_maximal_independent_set(g, res.in_mis));
  EXPECT_TRUE(res.in_mis[2] && res.in_mis[3] && res.in_mis[4]);
}

TEST(Luby, DeterministicInSeed) {
  Graph g = random_gnm(256, 512, 4);
  sim::Runtime rt(g);
  const MisResult a = luby_mis(rt, 42);
  const MisResult b = luby_mis(rt, 42);
  EXPECT_EQ(a.in_mis, b.in_mis);
  EXPECT_EQ(a.total.rounds, b.total.rounds);
}

TEST(RandColoring, LegalDeltaPlusOne) {
  for (const std::uint64_t seed : {1ull, 5ull}) {
    Graph g = random_near_regular(1024, 10, seed);
    sim::Runtime rt(g);
    const RandColoringResult res = randomized_delta_plus_one(rt, seed);
    EXPECT_TRUE(is_legal_coloring(g, res.colors));
    EXPECT_LT(palette_span(res.colors), g.max_degree() + 2);
    EXPECT_LE(res.stats.rounds, 12 * std::log2(1024.0) + 16);
  }
}

TEST(Greedy, ByDegeneracyMatchesDegeneracyBound) {
  Graph g = planted_arboricity(1024, 5, 3);
  const GreedyResult res = greedy_coloring(g, GreedyOrder::ByDegeneracy);
  EXPECT_TRUE(is_legal_coloring(g, res.colors));
  EXPECT_LE(res.colors_used, degeneracy(g) + 1);
}

TEST(Greedy, ByIdIsLegal) {
  Graph g = random_gnm(512, 2048, 8);
  const GreedyResult res = greedy_coloring(g, GreedyOrder::ById);
  EXPECT_TRUE(is_legal_coloring(g, res.colors));
  EXPECT_LE(res.colors_used, g.max_degree() + 1);
}

}  // namespace
}  // namespace dvc
