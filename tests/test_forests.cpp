#include <gtest/gtest.h>

#include <cmath>

#include "decomp/forests.hpp"
#include "graph/generators.hpp"

namespace dvc {
namespace {

TEST(Forests, DecomposesPlantedGraphIntoOAForests) {
  const int a = 4;
  Graph g = planted_arboricity(1024, a, 1);
  sim::Runtime rt(g);
  const ForestsDecomposition fd = forests_decomposition(rt, a);
  EXPECT_TRUE(verify_forests_decomposition(g, fd));
  // Lemma 2.2(2): O(a) forests -- at most floor((2+eps)a).
  EXPECT_LE(fd.num_forests, static_cast<int>(std::floor(2.25 * a)));
  // num_forests = max out-degree >= average degree / 2 ~ a - 1.
  EXPECT_GE(fd.num_forests, a - 1);
  // Every edge is assigned.
  for (std::int64_t s = 0; s < g.num_slots(); ++s) {
    EXPECT_GE(fd.forest_of_slot[static_cast<std::size_t>(s)], 0);
  }
  // O(log n) rounds.
  EXPECT_LE(fd.total.rounds, 6 * std::log(1024.0) + 16);
}

TEST(Forests, TreeDecomposesIntoFewForests) {
  Graph t = random_tree(512, 2);
  sim::Runtime rt(t);
  const ForestsDecomposition fd = forests_decomposition(rt, 1);
  EXPECT_TRUE(verify_forests_decomposition(t, fd));
  EXPECT_LE(fd.num_forests, 2);  // threshold floor(2.25) = 2
}

TEST(Forests, VerifierCatchesCycles) {
  Graph c = cycle_graph(4);
  ForestsDecomposition fake{std::vector<int>(static_cast<std::size_t>(c.num_slots()), 0),
                            /*num_forests=*/1,  // all 4 cycle edges: cyclic
                            {Orientation(c), HPartitionResult{}, sim::RunStats{}},
                            sim::RunStats{}};
  EXPECT_FALSE(verify_forests_decomposition(c, fake));
}

TEST(Forests, EachForestHasPerVertexOutDegreeOne) {
  Graph g = planted_arboricity(256, 3, 3);
  sim::Runtime rt(g);
  const ForestsDecomposition fd = forests_decomposition(rt, 3);
  for (V v = 0; v < g.num_vertices(); ++v) {
    std::vector<int> seen;
    const int deg = g.degree(v);
    for (int p = 0; p < deg; ++p) {
      if (!fd.orientation.sigma.is_out(v, p)) continue;
      seen.push_back(fd.forest_of_slot[static_cast<std::size_t>(g.slot(v, p))]);
    }
    std::sort(seen.begin(), seen.end());
    EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) == seen.end())
        << "vertex has two out-edges in one forest";
  }
}

class ForestsSweep : public ::testing::TestWithParam<int> {};

TEST_P(ForestsSweep, ValidAcrossArboricities) {
  const int a = GetParam();
  Graph g = planted_arboricity(512, a, static_cast<std::uint64_t>(a) * 7);
  sim::Runtime rt(g);
  const ForestsDecomposition fd = forests_decomposition(rt, a);
  EXPECT_TRUE(verify_forests_decomposition(g, fd));
  EXPECT_LE(fd.num_forests, static_cast<int>(std::floor(2.25 * a)));
}

INSTANTIATE_TEST_SUITE_P(A, ForestsSweep, ::testing::Values(1, 2, 3, 5, 8));

}  // namespace
}  // namespace dvc
