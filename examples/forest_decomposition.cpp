// Tour of the decomposition toolkit (Section 2.2 and Section 3 machinery):
// H-partition, forests decomposition, and the three orientation procedures,
// with every structural guarantee checked on the spot.
//
//   ./example_forest_decomposition [--n=10000] [--a=6] [--t=3] [--seed=2]
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "decomp/forests.hpp"
#include "decomp/orientations.hpp"
#include "graph/arboricity.hpp"
#include "graph/generators.hpp"

int main(int argc, char** argv) {
  using namespace dvc;
  const Cli cli(argc, argv);
  const V n = static_cast<V>(cli.get_int("n", 10000));
  const int a = static_cast<int>(cli.get_int("a", 6));
  const int t = static_cast<int>(cli.get_int("t", 3));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 2));

  const Graph g = planted_arboricity(n, a, seed);
  sim::Runtime rt(g);
  std::cout << "Graph: n=" << g.num_vertices() << " m=" << g.num_edges()
            << " planted arboricity <= " << a << "\n\n";

  // 1. H-partition (Lemma 2.3).
  const HPartitionResult hp = h_partition(rt, a);
  std::cout << "H-partition: " << hp.num_levels << " layers, layer-degree <= "
            << hp.threshold << ", valid=" << std::boolalpha
            << verify_h_partition(g, hp) << ", rounds=" << hp.stats.rounds
            << "\n";

  // 2. Forests decomposition (Lemma 2.2(2)).
  const ForestsDecomposition fd = forests_decomposition(rt, a);
  std::cout << "Forests decomposition: " << fd.num_forests
            << " forests (bound floor(2.25a) = " << hp.threshold
            << "), valid=" << verify_forests_decomposition(g, fd)
            << ", rounds=" << fd.total.rounds << "\n\n";

  // 3. The three orientations side by side.
  Table table({"orientation", "out-degree", "deficit", "length", "rounds"});
  {
    const OrientationResult r = orient_by_ids(rt, a);
    table.row("by-ids (Lemma 2.4)", r.sigma.max_out_degree(),
              r.sigma.max_deficit(), r.sigma.length(), r.total.rounds);
  }
  {
    const CompleteOrientationResult r = complete_orientation(rt, a);
    table.row("complete (Lemma 3.3)", r.sigma.max_out_degree(),
              r.sigma.max_deficit(), r.sigma.length(), r.total.rounds);
  }
  {
    const PartialOrientationResult r = partial_orientation(rt, a, t);
    table.row("partial t=" + std::to_string(t) + " (Thm 3.5)",
              r.sigma.max_out_degree(), r.sigma.max_deficit(),
              r.sigma.length(), r.total.rounds);
  }
  table.print(std::cout);

  std::cout << "\nNote the tradeoff the paper exploits: the partial "
               "orientation is dramatically shorter than the complete one "
               "(O(t^2 log n) vs O(a log n) directed-path length) at the "
               "price of a deficit of floor(a/t) unoriented edges per "
               "vertex.\n";
  return 0;
}
