// E1 -- Lemma 2.3: the H-partition has l = O(log n) layers, layer-degree
// <= floor((2+eps)a), and runs in O(log n) rounds.
//
// Paper prediction: layers/log2(n) and rounds/log2(n) stay bounded as n
// grows; layer-degree equals floor(2.25 a) exactly.
#include <cmath>
#include <iostream>

#include "common/table.hpp"
#include "decomp/h_partition.hpp"
#include "graph/generators.hpp"

int main() {
  using namespace dvc;
  std::cout << "E1 (Lemma 2.3): H-partition layers, degree bound, rounds\n\n";
  Table table({"n", "a", "layers", "layers/log2(n)", "layer-degree",
               "bound=floor(2.25a)", "rounds", "rounds/log2(n)", "valid"});
  for (const int a : {2, 4, 8, 16}) {
    for (const V n : {1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18}) {
      const Graph g = planted_arboricity(n, a, 42 + a);
      sim::Runtime rt(g);
      const HPartitionResult hp = h_partition(rt, a);
      const double logn = std::log2(static_cast<double>(n));
      table.row(n, a, hp.num_levels, hp.num_levels / logn, hp.threshold,
                static_cast<int>(std::floor(2.25 * a)), hp.stats.rounds,
                hp.stats.rounds / logn, verify_h_partition(g, hp) ? "yes" : "NO");
    }
  }
  table.print(std::cout);
  std::cout << "\nShape check: 'layers/log2(n)' and 'rounds/log2(n)' are flat "
               "in n for every fixed a -- the O(log n) claim.\n";
  return 0;
}
