// E4 -- Theorem 3.2 + Corollary 3.6: Procedure Arbdefective-Coloring
// produces a floor(a/t)+floor(floor((2+eps)a)/k)-arbdefective k-coloring in
// O(t^2 log n) rounds.
//
// Paper prediction: certified class arboricity <= the bound for every
// (t, k); rounds scale ~t^2 log n.
#include <cmath>
#include <iostream>

#include "common/table.hpp"
#include "core/arbdefective.hpp"
#include "graph/generators.hpp"

int main() {
  using namespace dvc;
  std::cout << "E4 (Thm 3.2 / Cor 3.6): arbdefective coloring quality\n\n";
  const int a = 16;
  Table table({"n", "t", "k", "classes", "arbdefect(cert)", "bound", "rounds",
               "rounds/log2(n)"});
  for (const V n : {1 << 12, 1 << 14, 1 << 16}) {
    const Graph g = planted_arboricity(n, a, 5);
    sim::Runtime rt(g);
    const double logn = std::log2(static_cast<double>(n));
    for (const int t : {2, 4, 8}) {
      const int k = t;
      const ArbdefectiveColoringResult res = arbdefective_coloring(rt, a, t, k);
      const Orientation witness =
          make_arbdefect_witness(g, res.colors, res.orientation.sigma);
      table.row(n, t, k, distinct_colors(res.colors),
                certified_arbdefect(g, res.colors, witness), res.arbdefect_bound,
                res.total.rounds, res.total.rounds / logn);
    }
  }
  table.print(std::cout);
  std::cout << "\nShape check: certified arbdefect <= bound everywhere; for "
               "fixed t, rounds/log2(n) is flat (the O(t^2 log n) claim).\n";
  return 0;
}
