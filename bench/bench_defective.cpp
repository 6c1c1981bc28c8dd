// E2 -- Lemma 2.1 [Kuhn'09]: floor(Delta/p)-defective O(p^2)-coloring in
// O(log* n) rounds.
//
// Paper prediction: measured defect <= floor(Delta/p); palette grows ~p^2
// (flat palette/p^2 column); rounds track log*(n) and are independent of
// Delta and p.
#include <iostream>

#include "common/math.hpp"
#include "common/table.hpp"
#include "defective/kuhn.hpp"
#include "graph/generators.hpp"

int main() {
  using namespace dvc;
  std::cout << "E2 (Lemma 2.1): defective coloring defect/palette/rounds\n\n";
  Table table({"n", "Delta", "p", "defect", "bound", "palette", "palette/p^2",
               "rounds", "log*(n)"});
  for (const V n : {1 << 12, 1 << 16}) {
    for (const int d : {16, 64}) {
      const Graph g = random_near_regular(n, d, 7);
      sim::Runtime rt(g);
      const int delta = g.max_degree();
      for (const int p : {2, 4, 8}) {
        const DefectiveResult res = kuhn_defective_p(rt, p);
        table.row(n, delta, p, coloring_defect(g, res.colors), delta / p,
                  res.palette,
                  static_cast<double>(res.palette) / (p * p), res.stats.rounds,
                  log_star(static_cast<std::uint64_t>(n)));
      }
    }
  }
  table.print(std::cout);
  std::cout << "\nShape check: defect never exceeds the bound; palette/p^2 is "
               "bounded by a constant (the polynomial-family constant); "
               "rounds stay ~log* n across all rows.\n";
  return 0;
}
