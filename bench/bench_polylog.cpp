// E6 -- Theorem 4.5 + Corollary 4.6: the headline result. Deterministic
// O(a^(1+eta))-coloring in O(log a log n) rounds -- far fewer than Linial's
// O(Delta^2) colors, answering Linial's question ("can the quadratic bound
// be improved when time rises to polylog?") in the affirmative.
//
// Paper prediction: colors grow ~a^(1+eta) << a^2 <= Delta^2 while
// rounds/(log a log n) stays flat; Linial's algorithm is faster (O(log* n))
// but pays ~Delta^2 colors -- the exact tradeoff the paper shifts.
#include <cmath>
#include <iostream>

#include "common/math.hpp"
#include "common/table.hpp"
#include "core/legal_coloring.hpp"
#include "defective/kuhn.hpp"
#include "graph/generators.hpp"

int main() {
  using namespace dvc;
  std::cout << "E6 (Thm 4.5 / Cor 4.6 vs Linial): polylog-time coloring far "
               "below Delta^2 colors\n\n";
  Table table({"n", "a", "Delta", "algorithm", "colors", "colors/a",
               "colors/Delta^2", "rounds"});
  for (const int a : {4, 8, 16}) {
    for (const V n : {1 << 13, 1 << 16}) {
      const Graph g = planted_arboricity(n, a, 3 + a);
      sim::Runtime rt(g);
      const int delta = g.max_degree();
      const double d2 = static_cast<double>(delta) * delta;
      {
        const LegalColoringResult res = legal_coloring_near_linear(rt, a, 0.5);
        table.row(n, a, delta, "BE10 Cor4.6 (eta=.5)", res.distinct,
                  static_cast<double>(res.distinct) / a, res.distinct / d2,
                  res.total.rounds);
      }
      {
        const LegalColoringResult res =
            legal_coloring_slow_fn(rt, a, std::max(16, 2 * ilog2_ceil(a)));
        table.row(n, a, delta, "BE10 Thm4.5 (f=log a)", res.distinct,
                  static_cast<double>(res.distinct) / a, res.distinct / d2,
                  res.total.rounds);
      }
      {
        const DefectiveResult res = linial_coloring(rt, delta);
        table.row(n, a, delta, "Linial87 O(Delta^2)",
                  distinct_colors(res.colors),
                  static_cast<double>(distinct_colors(res.colors)) / a,
                  distinct_colors(res.colors) / d2, res.stats.rounds);
      }
    }
  }
  table.print(std::cout);
  std::cout << "\nShape check: BE10's colors stay a small multiple of a "
               "(colors/Delta^2 -> 0 as Delta grows) in polylog rounds; "
               "Linial needs ~Delta^2 colors. The quadratic barrier falls "
               "once polylog time is allowed -- the paper's headline.\n";
  return 0;
}
