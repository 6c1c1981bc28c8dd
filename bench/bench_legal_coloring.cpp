// E5 -- Theorem 4.3 / Corollary 4.4: O(a)-coloring in O(a^mu log n) rounds,
// against the previous best (BE08 / Lemma 2.2(1): floor((2+eps)a)+1 colors
// in O(a log n) rounds -- our `complete_orientation` + greedy pipeline).
//
// Paper prediction: both use O(a) colors, but the new algorithm's rounds
// grow like a^mu * log n while BE08's grow like a * log n -- the gap widens
// with a ("exponential improvement for large Delta" in the paper's framing
// of the polylog regime; here the a^(1-mu) factor).
#include <cmath>
#include <iostream>

#include "common/table.hpp"
#include "core/legal_coloring.hpp"
#include "decomp/orientations.hpp"
#include "defective/reduce.hpp"
#include "graph/generators.hpp"

namespace {

// BE08 baseline = Lemma 2.2(1): Complete-Orientation + greedy along it.
dvc::LegalColoringResult be08_coloring(dvc::sim::Runtime& rt, int a) {
  using namespace dvc;
  LegalColoringResult out;
  const CompleteOrientationResult ori = complete_orientation(rt, a);
  const std::int64_t palette = ori.hp.threshold + 1;
  const ReduceResult greedy = greedy_by_orientation(rt, ori.sigma, palette);
  out.colors = greedy.colors;
  out.distinct = distinct_colors(out.colors);
  out.total += ori.total;
  out.total += greedy.stats;
  return out;
}

}  // namespace

int main() {
  using namespace dvc;
  std::cout << "E5 (Thm 4.3 vs BE08): O(a) colors -- rounds comparison\n\n";
  Table table({"n", "a", "algorithm", "colors", "colors/a", "rounds",
               "rounds/log2(n)"});
  for (const int a : {4, 8, 16, 32}) {
    for (const V n : {1 << 12, 1 << 14, 1 << 16}) {
      const Graph g = planted_arboricity(n, a, 10 + a);
      sim::Runtime rt(g);
      const double logn = std::log2(static_cast<double>(n));
      {
        const LegalColoringResult res = legal_coloring_linear(rt, a, 0.5);
        table.row(n, a, "BE10 mu=0.5 (Thm 4.3)", res.distinct,
                  static_cast<double>(res.distinct) / a, res.total.rounds,
                  res.total.rounds / logn);
      }
      {
        const LegalColoringResult res = be08_coloring(rt, a);
        table.row(n, a, "BE08 (Lemma 2.2(1))", res.distinct,
                  static_cast<double>(res.distinct) / a, res.total.rounds,
                  res.total.rounds / logn);
      }
    }
  }
  table.print(std::cout);
  std::cout << "\nShape check: both stay O(a) in colors; BE10's "
               "rounds/log2(n) grows ~a^0.5 while BE08's grows ~a (greedy "
               "along an O(a log n)-long orientation) -- BE10 wins, and the "
               "factor widens as a grows.\n";
  return 0;
}
