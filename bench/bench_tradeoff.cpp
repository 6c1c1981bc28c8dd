// E8 -- Theorem 5.3: the colors-vs-time tradeoff curve. O(a*t) colors in
// O((a/t)^mu log n) rounds, sweeping t from 1 to a.
//
// Paper prediction: colors rise ~a*t, rounds fall as t grows (the per-class
// arboricity a/t shrinks). The previous tradeoff (BE08) needed
// O((a/t) log n) time for the same O(a*t) colors -- strictly slower for
// every t < a; we print its predicted round count for reference.
#include <cmath>
#include <iostream>

#include "common/table.hpp"
#include "core/arb_kuhn.hpp"
#include "graph/generators.hpp"

int main() {
  using namespace dvc;
  std::cout << "E8 (Thm 5.3): colors vs time tradeoff\n\n";
  const int a = 32;
  const V n = 1 << 14;
  const Graph g = planted_arboricity(n, a, 23);
  sim::Runtime rt(g);
  const double logn = std::log2(static_cast<double>(n));
  Table table({"t", "colors", "colors/(a*t)", "rounds", "rounds/log2(n)",
               "BE08-predicted ~ (a/t)log n"});
  for (const int t : {1, 2, 4, 8, 16, 32}) {
    const LegalColoringResult res = tradeoff_coloring(rt, a, t, 0.5);
    table.row(t, res.distinct,
              static_cast<double>(res.distinct) / (static_cast<double>(a) * t),
              res.total.rounds, res.total.rounds / logn,
              static_cast<int>(static_cast<double>(a) / t * logn));
  }
  table.print(std::cout);
  std::cout << "\nShape check: colors/(a*t) stays bounded (the O(a*t) "
               "palette); measured rounds fall as t grows and undercut the "
               "BE08-style (a/t)log n prediction for small t -- the improved "
               "tradeoff of Theorem 5.3.\n";
  return 0;
}
