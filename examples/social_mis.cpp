// Committee selection on a social network: find a maximal independent set
// (no two committee members are friends, everybody knows a member) on a
// power-law graph, comparing the paper's deterministic MIS (Section 1.2)
// with Luby's randomized algorithm.
//
// Power-law / preferential-attachment graphs have bounded arboricity (<= the
// attachment parameter) despite huge hub degrees -- exactly the regime where
// the paper's arboricity-parameterized bounds shine.
//
//   ./example_social_mis [--n=20000] [--k=5] [--seed=3]
#include <iostream>

#include "baselines/luby.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/api.hpp"
#include "graph/arboricity.hpp"
#include "graph/generators.hpp"

int main(int argc, char** argv) {
  using namespace dvc;
  const Cli cli(argc, argv);
  const V n = static_cast<V>(cli.get_int("n", 20000));
  const int k = static_cast<int>(cli.get_int("k", 5));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 3));

  const Graph social = barabasi_albert(n, k, seed);
  const auto [lo, hi] = arboricity_bounds(social);
  std::cout << "Social network: n=" << social.num_vertices()
            << " edges=" << social.num_edges()
            << " max-degree=" << social.max_degree() << " arboricity in ["
            << lo << ", " << hi << "]\n\n";

  const MisResult det = mis_graph(social, k);
  sim::Runtime rt(social);
  const MisResult rnd = luby_mis(rt, seed);

  auto size_of = [](const std::vector<std::uint8_t>& s) {
    std::int64_t size = 0;
    for (const auto b : s) size += b;
    return size;
  };

  Table table({"algorithm", "committee size", "rounds", "messages", "maximal"});
  table.row(det.algorithm, size_of(det.in_mis), det.total.rounds,
            det.total.messages,
            is_maximal_independent_set(social, det.in_mis) ? "yes" : "NO");
  table.row(rnd.algorithm, size_of(rnd.in_mis), rnd.total.rounds,
            rnd.total.messages,
            is_maximal_independent_set(social, rnd.in_mis) ? "yes" : "NO");
  table.print(std::cout);

  std::cout << "\nLuby is randomized (different seeds give different "
               "committees);\nthe Barenboim-Elkin pipeline is deterministic: "
               "rerunning reproduces the identical committee.\n";
  return 0;
}
