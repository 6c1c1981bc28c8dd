#include "graph/io.hpp"

#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>

#include "common/check.hpp"

namespace dvc {

namespace {

// Range-checks an 'n m' header before anything is narrowed to V or sized
// from it: n must fit V, and the 2m directed slots must fit the CSR cap.
void require_header(std::int64_t n, std::int64_t m, const char* format) {
  DVC_REQUIRE(n >= 0 && n <= std::numeric_limits<V>::max(),
              std::string(format) + " vertex count out of range");
  DVC_REQUIRE(m >= 0 && m <= detail::kMaxSlots / 2,
              std::string(format) + " edge count out of range");
}

}  // namespace

void write_edge_list(std::ostream& os, const Graph& g) {
  os << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (const auto& [u, v] : g.edges()) os << u << ' ' << v << '\n';
}

Graph read_edge_list(std::istream& is) {
  std::int64_t n = 0, m = 0;
  DVC_REQUIRE(static_cast<bool>(is >> n >> m), "edge list needs an 'n m' header");
  require_header(n, m, "edge list");
  // No reserve(m): the header is not trusted to size an allocation.
  EdgeList edges;
  for (std::int64_t i = 0; i < m; ++i) {
    std::int64_t u = 0, v = 0;
    DVC_REQUIRE(static_cast<bool>(is >> u >> v), "edge list truncated");
    DVC_REQUIRE(u >= 0 && v >= 0 && u < n && v < n,
                "edge list endpoint out of range");
    edges.emplace_back(static_cast<V>(u), static_cast<V>(v));
  }
  return Graph::from_edges(static_cast<V>(n), edges);
}

void write_dimacs(std::ostream& os, const Graph& g) {
  os << "c generated by dvc (Barenboim-Elkin PODC'10 reproduction)\n";
  os << "p edge " << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (const auto& [u, v] : g.edges()) {
    os << "e " << (u + 1) << ' ' << (v + 1) << '\n';
  }
}

Graph read_dimacs(std::istream& is) {
  std::string line;
  std::int64_t n = -1, m = -1;
  EdgeList edges;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "c") continue;
    if (tag == "p") {
      std::string kind;
      DVC_REQUIRE(static_cast<bool>(ls >> kind >> n >> m) && kind == "edge",
                  "malformed DIMACS 'p' line");
      require_header(n, m, "DIMACS");
    } else if (tag == "e") {
      DVC_REQUIRE(n >= 0, "DIMACS 'e' line before 'p' header");
      std::int64_t u = 0, v = 0;
      DVC_REQUIRE(static_cast<bool>(ls >> u >> v), "malformed DIMACS 'e' line");
      DVC_REQUIRE(u >= 1 && v >= 1 && u <= n && v <= n,
                  "DIMACS endpoint out of range");
      edges.emplace_back(static_cast<V>(u - 1), static_cast<V>(v - 1));
    }
  }
  DVC_REQUIRE(n >= 0, "DIMACS input has no 'p' header");
  return Graph::from_edges(static_cast<V>(n), edges);
}

void write_coloring(std::ostream& os, const Coloring& c) {
  for (std::size_t v = 0; v < c.size(); ++v) {
    os << "v " << (v + 1) << ' ' << c[v] << '\n';
  }
}

}  // namespace dvc
