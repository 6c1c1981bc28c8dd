#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace dvc {
namespace {

TEST(GraphIo, EdgeListRoundTrip) {
  Graph g = planted_arboricity(200, 3, 1);
  std::stringstream ss;
  write_edge_list(ss, g);
  Graph h = read_edge_list(ss);
  EXPECT_EQ(h.num_vertices(), g.num_vertices());
  EXPECT_EQ(h.edges(), g.edges());
}

TEST(GraphIo, DimacsRoundTrip) {
  Graph g = random_gnm(100, 300, 2);
  std::stringstream ss;
  write_dimacs(ss, g);
  Graph h = read_dimacs(ss);
  EXPECT_EQ(h.num_vertices(), g.num_vertices());
  EXPECT_EQ(h.edges(), g.edges());
}

TEST(GraphIo, DimacsSkipsCommentsAndBlankLines) {
  std::stringstream ss(
      "c a comment\n"
      "\n"
      "p edge 3 2\n"
      "c another comment\n"
      "e 1 2\n"
      "e 2 3\n");
  Graph g = read_dimacs(ss);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
}

TEST(GraphIo, DimacsRejectsMalformedInput) {
  {
    std::stringstream ss("e 1 2\n");  // edge before header
    EXPECT_THROW(read_dimacs(ss), precondition_error);
  }
  {
    std::stringstream ss("p edge 2 1\ne 1 5\n");  // endpoint out of range
    EXPECT_THROW(read_dimacs(ss), precondition_error);
  }
  {
    std::stringstream ss("c only comments\n");
    EXPECT_THROW(read_dimacs(ss), precondition_error);
  }
  {
    std::stringstream ss("p edge 4294967299 1\n");  // n past V: not 3 mod 2^32
    EXPECT_THROW(read_dimacs(ss), precondition_error);
  }
  {
    std::stringstream ss("p edge 3 -5\n");  // negative edge count
    EXPECT_THROW(read_dimacs(ss), precondition_error);
  }
  {
    std::stringstream ss("p edge 3 1000000000000\n");  // m past the slot cap
    EXPECT_THROW(read_dimacs(ss), precondition_error);
  }
}

TEST(GraphIo, EdgeListRejectsTruncation) {
  std::stringstream ss("3 2\n0 1\n");
  EXPECT_THROW(read_edge_list(ss), precondition_error);
}

TEST(GraphIo, EmptyGraphRoundTrips) {
  Graph g = Graph::from_edges(5, {});
  std::stringstream ss;
  write_edge_list(ss, g);
  Graph h = read_edge_list(ss);
  EXPECT_EQ(h.num_vertices(), 5);
  EXPECT_EQ(h.num_edges(), 0);
}

TEST(GraphIo, ColoringOutputFormat) {
  std::stringstream ss;
  write_coloring(ss, Coloring{2, 0, 1});
  EXPECT_EQ(ss.str(), "v 1 2\nv 2 0\nv 3 1\n");
}

// --- Round trips across generator families ---------------------------------

TEST(GraphIo, EdgeListRoundTripsEveryFamily) {
  const std::vector<Graph> graphs = {
      random_gnp(60, 0.1, 3),        random_near_regular(80, 5, 4),
      planted_arboricity(80, 3, 5),  barabasi_albert(80, 3, 6),
      random_geometric(90, 0.15, 7), star_graph(12),
  };
  for (const Graph& g : graphs) {
    std::stringstream ss;
    write_edge_list(ss, g);
    const Graph h = read_edge_list(ss);
    EXPECT_EQ(h.num_vertices(), g.num_vertices());
    EXPECT_EQ(h.edges(), g.edges());
  }
}

TEST(GraphIo, DimacsSecondRoundTripIsByteIdentical) {
  // write -> read -> write must reproduce the exact same bytes: the format
  // is canonical for a normalized graph.
  const Graph g = planted_arboricity(120, 4, 9);
  std::stringstream first;
  write_dimacs(first, g);
  const std::string once = first.str();
  std::stringstream in(once);
  std::stringstream second;
  write_dimacs(second, read_dimacs(in));
  EXPECT_EQ(second.str(), once);
}

TEST(GraphIo, EdgeListSecondRoundTripIsByteIdentical) {
  const Graph g = random_gnm(90, 200, 11);
  std::stringstream first;
  write_edge_list(first, g);
  const std::string once = first.str();
  std::stringstream in(once);
  std::stringstream second;
  write_edge_list(second, read_edge_list(in));
  EXPECT_EQ(second.str(), once);
}

TEST(GraphIo, DimacsZeroEdgeGraphRoundTrips) {
  std::stringstream ss;
  write_dimacs(ss, Graph::from_edges(4, {}));
  const Graph g = read_dimacs(ss);
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 0);
}

// --- Malformed-input rejection ---------------------------------------------

TEST(GraphIo, EdgeListRejectsMalformedInput) {
  {
    std::stringstream ss("");  // no header at all
    EXPECT_THROW(read_edge_list(ss), precondition_error);
  }
  {
    std::stringstream ss("x y\n");  // non-numeric header
    EXPECT_THROW(read_edge_list(ss), precondition_error);
  }
  {
    std::stringstream ss("-3 1\n0 1\n");  // negative vertex count
    EXPECT_THROW(read_edge_list(ss), precondition_error);
  }
  {
    std::stringstream ss("3 -1\n");  // negative edge count
    EXPECT_THROW(read_edge_list(ss), precondition_error);
  }
  {
    std::stringstream ss("3 1\n0 7\n");  // endpoint out of range
    EXPECT_THROW(read_edge_list(ss), precondition_error);
  }
  {
    std::stringstream ss("3 2\n0 1\n1 x\n");  // non-numeric endpoint
    EXPECT_THROW(read_edge_list(ss), precondition_error);
  }
  {
    std::stringstream ss("3 1\n0 4294967297\n");  // endpoint past V: not 1
    EXPECT_THROW(read_edge_list(ss), precondition_error);
  }
  {
    std::stringstream ss("4294967299 0\n");  // n past V
    EXPECT_THROW(read_edge_list(ss), precondition_error);
  }
  {
    std::stringstream ss("3 1000000000000\n");  // m past the slot cap
    EXPECT_THROW(read_edge_list(ss), precondition_error);
  }
  {
    std::stringstream ss("3 2000000000\n0 1\n");  // in-cap but lying m
    EXPECT_THROW(read_edge_list(ss), precondition_error);
  }
}

TEST(GraphIo, DimacsRejectsMoreMalformedInput) {
  {
    std::stringstream ss("p graph 3 2\ne 1 2\n");  // wrong problem kind
    EXPECT_THROW(read_dimacs(ss), precondition_error);
  }
  {
    std::stringstream ss("p edge\n");  // truncated header
    EXPECT_THROW(read_dimacs(ss), precondition_error);
  }
  {
    std::stringstream ss("p edge 3 2\ne 1\n");  // truncated edge line
    EXPECT_THROW(read_dimacs(ss), precondition_error);
  }
  {
    std::stringstream ss("p edge 3 1\ne 0 2\n");  // 1-based ids: 0 invalid
    EXPECT_THROW(read_dimacs(ss), precondition_error);
  }
}

}  // namespace
}  // namespace dvc
