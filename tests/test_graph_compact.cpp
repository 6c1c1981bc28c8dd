// The 32-bit CSR layout (DESIGN.md, "Memory layout & giant graphs"):
//   1. A generator-built graph and its rebuild from the edge list agree on
//      every observable accessor -- degree, neighbors, slots, mirrors,
//      owners, ports, edges, digest -- on mixed graph families.
//   2. The per-array memory accounting matches the layout (4 bytes per
//      vertex offset, 8 bytes per slot), with no owner table.
//   3. The streaming CsrBuilder reproduces Graph::from_edges bit-for-bit,
//      including the digest, and the narrowing paths fail as structured
//      errors instead of silent truncation: the degree/port int cap and
//      the 2^32 slot-count cap.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "sim/runtime.hpp"

namespace dvc {
namespace {

/// Rebuilds `g` from its edge list.
Graph rebuild(const Graph& g) {
  return Graph::from_edges(g.num_vertices(), g.edges());
}

struct Workload {
  const char* family;
  Graph graph;
};

std::vector<Workload> mixed_workloads() {
  std::vector<Workload> out;
  out.push_back({"planted_arboricity", planted_arboricity(512, 4, 7)});
  out.push_back({"barabasi_albert", barabasi_albert(512, 5, 3)});
  out.push_back({"near_regular", random_near_regular(256, 6, 11)});
  return out;
}

// --- 1. Accessor equivalence -----------------------------------------------

void expect_accessors_agree(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  ASSERT_EQ(a.num_slots(), b.num_slots());
  EXPECT_EQ(a.max_degree(), b.max_degree());
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.edges(), b.edges());
  for (V v = 0; v < a.num_vertices(); ++v) {
    ASSERT_EQ(a.degree(v), b.degree(v)) << "degree of " << v;
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_EQ(na.size(), nb.size());
    for (int p = 0; p < a.degree(v); ++p) {
      EXPECT_EQ(na[static_cast<std::size_t>(p)], nb[static_cast<std::size_t>(p)]);
      const std::int64_t s = a.slot(v, p);
      ASSERT_EQ(s, b.slot(v, p)) << "slot(" << v << "," << p << ")";
      EXPECT_EQ(a.mirror_slot(s), b.mirror_slot(s));
      EXPECT_EQ(a.slot_owner(s), v);
      EXPECT_EQ(b.slot_owner(s), v);
      EXPECT_EQ(a.slot_port(s), p);
      EXPECT_EQ(b.slot_port(s), p);
      // Mirror involution + endpoint consistency.
      EXPECT_EQ(a.mirror_slot(a.mirror_slot(s)), s);
      EXPECT_EQ(a.slot_owner(a.mirror_slot(s)), a.neighbor(v, p));
    }
  }
}

TEST(GraphCompact, RebuildFromEdgesAgreesOnEveryAccessor) {
  for (const Workload& w : mixed_workloads()) {
    SCOPED_TRACE(w.family);
    expect_accessors_agree(w.graph, rebuild(w.graph));
  }
}

TEST(GraphCompact, SlotOwnerHandlesIsolatedVerticesAndBoundaries) {
  // Empty adjacency rows exercise the upper_bound owner derivation: slots
  // must skip degree-0 vertices.
  const EdgeList edges = {{0, 1}, {5, 6}, {5, 9}};
  const Graph g = Graph::from_edges(10, edges);
  ASSERT_EQ(g.num_slots(), 6);
  for (V v = 0; v < g.num_vertices(); ++v) {
    for (int p = 0; p < g.degree(v); ++p) {
      EXPECT_EQ(g.slot_owner(g.slot(v, p)), v);
      EXPECT_EQ(g.slot_port(g.slot(v, p)), p);
    }
  }
  // First and last slots belong to the first/last non-isolated vertices.
  EXPECT_EQ(g.slot_owner(0), 0);
  EXPECT_EQ(g.slot_owner(g.num_slots() - 1), 9);
}

TEST(GraphCompact, EmptyAndEdgelessGraphsDigestConsistently) {
  const Graph def;
  EXPECT_EQ(def.digest(), Graph::from_edges(0, {}).digest());
  const Graph iso = Graph::from_edges(5, {});
  EXPECT_EQ(iso.num_slots(), 0);
  EXPECT_EQ(iso.degree(4), 0);
  EXPECT_NE(iso.digest(), def.digest());  // n participates in the digest
}

// --- 2. Memory accounting --------------------------------------------------

TEST(GraphCompact, MemoryBreakdownMatchesTheLayout) {
  for (const Workload& w : mixed_workloads()) {
    SCOPED_TRACE(w.family);
    const Graph& g = w.graph;
    const auto mb = g.memory_breakdown();
    EXPECT_EQ(g.memory_bytes(), mb.total());
    EXPECT_EQ(mb.total(),
              mb.offsets_bytes + mb.adjacency_bytes + mb.mirror_bytes);
    // 4B offset/vertex + 4B adj + 4B mirror per slot; capacity slack from
    // vector growth stays within 2x of the exact size.
    const auto slots = static_cast<std::uint64_t>(g.num_slots());
    const std::uint64_t exact =
        4 * (static_cast<std::uint64_t>(g.num_vertices()) + 1) + 8 * slots;
    EXPECT_GE(g.memory_bytes(), exact);
    EXPECT_LE(g.memory_bytes(), 2 * exact);
  }
}

TEST(GraphCompact, RuntimeMemoryBytesIsPositiveAndSized) {
  const Graph g = planted_arboricity(512, 4, 7);
  sim::Runtime rt(g, 2);
  const std::uint64_t bytes = rt.memory_bytes();
  // Two arenas at 12 bytes per slot is the floor of the accounting.
  EXPECT_GE(bytes, 24u * static_cast<std::uint64_t>(g.num_slots()));
  EXPECT_LT(bytes, 1u << 30);
}

// --- 3. Streaming builder equivalence + checked narrowing ------------------

TEST(GraphCompact, CsrBuilderMatchesFromEdgesBitForBit) {
  // A stream with self loops, duplicates and unordered endpoints: finish()
  // must canonicalize to exactly what from_edges produces, digest included.
  const EdgeList stream = {{3, 1}, {1, 3}, {2, 2}, {0, 4}, {4, 0},
                          {1, 0}, {4, 3}, {3, 4}, {2, 0}};
  CsrBuilder b(5);
  for (const auto& [u, v] : stream) b.add(u, v);
  b.next_pass();
  for (const auto& [u, v] : stream) b.add(u, v);
  const Graph streamed = b.finish();
  const Graph reference = Graph::from_edges(5, stream);
  EXPECT_EQ(streamed.digest(), reference.digest());
  EXPECT_EQ(streamed.edges(), reference.edges());
  expect_accessors_agree(streamed, reference);
}

TEST(GraphCompact, CsrBuilderRejectsBadInput) {
  CsrBuilder b(4);
  EXPECT_THROW(b.add(0, 4), precondition_error);
  EXPECT_THROW(b.add(-1, 2), precondition_error);
  b.add(0, 1);
  b.next_pass();
  b.add(0, 1);
  const Graph g = b.finish();
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_THROW(b.finish(), precondition_error);  // the builder is spent
}

TEST(GraphCompact, CheckedPortCastGuardsTheIntCap) {
  EXPECT_EQ(detail::checked_port_cast(0), 0);
  EXPECT_EQ(detail::checked_port_cast(detail::kMaxDegree),
            static_cast<int>(detail::kMaxDegree));
  // Past the documented cap (or negative): a structured invariant_error,
  // never a silent narrowing.
  EXPECT_THROW(detail::checked_port_cast(detail::kMaxDegree + 1),
               invariant_error);
  EXPECT_THROW(detail::checked_port_cast(std::int64_t{1} << 40),
               invariant_error);
  EXPECT_THROW(detail::checked_port_cast(-1), invariant_error);
}

TEST(GraphCompact, SlotCountCapRejectsTwoToThe32) {
  // The check CsrBuilder::finish applies to the deduplicated slot count:
  // the largest 32-bit slot space is accepted, one more slot is a
  // structured precondition_error (no graph that size is ever built here).
  EXPECT_EQ(detail::kMaxSlots, (std::int64_t{1} << 32) - 1);
  EXPECT_NO_THROW(detail::require_slot_count(0));
  EXPECT_NO_THROW(detail::require_slot_count((std::int64_t{1} << 32) - 1));
  EXPECT_THROW(detail::require_slot_count(std::int64_t{1} << 32),
               precondition_error);
  try {
    detail::require_slot_count(std::int64_t{1} << 33);
    FAIL() << "expected precondition_error";
  } catch (const precondition_error& e) {
    EXPECT_NE(std::string(e.what()).find("8589934592"), std::string::npos)
        << "the error names the rejected slot count";
  }
}

}  // namespace
}  // namespace dvc
