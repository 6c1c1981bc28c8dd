// Immutable undirected simple graph in CSR form.
//
// Vertices are 0-based int32 indices; in the LOCAL model the unique identity
// of vertex v is id(v) = v + 1 (ids in {1..n}, as in the paper).
//
// Every undirected edge {u, v} owns two "directed slots": slot(u, port_u) and
// slot(v, port_v), one per endpoint. Slots index per-edge data (orientations,
// message routing); mirror_slot maps a slot to the opposite endpoint's slot.
//
// Memory layout (see DESIGN.md, "Memory layout & giant graphs"): 32-bit
// slot offsets and 32-bit mirror indices -- 8 bytes per slot plus 4 bytes
// per vertex. Construction rejects graphs with 2m >= 2^32 directed slots
// (precondition_error): by the per-slot budget such a graph needs well over
// 150 GB of steady state, more than any target machine holds. There is no
// slot-owner table: slot_owner() derives the owner by binary search over
// the offset array (O(log n), used only on cold paths -- the runtime's hot
// delivery paths walk adjacency rows, so they never pay an owner lookup).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace dvc {

using V = std::int32_t;
using EdgeList = std::vector<std::pair<V, V>>;

namespace detail {

// digest_mix -- the splitmix64-based combiner Graph::digest() is built on --
// lives in common/check.hpp so the serialization layer shares it.

/// Digest of the empty graph: the seed chain over n = 0, m = 0 with no
/// adjacency stream. Default-constructed Graphs carry this value so they
/// digest identically to from_edges(0, {}).
constexpr std::uint64_t empty_graph_digest() {
  return digest_mix(digest_mix(0x64766367ULL /* "dvcg" */, 0), 0);
}

/// Documented degree cap: a vertex can have at most kMaxDegree incident
/// edges. Any constructible simple graph satisfies it (neighbors are
/// distinct and n <= INT32_MAX), so the cap exists to turn a hypothetical
/// future overflow -- e.g. a multigraph extension -- into a structured
/// invariant_error instead of undefined int narrowing.
inline constexpr std::int64_t kMaxDegree =
    std::numeric_limits<int>::max() - 1;

/// Checked narrowing for the degree()/slot_port()/port_of() int paths.
inline int checked_port_cast(std::int64_t d) {
  DVC_CHECK(d >= 0 && d <= kMaxDegree,
            "per-vertex degree/port exceeds the documented int cap");
  return static_cast<int>(d);
}

/// Documented slot-count cap: a Graph holds at most 2^32 - 1 directed
/// slots, so offsets, mirrors and the runtime's slot indexes are 32-bit.
inline constexpr std::int64_t kMaxSlots =
    std::numeric_limits<std::uint32_t>::max();

/// Build-time check of the slot-count cap: a graph past it fails with a
/// structured precondition_error instead of silently wrapping 32-bit slots.
inline void require_slot_count(std::int64_t slots) {
  DVC_REQUIRE(slots <= kMaxSlots,
              "graph has " + std::to_string(slots) +
                  " directed slots (2m); the CSR layout holds at most "
                  "2^32 - 1");
}

}  // namespace detail

class Graph {
 public:
  Graph() = default;

  /// Builds from an edge list: self loops are dropped, parallel edges are
  /// deduplicated, adjacency lists are sorted ascending. Throws
  /// precondition_error past the slot-count cap (detail::kMaxSlots).
  static Graph from_edges(V n, const EdgeList& edges);

  V num_vertices() const { return n_; }
  std::int64_t num_edges() const { return m_; }
  std::int64_t num_slots() const { return 2 * m_; }

  int degree(V v) const {
    const auto i = static_cast<std::size_t>(v);
    return detail::checked_port_cast(
        static_cast<std::int64_t>(off_[i + 1]) - off_[i]);
  }
  std::span<const V> neighbors(V v) const {
    const auto i = static_cast<std::size_t>(v);
    return {adj_.data() + off_[i],
            static_cast<std::size_t>(off_[i + 1] - off_[i])};
  }
  V neighbor(V v, int port) const {
    return adj_[static_cast<std::size_t>(slot(v, port))];
  }
  int max_degree() const { return max_deg_; }

  /// Directed slot id of (v, port).
  std::int64_t slot(V v, int port) const {
    return static_cast<std::int64_t>(off_[static_cast<std::size_t>(v)]) + port;
  }
  /// Slot of the reverse direction of the same undirected edge.
  std::int64_t mirror_slot(std::int64_t s) const {
    return mirror_[static_cast<std::size_t>(s)];
  }
  /// Owning vertex of slot s, derived from the offset array by binary
  /// search (O(log n)). There is no per-slot owner table -- no hot path
  /// looks owners up (the runtime's delivery paths walk adjacency rows
  /// instead), and omitting it saves 4 bytes per slot.
  V slot_owner(std::int64_t s) const;
  int slot_port(std::int64_t s) const {
    const V v = slot_owner(s);
    return detail::checked_port_cast(s - slot(v, 0));
  }

  /// Port of u in v's adjacency list, or -1 if {v,u} is not an edge.
  int port_of(V v, V u) const;

  bool has_edge(V v, V u) const { return port_of(v, u) >= 0; }

  /// Average degree 2m/n (0 for empty graph).
  double average_degree() const {
    return n_ == 0 ? 0.0 : 2.0 * static_cast<double>(m_) / n_;
  }

  /// All undirected edges as (u, v) with u < v.
  EdgeList edges() const;

  /// Stable 64-bit content hash over (n, m, per-vertex degree + adjacency),
  /// computed once at construction. Two Graphs built from the same vertex
  /// count and edge set (in any input order -- from_edges canonicalizes)
  /// share a digest; relabeling vertices changes it. Used by the service
  /// layer's graph store to intern topologies, and stable across processes
  /// and platforms (no pointers, no ASLR, fixed-width arithmetic).
  std::uint64_t digest() const { return digest_; }

  /// Per-array heap footprint of the CSR representation, for the memory
  /// budget the scale benches report (bytes, capacity not size, so the
  /// number matches what the allocator actually holds).
  struct MemoryBreakdown {
    std::uint64_t offsets_bytes = 0;    ///< off_ (n+1 entries)
    std::uint64_t adjacency_bytes = 0;  ///< adj_ (2m entries)
    std::uint64_t mirror_bytes = 0;     ///< mirror_ (2m entries)
    std::uint64_t total() const {
      return offsets_bytes + adjacency_bytes + mirror_bytes;
    }
  };
  MemoryBreakdown memory_breakdown() const;
  std::uint64_t memory_bytes() const { return memory_breakdown().total(); }

 private:
  friend class CsrBuilder;

  V n_ = 0;
  std::int64_t m_ = 0;
  int max_deg_ = 0;
  std::uint64_t digest_ = detail::empty_graph_digest();
  std::vector<std::uint32_t> off_;     // size n+1
  std::vector<V> adj_;                 // size 2m, sorted per vertex
  std::vector<std::uint32_t> mirror_;  // size 2m
};

/// Two-pass streaming CSR construction: feed the edge stream once to count
/// degrees, once to fill adjacency, and never materialize an EdgeList. The
/// canonical protocol (generators.hpp wraps it for every deterministic
/// generator):
///
///   CsrBuilder b(n);
///   for (...) b.add(u, v);   // pass 1: degree counting
///   b.next_pass();
///   for (...) b.add(u, v);   // pass 2: identical stream, adjacency fill
///   Graph g = b.finish();    // canonicalize + mirrors + digest
///
/// Both passes must emit the SAME edge multiset (deterministic generators
/// re-seed their PRNG per pass); finish() checks the counts agree. Self
/// loops are dropped on add; duplicates are removed by finish(), so the
/// result is bit-identical to Graph::from_edges on the same stream --
/// including the digest -- at a fraction of the peak memory (no 8-byte
/// edge pairs, no sort of the full edge list).
class CsrBuilder {
 public:
  explicit CsrBuilder(V n);

  /// Streams one undirected edge {u, v}. Self loops are dropped here;
  /// endpoints are range-checked.
  void add(V u, V v) {
    DVC_REQUIRE(u >= 0 && u < n_ && v >= 0 && v < n_,
                "edge endpoint out of range");
    if (u == v) return;
    if (counting_) {
      ++cur_[static_cast<std::size_t>(u)];
      ++cur_[static_cast<std::size_t>(v)];
      return;
    }
    adj_[static_cast<std::size_t>(cur_[static_cast<std::size_t>(u)]++)] = v;
    adj_[static_cast<std::size_t>(cur_[static_cast<std::size_t>(v)]++)] = u;
  }

  /// Ends the counting pass: prefix-sums the degree counts and allocates
  /// the adjacency array for the fill pass.
  void next_pass();

  /// Canonicalizes (per-vertex sort + dedupe), builds mirrors, computes the
  /// digest, and returns the finished Graph. The builder is left empty.
  /// Throws precondition_error when the deduplicated slot count exceeds
  /// detail::kMaxSlots.
  Graph finish();

 private:
  V n_ = 0;
  bool counting_ = true;
  bool finished_ = false;
  /// Counting pass: per-vertex slot counts (index v). Fill pass: the write
  /// cursor of vertex v. 64-bit so a pathological duplicate-heavy stream
  /// cannot overflow before finish() dedupes.
  std::vector<std::int64_t> cur_;
  std::vector<std::int64_t> off_;  // raw (pre-dedupe) offsets, size n+1
  std::vector<V> adj_;             // raw adjacency, duplicates included
};

}  // namespace dvc
