#include "graph/graph.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace dvc {

Graph Graph::from_edges(V n, const EdgeList& edges) {
  // Edge-list construction is now a thin client of the streaming builder:
  // two passes over the caller's list, no normalized copy, no global sort.
  CsrBuilder b(n);
  for (const auto& [u, v] : edges) b.add(u, v);
  b.next_pass();
  for (const auto& [u, v] : edges) b.add(u, v);
  return b.finish();
}

V Graph::slot_owner(std::int64_t s) const {
  DVC_REQUIRE(s >= 0 && s < num_slots(), "slot id out of range");
  // The offset array is non-decreasing with off[0] = 0 and off[n] = 2m, so
  // the owner of s is the last v with off[v] <= s. Zero-degree vertices
  // collapse to repeated offsets and own no slots, which upper_bound skips
  // naturally.
  const auto it = std::upper_bound(off_.begin(), off_.end(),
                                   static_cast<std::uint32_t>(s));
  return static_cast<V>((it - off_.begin()) - 1);
}

int Graph::port_of(V v, V u) const {
  const auto nb = neighbors(v);
  // Adjacency lists are sorted, so binary search bounds the lookup at
  // O(log deg). For the short lists that dominate bounded-arboricity
  // graphs a branch-predictable linear scan beats the search, so it
  // handles the small-degree case (the sortedness lets it stop early).
  if (nb.size() <= 16) {
    for (std::size_t i = 0; i < nb.size() && nb[i] <= u; ++i) {
      if (nb[i] == u) return static_cast<int>(i);
    }
    return -1;
  }
  const auto it = std::lower_bound(nb.begin(), nb.end(), u);
  if (it == nb.end() || *it != u) return -1;
  return detail::checked_port_cast(it - nb.begin());
}

EdgeList Graph::edges() const {
  EdgeList out;
  out.reserve(static_cast<std::size_t>(m_));
  for (V v = 0; v < n_; ++v) {
    for (V u : neighbors(v)) {
      if (v < u) out.emplace_back(v, u);
    }
  }
  return out;
}

Graph::MemoryBreakdown Graph::memory_breakdown() const {
  MemoryBreakdown mb;
  mb.offsets_bytes = off_.capacity() * sizeof(std::uint32_t);
  mb.adjacency_bytes = adj_.capacity() * sizeof(V);
  mb.mirror_bytes = mirror_.capacity() * sizeof(std::uint32_t);
  return mb;
}

// ---------------------------------------------------------------------------
// CsrBuilder

CsrBuilder::CsrBuilder(V n) : n_(n) {
  DVC_REQUIRE(n >= 0, "vertex count must be non-negative");
  cur_.assign(static_cast<std::size_t>(n), 0);
}

void CsrBuilder::next_pass() {
  DVC_REQUIRE(counting_, "next_pass called after the counting pass ended");
  counting_ = false;
  off_.assign(static_cast<std::size_t>(n_) + 1, 0);
  for (V v = 0; v < n_; ++v) {
    off_[static_cast<std::size_t>(v) + 1] =
        off_[static_cast<std::size_t>(v)] + cur_[static_cast<std::size_t>(v)];
  }
  adj_.resize(static_cast<std::size_t>(off_[static_cast<std::size_t>(n_)]));
  for (V v = 0; v < n_; ++v) {
    cur_[static_cast<std::size_t>(v)] = off_[static_cast<std::size_t>(v)];
  }
}

Graph CsrBuilder::finish() {
  DVC_REQUIRE(!counting_, "finish called before the fill pass (next_pass)");
  DVC_REQUIRE(!finished_, "finish called twice");
  finished_ = true;
  for (V v = 0; v < n_; ++v) {
    DVC_ENSURE(cur_[static_cast<std::size_t>(v)] ==
                   off_[static_cast<std::size_t>(v) + 1],
               "fill pass emitted a different edge stream than the count pass");
  }

  Graph g;
  g.n_ = n_;

  // Canonicalize in place: sort each row, drop duplicates, compact the
  // adjacency array left. Rows are processed in order and dedupe only
  // shrinks, so the write head never overtakes the read head.
  std::int64_t w = 0;
  int max_deg = 0;
  // Reuse cur_ as the final (post-dedupe) offset of each vertex.
  for (V v = 0; v < n_; ++v) {
    const std::int64_t lo = off_[static_cast<std::size_t>(v)];
    const std::int64_t hi = off_[static_cast<std::size_t>(v) + 1];
    V* first = adj_.data() + lo;
    V* last = adj_.data() + hi;
    std::sort(first, last);
    V* end = std::unique(first, last);
    const std::int64_t deg = end - first;
    cur_[static_cast<std::size_t>(v)] = w;
    if (w != lo) std::copy(first, end, adj_.data() + w);
    w += deg;
    max_deg = std::max(max_deg, detail::checked_port_cast(deg));
  }
  DVC_ENSURE(w % 2 == 0, "slot count must be even (one mirror per slot)");
  detail::require_slot_count(w);
  g.m_ = w / 2;
  g.max_deg_ = max_deg;
  adj_.resize(static_cast<std::size_t>(w));
  adj_.shrink_to_fit();  // release the duplicate slack before mirrors

  g.off_.resize(static_cast<std::size_t>(n_) + 1);
  for (V v = 0; v < n_; ++v) {
    g.off_[static_cast<std::size_t>(v)] =
        static_cast<std::uint32_t>(cur_[static_cast<std::size_t>(v)]);
  }
  g.off_[static_cast<std::size_t>(n_)] = static_cast<std::uint32_t>(w);
  off_.clear();
  off_.shrink_to_fit();
  g.adj_ = std::move(adj_);

  // Mirror table in O(2m): sweep v ascending. For a neighbor u > v, the
  // vertices < u arrive in ascending order -- exactly the sorted prefix of
  // u's row -- so a per-vertex counter of already-mirrored smaller
  // neighbors names the back port directly, with no per-slot search.
  auto final_off = [&](V v) {
    return static_cast<std::int64_t>(g.off_[static_cast<std::size_t>(v)]);
  };
  g.mirror_.resize(static_cast<std::size_t>(w));
  std::fill(cur_.begin(), cur_.end(), 0);
  for (V v = 0; v < n_; ++v) {
    const std::int64_t base = final_off(v);
    const std::int64_t deg = final_off(v + 1) - base;
    for (std::int64_t p = 0; p < deg; ++p) {
      const V u = g.adj_[static_cast<std::size_t>(base + p)];
      if (u < v) continue;  // mirrored when u's row reached v
      const std::int64_t s = base + p;
      const std::int64_t t = final_off(u) + cur_[static_cast<std::size_t>(u)]++;
      DVC_ENSURE(g.adj_[static_cast<std::size_t>(t)] == v,
                 "mirror cursor desynchronized from the sorted adjacency");
      g.mirror_[static_cast<std::size_t>(s)] = static_cast<std::uint32_t>(t);
      g.mirror_[static_cast<std::size_t>(t)] = static_cast<std::uint32_t>(s);
    }
  }
  cur_.clear();
  cur_.shrink_to_fit();

  // Content digest: the CSR arrays are canonical (adjacency sorted, edges
  // deduped), so hashing the degree+neighbor stream gives a representation-
  // independent topology hash. The per-vertex degree word keeps graphs with identical concatenated
  // adjacency but different offsets apart.
  std::uint64_t h = detail::digest_mix(
      detail::digest_mix(0x64766367ULL /* "dvcg" */,
                         static_cast<std::uint64_t>(n_)),
      static_cast<std::uint64_t>(g.m_));
  for (V v = 0; v < n_; ++v) {
    const auto nb = g.neighbors(v);
    h = detail::digest_mix(h, nb.size());
    for (const V u : nb) h = detail::digest_mix(h, static_cast<std::uint64_t>(u));
  }
  g.digest_ = h;
  return g;
}

}  // namespace dvc
