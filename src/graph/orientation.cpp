#include "graph/orientation.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace dvc {

Orientation::Orientation(const Graph& g)
    : g_(&g), dir_(static_cast<std::size_t>(g.num_slots()), 0) {}

void Orientation::orient_out(V v, int port) {
  const std::int64_t s = g_->slot(v, port);
  dir_[static_cast<std::size_t>(s)] = static_cast<std::int8_t>(EdgeDir::Out);
  dir_[static_cast<std::size_t>(g_->mirror_slot(s))] =
      static_cast<std::int8_t>(EdgeDir::In);
}

void Orientation::orient_in(V v, int port) {
  const std::int64_t s = g_->slot(v, port);
  dir_[static_cast<std::size_t>(s)] = static_cast<std::int8_t>(EdgeDir::In);
  dir_[static_cast<std::size_t>(g_->mirror_slot(s))] =
      static_cast<std::int8_t>(EdgeDir::Out);
}

void Orientation::orient_out_local(V v, int port) {
  dir_[static_cast<std::size_t>(g_->slot(v, port))] =
      static_cast<std::int8_t>(EdgeDir::Out);
}

void Orientation::orient_in_local(V v, int port) {
  dir_[static_cast<std::size_t>(g_->slot(v, port))] =
      static_cast<std::int8_t>(EdgeDir::In);
}

void Orientation::clear(V v, int port) {
  const std::int64_t s = g_->slot(v, port);
  dir_[static_cast<std::size_t>(s)] = 0;
  dir_[static_cast<std::size_t>(g_->mirror_slot(s))] = 0;
}

int Orientation::out_degree(V v) const {
  int d = 0;
  const int deg = g_->degree(v);
  for (int p = 0; p < deg; ++p) d += is_out(v, p);
  return d;
}

int Orientation::in_degree(V v) const {
  int d = 0;
  const int deg = g_->degree(v);
  for (int p = 0; p < deg; ++p) d += is_in(v, p);
  return d;
}

int Orientation::deficit(V v) const {
  int d = 0;
  const int deg = g_->degree(v);
  for (int p = 0; p < deg; ++p) d += is_unoriented(v, p);
  return d;
}

int Orientation::max_out_degree() const {
  int best = 0;
  for (V v = 0; v < g_->num_vertices(); ++v) best = std::max(best, out_degree(v));
  return best;
}

int Orientation::max_deficit() const {
  int best = 0;
  for (V v = 0; v < g_->num_vertices(); ++v) best = std::max(best, deficit(v));
  return best;
}

std::int64_t Orientation::num_oriented_edges() const {
  std::int64_t oriented = 0;
  for (std::size_t s = 0; s < dir_.size(); ++s) {
    oriented += dir_[s] == static_cast<std::int8_t>(EdgeDir::Out);
  }
  return oriented;
}

V Orientation::kahn_parents_first(std::vector<V>& fifo,
                                  std::vector<int>& len) const {
  // Kahn's algorithm on the reversed arrows: a vertex is ready when all its
  // parents (out-neighbors) are already placed. Every vertex enters the FIFO
  // once, so `fifo` itself is the order; when u is popped its parents are
  // all placed, so len[u] is final and relaxes u's children.
  const V n = g_->num_vertices();
  std::vector<int> remaining(static_cast<std::size_t>(n));
  fifo.clear();
  fifo.reserve(static_cast<std::size_t>(n));
  len.assign(static_cast<std::size_t>(n), 0);
  for (V v = 0; v < n; ++v) {
    remaining[static_cast<std::size_t>(v)] = out_degree(v);
    if (remaining[static_cast<std::size_t>(v)] == 0) fifo.push_back(v);
  }
  for (std::size_t head = 0; head < fifo.size(); ++head) {
    const V u = fifo[head];
    const int next = len[static_cast<std::size_t>(u)] + 1;
    const auto row = g_->neighbors(u);
    const std::int8_t* dir = dir_.data() + g_->slot(u, 0);
    for (std::size_t p = 0; p < row.size(); ++p) {
      if (dir[p] != static_cast<std::int8_t>(EdgeDir::In)) continue;
      // Every child of u (in-neighbor) loses one pending parent.
      const auto child = static_cast<std::size_t>(row[p]);
      len[child] = std::max(len[child], next);
      if (--remaining[child] == 0) fifo.push_back(row[p]);
    }
  }
  return static_cast<V>(fifo.size());
}

std::vector<V> Orientation::topological_order_parents_first() const {
  std::vector<V> order;
  std::vector<int> len;
  DVC_ENSURE(kahn_parents_first(order, len) == g_->num_vertices(),
             "orientation has a directed cycle");
  return order;
}

bool Orientation::is_acyclic() const {
  std::vector<V> fifo;
  std::vector<int> len;
  return kahn_parents_first(fifo, len) == g_->num_vertices();
}

std::vector<int> Orientation::lengths() const {
  std::vector<V> fifo;
  std::vector<int> len;
  DVC_ENSURE(kahn_parents_first(fifo, len) == g_->num_vertices(),
             "orientation has a directed cycle");
  return len;
}

int Orientation::length() const {
  const auto len = lengths();
  return len.empty() ? 0 : *std::max_element(len.begin(), len.end());
}

void Orientation::complete_acyclic() {
  const std::vector<V> order = topological_order_parents_first();
  std::vector<std::int64_t> pos(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    pos[static_cast<std::size_t>(order[i])] = static_cast<std::int64_t>(i);
  }
  // All existing arrows v->u point towards strictly smaller pos (parents are
  // placed first). Orient every unoriented edge towards the endpoint with
  // the smaller pos; the unified orientation then strictly decreases pos
  // along arrows, hence stays acyclic.
  const V n = g_->num_vertices();
  for (V v = 0; v < n; ++v) {
    const int deg = g_->degree(v);
    for (int p = 0; p < deg; ++p) {
      if (!is_unoriented(v, p)) continue;
      const V u = g_->neighbor(v, p);
      if (pos[static_cast<std::size_t>(u)] < pos[static_cast<std::size_t>(v)]) {
        orient_out(v, p);
      } else {
        orient_in(v, p);
      }
    }
  }
  DVC_ENSURE(is_complete(), "completion must orient every edge");
}

}  // namespace dvc
