// Per-phase bookkeeping: RunStats (one phase's counters and per-round
// series) and PhaseLog (the session's flat tree of named phase spans).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace dvc::sim {

struct RunStats {
  int rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t words = 0;
  /// Algorithmic work of the phase: one item per program activation (a
  /// begin() or step() call) plus one per delivered inbox message. A
  /// sleeper's skipped step (Ctx::sleep_until) is not an activation, so it
  /// is the one counter sleeping moves. By construction this is
  /// delivery-mode invariant (it counts the work the algorithm demands, not
  /// executor-internal scanning), so benches can report work vs wall time
  /// and the delivery-mode oracle stays bit-identical.
  std::uint64_t work_items = 0;
  /// Widest single message payload (words) observed during the phase; the
  /// phase ran within the CONGEST model iff this is <= the word budget.
  std::uint32_t max_msg_words = 0;
  /// Number of non-halted vertices at the start of each round. Sequential
  /// phase composition (operator+=) concatenates, so a composed driver's
  /// profile covers its whole pipeline. Used to validate the paper's
  /// Section 1.4 parallelism claim ("all vertices are active at (almost)
  /// all times").
  std::vector<std::int32_t> active_per_round;
  /// Payload words sent per execution step: index 0 is begin(), index r is
  /// round r. Sums to `words`. Sequential composition concatenates, like
  /// active_per_round (note the two series are offset by one: a phase with
  /// R rounds contributes R active counts but R+1 bandwidth samples).
  std::vector<std::uint64_t> words_per_round;

  /// Full bitwise comparison, counters and series alike: the test suite's
  /// shard-count/delivery-mode bit-identity checks and the benches' A/B
  /// attestations all compare through this one operator, so a new field
  /// can never be silently left out of an identity check.
  friend bool operator==(const RunStats&, const RunStats&) = default;

  RunStats& operator+=(const RunStats& other) {
    rounds += other.rounds;
    messages += other.messages;
    words += other.words;
    work_items += other.work_items;
    max_msg_words = std::max(max_msg_words, other.max_msg_words);
    active_per_round.insert(active_per_round.end(),
                            other.active_per_round.begin(),
                            other.active_per_round.end());
    words_per_round.insert(words_per_round.end(),
                           other.words_per_round.begin(),
                           other.words_per_round.end());
    return *this;
  }

  /// Sequential composition with `earlier` having run first: used by
  /// composed drivers that obtain a sub-procedure's stats before their own,
  /// keeping active_per_round a faithful execution timeline.
  RunStats& prepend(RunStats earlier) {
    earlier += *this;
    *this = std::move(earlier);
    return *this;
  }
};

// ---------------------------------------------------------------------------
// PhaseLog: the unified per-phase bookkeeping record.

/// Flat, arena-backed log of named phase spans. Leaf entries are recorded by
/// Runtime::run_phase (one per simulated program); aggregate spans are
/// opened/closed by drivers (via PhaseSpan) so composed procedures appear as
/// a tree: `legal_coloring` shows `arbdefective -> partial-orientation ->
/// h-partition/...` with per-phase RunStats at every node.
///
/// Storage is three flat arenas (entries, name bytes, active counts), so
/// recording a phase into a warm log performs no heap allocation. Entry
/// `depth` encodes the tree: a span's subtree is the maximal following range
/// of entries with strictly greater depth.
class PhaseLog {
 public:
  struct Entry {
    std::uint32_t name_off = 0;
    std::uint32_t name_len = 0;
    std::int32_t depth = 0;    // nesting level; 0 = top of the slice
    bool span = false;         // aggregate over the nested subtree
    std::int32_t rounds = 0;
    std::uint64_t messages = 0;
    std::uint64_t words = 0;
    /// Activations + delivered messages (see RunStats::work_items; a
    /// sleeper's skipped step is no activation).
    std::uint64_t work_items = 0;
    /// Widest message of the phase (spans: max over the subtree).
    std::uint32_t max_msg_words = 0;
    std::uint32_t active_off = 0;  // into the active arena (leaves only)
    std::uint32_t active_len = 0;
    std::uint32_t bw_off = 0;  // into the bandwidth arena (leaves only)
    std::uint32_t bw_len = 0;

    friend bool operator==(const Entry&, const Entry&) = default;
  };

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const Entry& operator[](std::size_t i) const { return entries_[i]; }

  std::string_view name(const Entry& e) const {
    return std::string_view(names_.data() + e.name_off, e.name_len);
  }
  std::string_view name(std::size_t i) const { return name(entries_[i]); }

  /// Per-round live-vertex counts of a leaf entry (empty for spans; a span's
  /// profile is the concatenation of its subtree's leaves, see stats()).
  std::span<const std::int32_t> active(const Entry& e) const {
    return std::span<const std::int32_t>(active_.data() + e.active_off,
                                         e.active_len);
  }

  /// Per-step payload-word series of a leaf entry (index 0 = begin; empty
  /// for spans -- a span's series is the concatenation of its leaves).
  std::span<const std::uint64_t> bandwidth(const Entry& e) const {
    return std::span<const std::uint64_t>(bandwidth_.data() + e.bw_off,
                                          e.bw_len);
  }

  /// Materializes entry i as a RunStats. For spans, counters are the
  /// recorded aggregate and active_per_round concatenates the subtree's
  /// leaves in execution order.
  RunStats stats(std::size_t i) const;

  /// Index one past the end of entry i's subtree (i + 1 for leaves).
  std::size_t subtree_end(std::size_t i) const;

  /// Peak per-round live-vertex count of entry i (spans: max over the
  /// subtree's leaves). 0 for phases with no communication rounds. This is
  /// the `peak_live` field benches emit so the live-list executor's cost
  /// is auditable from bench artifacts alone.
  std::int32_t peak_active(std::size_t i) const;

  /// Sequential composition of all top-level (depth 0) entries: equals the
  /// sum of every leaf, since spans aggregate their subtrees.
  RunStats total() const;

  /// Copy of entries [first, size()) rebased to depth 0. Drivers snapshot
  /// their slice of a shared session log into their result structs.
  PhaseLog slice(std::size_t first) const;

  /// Pre-sizes the arenas so that recording stays allocation-free until the
  /// reserve is exceeded.
  void reserve(std::size_t entries, std::size_t name_bytes,
               std::size_t active_words, std::size_t bandwidth_words);

  /// Forgets all entries but keeps arena capacity (warm reuse).
  void clear();

  /// Opens an aggregate span at the current depth; subsequent entries nest
  /// under it until close_span. Returns the span's entry index.
  std::size_t open_span(std::string_view name);
  /// Closes the span, folding its direct children into its counters.
  void close_span(std::size_t idx);

  /// Appends a leaf entry at the current depth.
  void record(std::string_view name, const RunStats& stats);

  friend bool operator==(const PhaseLog&, const PhaseLog&) = default;

 private:
  std::uint32_t intern(std::string_view name);

  std::vector<Entry> entries_;
  std::vector<char> names_;
  std::vector<std::int32_t> active_;
  std::vector<std::uint64_t> bandwidth_;
  std::int32_t depth_ = 0;
};

}  // namespace dvc::sim
