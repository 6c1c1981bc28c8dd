#include "sim/phase_log.hpp"

namespace dvc::sim {

// ---------------------------------------------------------------------------
// PhaseLog

RunStats PhaseLog::stats(std::size_t i) const {
  const Entry& e = entries_[i];
  RunStats out;
  out.rounds = e.rounds;
  out.messages = e.messages;
  out.words = e.words;
  out.work_items = e.work_items;
  out.max_msg_words = e.max_msg_words;
  if (!e.span) {
    const auto a = active(e);
    out.active_per_round.assign(a.begin(), a.end());
    const auto b = bandwidth(e);
    out.words_per_round.assign(b.begin(), b.end());
    return out;
  }
  for (std::size_t j = i + 1, end = subtree_end(i); j < end; ++j) {
    if (entries_[j].span) continue;
    const auto a = active(entries_[j]);
    out.active_per_round.insert(out.active_per_round.end(), a.begin(), a.end());
    const auto b = bandwidth(entries_[j]);
    out.words_per_round.insert(out.words_per_round.end(), b.begin(), b.end());
  }
  return out;
}

std::size_t PhaseLog::subtree_end(std::size_t i) const {
  std::size_t j = i + 1;
  while (j < entries_.size() && entries_[j].depth > entries_[i].depth) ++j;
  return j;
}

std::int32_t PhaseLog::peak_active(std::size_t i) const {
  std::int32_t peak = 0;
  const std::size_t end = entries_[i].span ? subtree_end(i) : i + 1;
  for (std::size_t j = i; j < end; ++j) {
    if (entries_[j].span) continue;
    for (const std::int32_t a : active(entries_[j])) peak = std::max(peak, a);
  }
  return peak;
}

RunStats PhaseLog::total() const {
  RunStats out;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (e.depth == 0) {
      out.rounds += e.rounds;
      out.messages += e.messages;
      out.words += e.words;
      out.work_items += e.work_items;
      out.max_msg_words = std::max(out.max_msg_words, e.max_msg_words);
    }
    if (!e.span) {
      const auto a = active(e);
      out.active_per_round.insert(out.active_per_round.end(), a.begin(),
                                  a.end());
      const auto b = bandwidth(e);
      out.words_per_round.insert(out.words_per_round.end(), b.begin(),
                                 b.end());
    }
  }
  return out;
}

PhaseLog PhaseLog::slice(std::size_t first) const {
  PhaseLog out;
  if (first >= entries_.size()) return out;
  const std::int32_t base = entries_[first].depth;
  for (std::size_t i = first; i < entries_.size(); ++i) {
    Entry e = entries_[i];
    e.depth -= base;
    e.name_off = out.intern(name(entries_[i]));
    const auto a = active(entries_[i]);
    // Canonical offset 0 for empty ranges (spans, zero-round leaves) keeps
    // the defaulted operator== semantic: a log equals its slice(0).
    e.active_off =
        a.empty() ? 0 : static_cast<std::uint32_t>(out.active_.size());
    out.active_.insert(out.active_.end(), a.begin(), a.end());
    const auto b = bandwidth(entries_[i]);
    e.bw_off = b.empty() ? 0 : static_cast<std::uint32_t>(out.bandwidth_.size());
    out.bandwidth_.insert(out.bandwidth_.end(), b.begin(), b.end());
    out.entries_.push_back(e);
  }
  return out;
}

void PhaseLog::reserve(std::size_t entries, std::size_t name_bytes,
                       std::size_t active_words, std::size_t bandwidth_words) {
  entries_.reserve(entries);
  names_.reserve(name_bytes);
  active_.reserve(active_words);
  bandwidth_.reserve(bandwidth_words);
}

void PhaseLog::clear() {
  entries_.clear();
  names_.clear();
  active_.clear();
  bandwidth_.clear();
  depth_ = 0;
}

std::uint32_t PhaseLog::intern(std::string_view name) {
  const auto off = static_cast<std::uint32_t>(names_.size());
  names_.insert(names_.end(), name.begin(), name.end());
  return off;
}

std::size_t PhaseLog::open_span(std::string_view name) {
  Entry e;
  e.name_off = intern(name);
  e.name_len = static_cast<std::uint32_t>(name.size());
  e.depth = depth_++;
  e.span = true;
  entries_.push_back(e);
  return entries_.size() - 1;
}

void PhaseLog::close_span(std::size_t idx) {
  --depth_;
  Entry& e = entries_[idx];
  // Fold direct children only: nested spans were closed first and already
  // aggregate their own subtrees. Folded into locals then ASSIGNED (not
  // accumulated) so closing is idempotent on the entry's counters.
  std::int32_t rounds = 0;
  std::uint64_t messages = 0, words = 0, work_items = 0;
  std::uint32_t max_msg_words = 0;
  for (std::size_t j = idx + 1; j < entries_.size();) {
    if (entries_[j].depth <= e.depth) break;
    if (entries_[j].depth == e.depth + 1) {
      rounds += entries_[j].rounds;
      messages += entries_[j].messages;
      words += entries_[j].words;
      work_items += entries_[j].work_items;
      max_msg_words = std::max(max_msg_words, entries_[j].max_msg_words);
    }
    j = subtree_end(j);
  }
  e.rounds = rounds;
  e.messages = messages;
  e.words = words;
  e.work_items = work_items;
  e.max_msg_words = max_msg_words;
}

void PhaseLog::record(std::string_view name, const RunStats& stats) {
  Entry e;
  e.name_off = intern(name);
  e.name_len = static_cast<std::uint32_t>(name.size());
  e.depth = depth_;
  e.rounds = stats.rounds;
  e.messages = stats.messages;
  e.words = stats.words;
  e.work_items = stats.work_items;
  e.max_msg_words = stats.max_msg_words;
  e.active_off = stats.active_per_round.empty()
                     ? 0
                     : static_cast<std::uint32_t>(active_.size());
  e.active_len = static_cast<std::uint32_t>(stats.active_per_round.size());
  active_.insert(active_.end(), stats.active_per_round.begin(),
                 stats.active_per_round.end());
  e.bw_off = stats.words_per_round.empty()
                 ? 0
                 : static_cast<std::uint32_t>(bandwidth_.size());
  e.bw_len = static_cast<std::uint32_t>(stats.words_per_round.size());
  bandwidth_.insert(bandwidth_.end(), stats.words_per_round.begin(),
                    stats.words_per_round.end());
  entries_.push_back(e);
}

}  // namespace dvc::sim
