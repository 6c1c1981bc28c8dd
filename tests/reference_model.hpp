// Reference delivery model: the paper's round semantics (arXiv:1003.1608,
// Section 1.2; the header of src/sim/runtime.hpp) run by a naive
// interpreter that has no arena, no shards and no lanes. The bit-identity
// oracle compares the runtime only with itself, so a delivery bug shared
// by every execution axis -- grouped delivery and port scan alike -- shows
// only against an independent model like this one.
//
// A probe decides what a vertex does from (vertex, degree, round, inbox)
// alone, including whether it sleeps (Ctx::sleep_until). model::interpret
// runs it on a map from (receiver, port) to payload, one map per round;
// model::ProbeProgram runs the same probe as a VertexProgram on
// sim::Runtime and records every (vertex, round) inbox it is stepped with.
// model::same_as_model compares the two transcripts and every RunStats
// field except work_items.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "graph/graph.hpp"
#include "sim/runtime.hpp"

namespace dvc_test::model {

using dvc::V;
using Words = std::vector<std::int64_t>;

/// One delivered message: its arrival port and payload.
struct Msg {
  int port = 0;
  Words data;
  friend bool operator==(const Msg&, const Msg&) = default;
};
using Inbox = std::vector<Msg>;

/// What one activation does (begin() is round 0, with an empty inbox).
struct Action {
  std::optional<Words> broadcast;          ///< payload to every neighbor
  std::vector<std::pair<int, Words>> sends;  ///< (port, payload)
  bool halt = false;
  /// Ctx::sleep_until's argument (Ctx::kUntilMail: until mail), if any.
  std::optional<int> sleep_until;
};

/// Must be a pure function of its arguments: the runtime calls it from
/// every shard thread at once.
using Probe = std::function<Action(V vertex, int degree, int round,
                                   const Inbox& inbox)>;

/// Per vertex, the (round, inbox) of every step() call, in round order.
using Transcript = std::vector<std::vector<std::pair<int, Inbox>>>;

struct Run {
  dvc::sim::RunStats stats;  ///< work_items stays 0
  Transcript transcript;
};

/// Runs `probe` to completion under the model: every live vertex acts once
/// per round in ascending order unless it sleeps, a message sent in round r
/// reaches the receiver's mirror port at the start of round r + 1, and an
/// inbox lists its messages in port order. Messages to a halted vertex are
/// never read. A sleeper acts again in the first round that brings it mail
/// or equals the round it sleeps until, and is awake after acting.
inline Run interpret(const dvc::Graph& g, const Probe& probe, int max_rounds) {
  const V n = g.num_vertices();
  Run run;
  run.transcript.resize(static_cast<std::size_t>(n));
  std::vector<bool> halted(static_cast<std::size_t>(n), false);
  std::vector<int> sleeps(static_cast<std::size_t>(n), 0);  // 0 = awake
  std::map<std::pair<V, int>, Words> mail, next;  // (receiver, port)
  std::uint64_t words = 0;
  const auto post = [&](V from, int port, const Words& payload) {
    const V to = g.neighbors(from)[port];
    const auto back = g.neighbors(to);
    const int to_port =
        static_cast<int>(std::find(back.begin(), back.end(), from) - back.begin());
    DVC_ENSURE(next.emplace(std::pair{to, to_port}, payload).second,
               "model: two messages on one edge direction in one round");
    ++run.stats.messages;
    words += payload.size();
    run.stats.max_msg_words = std::max(
        run.stats.max_msg_words, static_cast<std::uint32_t>(payload.size()));
  };
  const auto act = [&](V v, int round, const Inbox& inbox) {
    const Action a = probe(v, g.degree(v), round, inbox);
    if (a.broadcast) {
      for (int p = 0; p < g.degree(v); ++p) post(v, p, *a.broadcast);
    }
    for (const auto& [port, payload] : a.sends) post(v, port, payload);
    if (a.halt) halted[static_cast<std::size_t>(v)] = true;
    sleeps[static_cast<std::size_t>(v)] = a.sleep_until.value_or(0);
  };
  const auto end_round = [&] {
    run.stats.words += words;
    run.stats.words_per_round.push_back(words);
    words = 0;
    mail = std::exchange(next, {});
  };

  for (V v = 0; v < n; ++v) act(v, 0, {});
  end_round();
  for (int round = 1;; ++round) {
    const auto live = static_cast<std::int32_t>(std::ranges::count(halted, false));
    if (live == 0) break;
    DVC_ENSURE(round <= max_rounds, "model: round cap exceeded");
    run.stats.rounds = round;
    run.stats.active_per_round.push_back(live);
    // Only v's own action can halt v, so testing the flag as the sweep
    // reaches v sees the live set of the round's start.
    for (V v = 0; v < n; ++v) {
      if (halted[static_cast<std::size_t>(v)]) continue;
      Inbox inbox;
      for (auto it = mail.lower_bound({v, 0});
           it != mail.end() && it->first.first == v; ++it) {
        inbox.push_back({it->first.second, it->second});
      }
      const int until = sleeps[static_cast<std::size_t>(v)];
      if (until != 0 && until != round && inbox.empty()) continue;
      act(v, round, inbox);
      run.transcript[static_cast<std::size_t>(v)].emplace_back(round,
                                                               std::move(inbox));
    }
    end_round();
  }
  return run;
}

/// The probe as a VertexProgram: each step() records its inbox (a vertex
/// touches only its own transcript row, so shards never race).
class ProbeProgram : public dvc::sim::VertexProgram {
 public:
  ProbeProgram(V n, Probe probe, int max_words)
      : probe_(std::move(probe)),
        max_words_(max_words),
        transcript_(static_cast<std::size_t>(n)) {}
  std::string name() const override { return "probe"; }
  int max_words() const override { return max_words_; }
  void begin(dvc::sim::Ctx& ctx) override { act(ctx, {}); }
  void step(dvc::sim::Ctx& ctx, const dvc::sim::Inbox& inbox) override {
    Inbox got;
    for (const dvc::sim::MsgView& m : inbox) {
      got.push_back({m.port, Words(m.data.begin(), m.data.end())});
    }
    act(ctx, got);
    transcript_[static_cast<std::size_t>(ctx.vertex())].emplace_back(
        ctx.round(), std::move(got));
  }
  Transcript& transcript() { return transcript_; }

 private:
  void act(dvc::sim::Ctx& ctx, const Inbox& inbox) {
    const Action a = probe_(ctx.vertex(), ctx.degree(), ctx.round(), inbox);
    if (a.broadcast) ctx.broadcast(*a.broadcast);
    for (const auto& [port, payload] : a.sends) ctx.send(port, payload);
    if (a.halt) ctx.halt();
    if (a.sleep_until) ctx.sleep_until(*a.sleep_until);
  }
  Probe probe_;
  int max_words_;
  Transcript transcript_;
};

/// Runs `probe` as one phase on `rt`.
inline Run run_on(dvc::sim::Runtime& rt, const Probe& probe, int max_words,
                  int max_rounds) {
  ProbeProgram prog(rt.graph().num_vertices(), probe, max_words);
  Run run;
  run.stats = rt.run_phase(prog, max_rounds);
  run.transcript = std::move(prog.transcript());
  return run;
}

/// Equal transcripts and RunStats, work_items aside; names the first
/// (vertex, step) whose inbox differs.
inline ::testing::AssertionResult same_as_model(const Run& model,
                                                const Run& got) {
  dvc::sim::RunStats stats = got.stats;
  stats.work_items = model.stats.work_items;
  if (!(stats == model.stats)) {
    return ::testing::AssertionFailure()
           << "RunStats differ from the model: rounds " << got.stats.rounds
           << " vs " << model.stats.rounds << ", messages "
           << got.stats.messages << " vs " << model.stats.messages
           << ", words " << got.stats.words << " vs " << model.stats.words;
  }
  for (std::size_t v = 0; v < model.transcript.size(); ++v) {
    const auto& want = model.transcript[v];
    const auto& row = got.transcript[v];
    if (row == want) continue;
    const auto [w, r] = std::ranges::mismatch(want, row);
    ::testing::AssertionResult fail = ::testing::AssertionFailure();
    fail << "vertex " << v << ": ";
    if (w == want.end() || r == row.end()) {
      return fail << row.size() << " steps vs " << want.size()
                  << " in the model";
    }
    return fail << "round " << r->first << " inbox of " << r->second.size()
                << " messages vs round " << w->first << " with "
                << w->second.size() << " in the model";
  }
  return ::testing::AssertionSuccess();
}

}  // namespace dvc_test::model
