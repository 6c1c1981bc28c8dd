// Guarantees of the persistent sim::Runtime session layer (DESIGN.md,
// "Runtime sessions"); that a shared session is bit-identical to fresh ones
// at any shard count is tests/test_determinism_oracle.cpp's:
//   1. Phases after the first allocate nothing: arenas, inboxes, scratch,
//      stats buffers and the PhaseLog all keep their capacity, verified
//      through a global operator-new counting hook.
//   2. A full PolylogTime preset run on a session spawns zero threads after
//      the session is constructed, and a warm re-run performs zero
//      runtime-side heap allocations end to end.
//   3. The PhaseLog is a consistent tree: spans aggregate their subtrees
//      and slices rebase cleanly.
//   4. Shard boundaries are contiguous, cost-balanced and a pure function
//      of (graph, shard count).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <system_error>
#include <vector>

#include "common/check.hpp"
#include "core/api.hpp"
#include "decomp/h_partition.hpp"
#include "graph/arboricity.hpp"
#include "graph/generators.hpp"
#include "sim/runtime.hpp"
#include "determinism_oracle.hpp"
#include "reference_model.hpp"
#include "test_support.hpp"

namespace dvc {
namespace {

using dvc_test::FloodAll;
namespace model = dvc_test::model;

namespace sleepers {

constexpr int kMail = sim::Ctx::kUntilMail;

/// Random sleeper: until its halting round (6 + v % 37) a vertex speaks in
/// 2 of every `quiet` steps (a broadcast or one port send) and usually
/// sleeps toward a timed wake-up up to 40 rounds ahead. At quiet = 4 mail
/// wakes many sleepers early and leaves their keys behind in the timer
/// heap -- enough of them to fill it and force the dead-key sweep -- and
/// most rounds scan ports; at quiet = 32 most rounds are grouped. Every
/// decision hashes (vertex, round, inbox), so the run is a pure function of
/// the graph.
model::Action churn(std::uint64_t quiet, V v, int degree, int round,
                    const model::Inbox& inbox) {
  std::uint64_t h = detail::digest_mix(
      detail::digest_mix(static_cast<std::uint64_t>(v),
                         static_cast<std::uint64_t>(round)),
      inbox.size());
  for (const model::Msg& m : inbox) {
    h = detail::digest_mix(h, static_cast<std::uint64_t>(m.data[0]));
  }
  model::Action a;
  const int last = 6 + static_cast<int>(v % 37);
  if (round >= last) {
    a.halt = true;
    return a;
  }
  if (degree > 0 && h % quiet == 0) {
    a.broadcast = model::Words{static_cast<std::int64_t>(h % 1000)};
  } else if (degree > 0 && h % quiet == 1) {
    a.sends.push_back({static_cast<int>(h % static_cast<std::uint64_t>(degree)),
                       {round}});
  }
  if (h % 3 != 0) {
    a.sleep_until = std::min(last, round + 1 + static_cast<int>((h >> 8) % 40));
  }
  return a;
}

model::Probe churn(std::uint64_t quiet) {
  return [quiet](V v, int degree, int round, const model::Inbox& inbox) {
    return churn(quiet, v, degree, round, inbox);
  };
}

}  // namespace sleepers

// --- 1. Warm phases allocate nothing --------------------------------------

TEST(Runtime, PhasesAfterTheFirstAllocateNothing) {
  const Graph g = random_near_regular(2048, 8, 3);
  constexpr int kRounds = 12;
  for (const int shards : {1, 2, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    sim::Runtime rt(g, shards);
    // Metering enforcement on: the CONGEST budget check must not cost
    // allocations either (FloodAll sends 3-word payloads).
    rt.set_congest_words(3);
    {
      FloodAll warm(kRounds);
      rt.run_phase(warm, kRounds + sim::kRoundCapSlack, "flood");
    }
    // Every subsequent phase -- including its PhaseLog entry -- must reuse
    // warm capacity. The FloodAll program itself performs no allocations,
    // so the whole-binary counter must not move.
    const std::uint64_t before = dvc_test::alloc_count();
    for (int i = 0; i < 3; ++i) {
      FloodAll prog(kRounds);
      const sim::RunStats& stats =
          rt.run_phase(prog, kRounds + sim::kRoundCapSlack, "flood");
      if (stats.messages == 0) break;  // unreachable; keeps stats observable
    }
    EXPECT_EQ(dvc_test::alloc_count() - before, 0u)
        << "a warm phase allocated at " << shards << " shards";
    ASSERT_EQ(rt.log().size(), 4u);
  }
}

TEST(Runtime, WarmRoundsOfTheFirstPhaseAllocateNothing) {
  // The constructor reserves every delivery-path buffer to its exact upper
  // bound (live and speaker lists to the shard's vertex range, the grouped
  // workspace to its share of the shard's slot count, the inbox to the
  // shard's max degree), so even within the FIRST phase of a cold session
  // only the flood's first two rounds -- which warm the double-buffered
  // word arenas -- may allocate; from round 3 on the counter is frozen.
  const Graph g = random_near_regular(2048, 8, 5);
  constexpr int kRounds = 12;
  for (const int shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    sim::Runtime rt(g, shards);
    std::uint64_t at_round2 = 0;
    std::uint64_t late_allocs = 0;
    rt.set_round_observer([&](int round) {
      if (round == 2) at_round2 = dvc_test::alloc_count();
      if (round > 2) late_allocs = dvc_test::alloc_count() - at_round2;
    });
    FloodAll prog(kRounds);
    rt.run_phase(prog, kRounds + sim::kRoundCapSlack, "flood");
    EXPECT_EQ(late_allocs, 0u) << "a round after the arena warm-up allocated";
  }
}

// --- 2. A full preset pipeline: zero thread spawns, warm re-run
//        performs zero runtime-side allocations ----------------------------

TEST(Runtime, PolylogPresetSpawnsNoThreadsAfterConstructionAndRerunsCleanly) {
  const Graph g = planted_arboricity(1 << 10, 8, 5);
  sim::Runtime rt(g, 4);
  EXPECT_EQ(rt.pool_threads(), 3);

  const std::uint64_t spawned =
      sim::Runtime::lifetime_threads_spawned();
  const LegalColoringResult first = color_graph(rt, 8, Preset::PolylogTime);
  // The entire multi-phase pipeline re-used the parked pool: zero spawns.
  EXPECT_EQ(sim::Runtime::lifetime_threads_spawned(), spawned);

  // Warm re-run: every arena, buffer and log arena is at capacity, so the
  // runtime machinery performs zero heap allocations end to end (driver and
  // program-level bookkeeping is outside the machinery scope).
  rt.reset_log();
  const std::uint64_t machinery = dvc_test::machinery_allocs();
  const LegalColoringResult second = color_graph(rt, 8, Preset::PolylogTime);
  EXPECT_EQ(dvc_test::machinery_allocs() - machinery, 0u)
      << "runtime machinery allocated during a warm preset re-run";
  EXPECT_EQ(sim::Runtime::lifetime_threads_spawned(), spawned);

  EXPECT_TRUE(dvc_test::bit_identical(first, second));

  // A warm phase of sleepers -- awake lists, timed wake-ups, dead-key
  // sweeps of a full timer heap -- allocates no machinery either.
  model::run_on(rt, sleepers::churn(4), /*max_words=*/1, 64);
  const std::uint64_t sleeping = dvc_test::machinery_allocs();
  model::run_on(rt, sleepers::churn(4), /*max_words=*/1, 64);
  EXPECT_EQ(dvc_test::machinery_allocs() - sleeping, 0u)
      << "runtime machinery allocated during a warm sleeping phase";
}

TEST(Runtime, WarmPolylogColoringAllocationsDoNotGrowWithN) {
  // Program state lives in flat columns, a few vectors per phase, so a warm
  // coloring's heap allocations (program state and driver bookkeeping
  // included) are a per-phase constant, not a per-vertex one: a histogram
  // row per vertex in simple-arbdefective once made 164,360 at this size.
  const Graph g = rmat_graph(14, 8, 1);
  const int bound = degeneracy(g);
  sim::Runtime rt(g, 1);
  const LegalColoringResult first = color_graph(rt, bound, Preset::PolylogTime);
  rt.reset_log();
  const std::uint64_t before = dvc_test::alloc_count();
  const LegalColoringResult second =
      color_graph(rt, bound, Preset::PolylogTime);
  const std::uint64_t allocs = dvc_test::alloc_count() - before;
  EXPECT_LE(allocs, static_cast<std::uint64_t>(g.num_vertices()) / 16)
      << "a warm polylog coloring of " << g.num_vertices()
      << " vertices allocated " << allocs << " times";
  EXPECT_TRUE(dvc_test::bit_identical(first, second));
}

TEST(RuntimeDeathTest, FailedPoolSpawnThrowsInsteadOfTerminating) {
  if (dvc_test::kShadowSanitizer) {
    GTEST_SKIP() << "ASan/TSan shadow memory defeats an address-space cap";
  }
  // The shard pool's third or so thread fails to spawn; the constructor
  // must join the ones already running and rethrow, not std::terminate.
  const Graph g = path_graph(1024);
  EXPECT_EXIT(
      {
        dvc_test::cap_address_space_near_two_thread_stacks();
        try {
          sim::Runtime rt(g, 16);
        } catch (const std::system_error&) {
          _exit(0);
        }
        _exit(3);  // every thread spawned: the cap did not bite
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(Runtime, CaughtProgramErrorDoesNotPoisonTheNextPhase) {
  // A program that throws in EVERY shard in one sweep: merge_shards must
  // clear all shard errors (not just the first it rethrows), or the next
  // phase on this session spuriously rethrows a stale exception.
  const Graph g = random_near_regular(512, 6, 17);
  struct ThrowEverywhere : sim::VertexProgram {
    std::string name() const override { return "throw-everywhere"; }
    void begin(sim::Ctx& ctx) override {
      throw invariant_error("deliberate failure in shard of vertex " +
                            std::to_string(ctx.vertex()));
    }
    void step(sim::Ctx&, const sim::Inbox&) override {}
  } bad;
  struct HaltAll : sim::VertexProgram {
    std::string name() const override { return "halt-all"; }
    void begin(sim::Ctx& ctx) override { ctx.halt(); }
    void step(sim::Ctx&, const sim::Inbox&) override {}
  } good;
  sim::Runtime rt(g, 4);
  EXPECT_THROW(rt.run_phase(bad, 4, "bad"), invariant_error);
  EXPECT_NO_THROW(rt.run_phase(good, 4, "good"));
}

namespace adversarial {

/// Halt-heavy adversarial probe: ~90% of vertices broadcast once and halt
/// in begin(); the survivors keep sending on two ports with staggered
/// halts, so the live list compacts a little every round. Round 1 delivers
/// the dense begin() broadcasts from the broadcast lane by port scan;
/// later rounds carry the survivors' port sends from the slot cells, plus
/// messages addressed to already-halted vertices, which must be dropped.
model::Action halt_heavy(V v, int degree, int round, const model::Inbox&) {
  const std::int64_t id = v + 1;
  model::Action a;
  if (round == 0) {
    a.broadcast = model::Words{id, 0};
    a.halt = id % 10 != 0;
  } else if (round > (id / 10) % 5 + 2) {
    a.halt = true;
  } else {
    if (degree > 0) a.sends.push_back({0, {id, round}});
    if (degree > 1) a.sends.push_back({degree - 1, {id, round}});
  }
  return a;
}

/// Grouped-delivery probe: every vertex stays live for `rounds` rounds,
/// but only 1-in-64 vertices send (one rotating port each round), so
/// messages are far sparser than the live port space. On a 2,048-vertex
/// near-regular degree-8 graph grouped assembly engages at 1 and 2 shards;
/// at 8 shards a shard's live port space is small enough that it scans.
/// With `mixed`, the 1-in-64 senders broadcast instead and every
/// (64k+32)-th vertex sends on one port in the same round, so grouped
/// rounds assemble lane and slot payloads side by side.
model::Probe few_senders(int rounds, bool mixed) {
  return [=](V v, int degree, int round, const model::Inbox&) {
    model::Action a;
    if (round >= rounds) {
      a.halt = true;
      return a;
    }
    if (degree == 0) return a;
    const std::int64_t id = v + 1;
    const std::int64_t k = id % 64;
    if (mixed && k == 0) {
      a.broadcast = model::Words{id, round};
    } else if (k == (mixed ? 32 : 0)) {
      a.sends.push_back({round % degree, {id, round}});
    }
    return a;
  };
}

}  // namespace adversarial

TEST(Runtime, HaltHeavyProgramMatchesTheReferenceModelAtAnyShardCount) {
  const Graph g = random_near_regular(1 << 11, 8, 29);
  const model::Run want = model::interpret(g, adversarial::halt_heavy, 64);
  // The workload really is halt-heavy: ~10% of vertices survive begin().
  ASSERT_FALSE(want.stats.active_per_round.empty());
  EXPECT_LE(want.stats.active_per_round.front(), g.num_vertices() / 8);

  for (const int shards : {1, 2, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    sim::Runtime rt(g, shards);
    EXPECT_TRUE(model::same_as_model(
        want, model::run_on(rt, adversarial::halt_heavy, /*max_words=*/2, 64)));
  }
}

TEST(Runtime, HaltHeavyLiveCountsMatchTheClosedForm) {
  // halt_heavy's schedule depends on ids alone: vertices with id % 10 != 0
  // halt in begin(), and a survivor halts in round (id / 10) % 5 + 3. So
  // the live count at the start of round r is the number of survivors whose
  // halting round is >= r -- an oracle that shares no code with the
  // executor's live-list compaction.
  const Graph g = random_near_regular(1 << 11, 8, 29);
  std::vector<std::int32_t> expected;
  for (V v = 0; v < g.num_vertices(); ++v) {
    const std::int64_t id = v + 1;
    if (id % 10 != 0) continue;
    const auto halt_round = static_cast<std::size_t>((id / 10) % 5 + 3);
    if (expected.size() < halt_round) expected.resize(halt_round, 0);
    for (std::size_t r = 0; r < halt_round; ++r) ++expected[r];
  }
  ASSERT_EQ(expected.size(), 7u);
  for (const int shards : {1, 2, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    sim::Runtime rt(g, shards);
    const model::Run run =
        model::run_on(rt, adversarial::halt_heavy, /*max_words=*/2, 64);
    EXPECT_EQ(run.stats.active_per_round, expected);
    EXPECT_EQ(run.stats.rounds, static_cast<int>(expected.size()));
  }
}

TEST(Runtime, GroupedDeliveryMatchesTheReferenceModelAtAnyShardCount) {
  const Graph g = random_near_regular(1 << 11, 8, 43);
  constexpr int kRounds = 12;

  for (const bool mixed : {false, true}) {
    const model::Probe probe = adversarial::few_senders(kRounds, mixed);
    const model::Run want =
        model::interpret(g, probe, kRounds + sim::kRoundCapSlack);
    // The workload delivers something (or the grouped path is vacuous).
    ASSERT_GT(want.stats.messages, 0u);

    for (const int shards : {1, 2, 8}) {
      SCOPED_TRACE("mixed=" + std::to_string(mixed) +
                   " shards=" + std::to_string(shards));
      sim::Runtime rt(g, shards);
      EXPECT_TRUE(model::same_as_model(
          want, model::run_on(rt, probe, /*max_words=*/2,
                              kRounds + sim::kRoundCapSlack)));
    }
  }
}

TEST(Runtime, WorkItemsCountActivationsPlusDeliveredMessages) {
  // A deterministic closed form: FloodAll on an all-live graph activates
  // every vertex in begin() and every round, and delivers every sent
  // message one round later except those sent in the final (halting)
  // round's predecessor... directly: activations = n * (rounds + 1);
  // deliveries = messages arriving at live vertices = 2m * rounds (the
  // last broadcast is sent in round rounds-1... FloodAll halts in round
  // `rounds` after receiving, so every broadcast is delivered).
  const Graph g = random_near_regular(512, 6, 31);
  constexpr int kRounds = 5;
  sim::Runtime rt(g);
  dvc_test::FloodAll prog(kRounds);
  const sim::RunStats& stats = rt.run_phase(prog, kRounds + sim::kRoundCapSlack);
  const auto n = static_cast<std::uint64_t>(g.num_vertices());
  const auto activations = n * static_cast<std::uint64_t>(stats.rounds + 1);
  EXPECT_EQ(stats.work_items, activations + stats.messages);
}

// --- Sleep contract (Ctx::sleep_until) -------------------------------------

namespace sleepers {

using Steps = std::vector<std::pair<V, int>>;

/// The probe with every sleep dropped: every live vertex steps every round.
model::Probe awake(model::Probe probe) {
  return [probe = std::move(probe)](V v, int degree, int round,
                                    const model::Inbox& inbox) {
    model::Action a = probe(v, degree, round, inbox);
    a.sleep_until.reset();
    return a;
  };
}

/// The (vertex, round) pairs a transcript stepped, by vertex then round.
Steps steps(const model::Transcript& t) {
  Steps out;
  for (std::size_t v = 0; v < t.size(); ++v) {
    for (const auto& [round, inbox] : t[v]) out.emplace_back(static_cast<V>(v), round);
  }
  return out;
}

/// At 1, 2 and 3 shards: the run steps exactly `want` and matches the
/// model's transcript, and against the run that never sleeps every RunStats
/// field but work_items is equal -- active_per_round included -- while
/// work_items falls by one per skipped step.
void check(const Graph& g, const model::Probe& probe, const Steps& want) {
  constexpr int kCap = 32;
  const model::Run expected = model::interpret(g, probe, kCap);
  EXPECT_EQ(steps(expected.transcript), want) << "the model disagrees";
  for (const int shards : {1, 2, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    sim::Runtime rt(g, shards);
    const model::Run got = model::run_on(rt, probe, 0, kCap);
    EXPECT_TRUE(model::same_as_model(expected, got));
    EXPECT_EQ(steps(got.transcript), want);
    const model::Run plain = model::run_on(rt, awake(probe), 0, kCap);
    sim::RunStats stats = got.stats;
    stats.work_items = plain.stats.work_items;
    EXPECT_TRUE(stats == plain.stats) << "sleeping moved more than work_items";
    EXPECT_EQ(plain.stats.work_items - got.stats.work_items,
              steps(plain.transcript).size() - want.size());
  }
}

}  // namespace sleepers

TEST(Sleep, UntilMailSkipsStepsUntilAMessageArrives) {
  // Path 0-1-2. Vertex 1 sleeps until mail in round 1; vertex 0 speaks to
  // it in round 2 and halts, so vertex 1 is next stepped in round 3.
  sleepers::check(path_graph(3),
                  [](V v, int, int round, const model::Inbox& inbox) {
                    model::Action a;
                    if (round == 0) return a;
                    if (v == 0 && round == 2) {
                      a.broadcast = model::Words{7};
                      a.halt = true;
                    } else if (v == 1) {
                      if (inbox.empty()) a.sleep_until = sleepers::kMail;
                      else a.halt = true;
                    } else if (v == 2) {
                      a.halt = true;
                    }
                    return a;
                  },
                  {{0, 1}, {0, 2}, {1, 1}, {1, 3}, {2, 1}});
}

TEST(Sleep, TimedWakeStepsTheVertexInThatRound) {
  sleepers::check(path_graph(2),
                  [](V v, int, int round, const model::Inbox&) {
                    model::Action a;
                    if (round == 0) return a;
                    if (v == 1 || round == 4) a.halt = true;
                    else if (round == 1) a.sleep_until = 4;
                    return a;
                  },
                  {{0, 1}, {0, 4}, {1, 1}});
}

TEST(Sleep, SleepInBeginSkipsRoundOne) {
  // Vertex 0 sleeps until round 3 from begin() and speaks then; vertex 1
  // sleeps until mail from begin() and halts on it in round 4.
  sleepers::check(path_graph(2),
                  [](V v, int, int round, const model::Inbox& inbox) {
                    model::Action a;
                    if (v == 0) {
                      if (round == 0) a.sleep_until = 3;
                      if (round == 3) a.broadcast = model::Words{3};
                      if (round == 4) a.halt = true;
                    } else if (round == 0) {
                      a.sleep_until = sleepers::kMail;
                    } else if (!inbox.empty()) {
                      a.halt = true;
                    }
                    return a;
                  },
                  {{0, 3}, {0, 4}, {1, 4}});
}

TEST(Sleep, ResleepBeforeTheWakeUpFallsDue) {
  // Path 0-1-2. The ends sleep until round 5 from begin(); vertex 1's
  // round-1 broadcast wakes both in round 2. Vertex 0 re-sleeps until 7,
  // so its round-5 wake-up must not step it; vertex 2 re-sleeps until 5
  // again, and is stepped in round 5 exactly once.
  sleepers::check(path_graph(3),
                  [](V v, int, int round, const model::Inbox& inbox) {
                    model::Action a;
                    if (v == 0) {
                      if (round == 0) {
                        a.sleep_until = 5;
                      } else if (round == 7) {
                        a.broadcast = model::Words{0};
                        a.halt = true;
                      } else if (!inbox.empty()) {
                        a.sleep_until = 7;
                      }
                    } else if (v == 1) {
                      if (round == 1) {
                        a.broadcast = model::Words{1};
                        a.sleep_until = sleepers::kMail;
                      } else if (!inbox.empty()) {
                        a.halt = true;
                      }
                    } else {
                      if (round == 0 || (round < 5 && !inbox.empty())) {
                        a.sleep_until = 5;
                      } else if (round == 5) {
                        a.halt = true;
                      }
                    }
                    return a;
                  },
                  {{0, 2}, {0, 7}, {1, 1}, {1, 8}, {2, 2}, {2, 5}});
}

TEST(Sleep, SleepThenHaltLeavesNoWakeUpBehind) {
  // Path 0-1-2-3. Vertex 0 sleeps and halts in one step; vertex 1 sleeps
  // until round 6 and halts on vertex 2's round-2 broadcast, so its dead
  // round-6 wake-up surfaces while the phase still runs; vertex 3 is woken
  // early by the same broadcast and re-sleeps from round 4 to round 8.
  sleepers::check(path_graph(4),
                  [](V v, int, int round, const model::Inbox& inbox) {
                    model::Action a;
                    if (round == 0) return a;
                    if (v == 0) {
                      a.sleep_until = 3;
                      a.halt = true;
                    } else if (v == 1) {
                      if (round == 1) a.sleep_until = 6;
                      else if (!inbox.empty()) a.halt = true;
                    } else if (v == 2) {
                      if (round == 2) {
                        a.broadcast = model::Words{2};
                        a.halt = true;
                      }
                    } else if (round == 1) {
                      a.sleep_until = 4;
                    } else if (round == 8) {
                      a.halt = true;
                    } else if (!inbox.empty()) {
                      a.sleep_until = 8;
                    }
                    return a;
                  },
                  {{0, 1}, {1, 1}, {1, 3}, {2, 1}, {2, 2}, {3, 1}, {3, 3}, {3, 8}});
}

TEST(Sleep, EveryVertexAsleepWithNoMailStillHitsTheRoundCapAndTheWatchdog) {
  // Half the vertices sleep until mail, half until round 50, from begin();
  // nobody speaks. Sleeping is not halting: the phase runs into its round
  // cap, and an armed watchdog fires at the round it fires without sleep.
  const Graph g = cycle_graph(8);
  const model::Probe probe = [](V v, int, int round, const model::Inbox&) {
    model::Action a;
    if (round == 0) a.sleep_until = v % 2 == 0 ? sleepers::kMail : 50;
    return a;
  };
  for (const int shards : {1, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    sim::Runtime rt(g, shards);
    model::ProbeProgram prog(g.num_vertices(), probe, 0);
    EXPECT_THROW(rt.run_phase(prog, 10), invariant_error);
    EXPECT_EQ(sleepers::steps(prog.transcript()), sleepers::Steps{});

    int fired_at[2] = {-1, -1};
    for (const bool sleep : {true, false}) {
      model::ProbeProgram watched(g.num_vertices(),
                                  sleep ? probe : sleepers::awake(probe), 0);
      const sim::ScopedWatchdog watchdog(rt, 3);
      try {
        rt.run_phase(watched, 10);
      } catch (const sim::watchdog_error& e) {
        fired_at[sleep] = e.round;
      }
    }
    EXPECT_EQ(fired_at[1], 3);
    EXPECT_EQ(fired_at[1], fired_at[0]);
  }
}

TEST(Sleep, RandomSleepersMatchTheReferenceModelAtAnyShardCount) {
  // Both delivery modes, halts, early wake-ups and a timer heap that fills
  // up, against the model's transcript.
  for (const Graph& g : {random_near_regular(600, 6, 3), rmat_graph(9, 8, 5)}) {
    for (const std::uint64_t quiet : {4, 32}) {
      const model::Probe probe = sleepers::churn(quiet);
      const model::Run want = model::interpret(g, probe, 64);
      ASSERT_GT(want.stats.messages, 0u);
      for (const int shards : {1, 2, 5}) {
        SCOPED_TRACE("n=" + std::to_string(g.num_vertices()) + " quiet=" +
                     std::to_string(quiet) + " shards=" + std::to_string(shards));
        sim::Runtime rt(g, shards);
        EXPECT_TRUE(model::same_as_model(
            want, model::run_on(rt, probe, /*max_words=*/1, 64)));
      }
    }
  }
}

TEST(Sleep, SleepUntilANonFutureRoundIsAPreconditionError) {
  const Graph g = path_graph(2);
  const model::Probe probe = [](V, int, int round, const model::Inbox&) {
    model::Action a;
    a.sleep_until = round;
    return a;
  };
  sim::Runtime rt(g);
  model::ProbeProgram prog(g.num_vertices(), probe, 0);
  EXPECT_THROW(rt.run_phase(prog, 4), precondition_error);
}

namespace local_rule {

enum class Misuse { kSendTwice, kBroadcastTwice, kBroadcastThenSend,
                    kSendThenBroadcast };

/// Every vertex broadcasts in begin() and round 1, except that the culprit
/// breaks the LOCAL one-message-per-edge rule in the chosen way in round
/// `at` (0 = begin).
class Misuser : public sim::VertexProgram {
 public:
  Misuser(Misuse misuse, V culprit, int at)
      : misuse_(misuse), culprit_(culprit), at_(at) {}
  std::string name() const override { return "misuser"; }
  void begin(sim::Ctx& ctx) override { speak(ctx); }
  void step(sim::Ctx& ctx, const sim::Inbox&) override {
    if (ctx.round() > 1) {
      ctx.halt();
      return;
    }
    speak(ctx);
  }

 private:
  void speak(sim::Ctx& ctx) {
    if (ctx.vertex() != culprit_ || ctx.round() != at_) {
      ctx.broadcast({ctx.id()});
      return;
    }
    const int last = ctx.degree() - 1;
    switch (misuse_) {
      case Misuse::kSendTwice:
        ctx.send(last, {1});
        ctx.send(last, {2});
        break;
      case Misuse::kBroadcastTwice:
        ctx.broadcast({1});
        ctx.broadcast({2});
        break;
      case Misuse::kBroadcastThenSend:
        ctx.broadcast({1});
        ctx.send(last, {2});
        break;
      case Misuse::kSendThenBroadcast:
        ctx.send(last, {1});
        ctx.broadcast({2});
        break;
    }
  }
  Misuse misuse_;
  V culprit_;
  int at_;
};

}  // namespace local_rule

TEST(Runtime, SecondMessageOnAnEdgeDirectionThrowsInEveryDeliveryMode) {
  // The LOCAL model allows one message per edge direction per round. Port
  // sends and broadcasts travel different lanes; every way of sending twice
  // over one edge must throw, in begin() and in a step round.
  const Graph g = random_near_regular(256, 4, 47);
  const V culprit = g.num_vertices() / 2 + 1;
  ASSERT_GE(g.degree(culprit), 2);
  using local_rule::Misuse;
  for (const Misuse misuse :
       {Misuse::kSendTwice, Misuse::kBroadcastTwice,
        Misuse::kBroadcastThenSend, Misuse::kSendThenBroadcast}) {
    for (const int shards : {1, 4}) {
      for (const int at : {0, 1}) {
        SCOPED_TRACE("misuse=" + std::to_string(static_cast<int>(misuse)) +
                     " shards=" + std::to_string(shards) +
                     " round=" + std::to_string(at));
        sim::Runtime rt(g, shards);
        local_rule::Misuser prog(misuse, culprit, at);
        try {
          rt.run_phase(prog, 8);
          ADD_FAILURE() << "expected invariant_error";
        } catch (const invariant_error& e) {
          EXPECT_NE(std::string(e.what()).find("edge-direction"),
                    std::string::npos)
              << e.what();
        }
      }
    }
  }
}

// --- 5. CONGEST bandwidth accounting ---------------------------------------

namespace bw {

/// Sends `width` words on every port each round; declares `declared` as its
/// max_words contract (0 = undeclared).
class WideSender : public sim::VertexProgram {
 public:
  WideSender(int width, int declared, int rounds)
      : width_(width), declared_(declared), rounds_(rounds) {}
  std::string name() const override { return "wide-sender"; }
  int max_words() const override { return declared_; }
  void begin(sim::Ctx& ctx) override { blast(ctx); }
  void step(sim::Ctx& ctx, const sim::Inbox&) override {
    if (ctx.round() >= rounds_) ctx.halt();
    else blast(ctx);
  }

 private:
  void blast(sim::Ctx& ctx) {
    auto& payload = ctx.scratch();
    payload.assign(static_cast<std::size_t>(width_), 7);
    ctx.broadcast(std::span<const std::int64_t>(payload.data(),
                                                payload.size()));
  }
  int width_;
  int declared_;
  int rounds_;
};

}  // namespace bw

TEST(Runtime, MetersWordsPerRoundAndWidestMessage) {
  const Graph g = random_near_regular(512, 6, 9);
  sim::Runtime rt(g);
  bw::WideSender prog(/*width=*/3, /*declared=*/3, /*rounds=*/4);
  const sim::RunStats& stats = rt.run_phase(prog, 4 + sim::kRoundCapSlack);
  EXPECT_EQ(stats.max_msg_words, 3u);
  EXPECT_EQ(stats.words, stats.messages * 3);
  // Begin plus every round contributes one bandwidth sample; the series
  // sums to the total and the final round (halt, no sends) records 0.
  ASSERT_EQ(stats.words_per_round.size(),
            static_cast<std::size_t>(stats.rounds) + 1);
  std::uint64_t sum = 0;
  for (const std::uint64_t w : stats.words_per_round) sum += w;
  EXPECT_EQ(sum, stats.words);
  EXPECT_EQ(stats.words_per_round.back(), 0u);
  EXPECT_EQ(stats.words_per_round.front(),
            static_cast<std::uint64_t>(g.num_edges()) * 2 * 3);
}

TEST(Runtime, SessionBudgetViolationRaisesStructuredBandwidthError) {
  const Graph g = random_near_regular(256, 4, 11);
  for (const int shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    sim::Runtime rt(g, shards);
    rt.set_congest_words(2);
    bw::WideSender wide(/*width=*/3, /*declared=*/0, /*rounds=*/2);
    try {
      rt.run_phase(wide, 8);
      FAIL() << "expected bandwidth_error";
    } catch (const sim::bandwidth_error& e) {
      EXPECT_EQ(e.words, 3);
      EXPECT_EQ(e.cap, 2);
      EXPECT_EQ(e.round, 0);  // first violation is in begin()
      EXPECT_FALSE(e.from_contract);
      EXPECT_GE(e.vertex, 0);
      EXPECT_LT(e.vertex, g.num_vertices());
      EXPECT_GE(e.port, 0);
      EXPECT_LT(e.port, g.degree(e.vertex));
      EXPECT_NE(std::string(e.what()).find("congest_words"), std::string::npos);
    }
    // The session survives: a compliant phase runs clean afterwards.
    bw::WideSender ok(/*width=*/2, /*declared=*/2, /*rounds=*/2);
    EXPECT_NO_THROW(rt.run_phase(ok, 8));
    // A bandwidth_error is also an invariant_error (catchable generically).
    rt.set_congest_words(1);
    bw::WideSender wide2(/*width=*/2, /*declared=*/0, /*rounds=*/1);
    EXPECT_THROW(rt.run_phase(wide2, 8), invariant_error);
  }
}

TEST(Runtime, DeclaredContractIsEnforcedEvenWithoutASessionBudget) {
  // A program that under-declares its width must fail on EVERY run -- the
  // contract is self-enforcing, not just checked under a budget.
  const Graph g = random_near_regular(256, 4, 13);
  sim::Runtime rt(g);
  ASSERT_EQ(rt.congest_words(), 0);  // LOCAL session
  bw::WideSender lying(/*width=*/3, /*declared=*/2, /*rounds=*/2);
  try {
    rt.run_phase(lying, 8);
    FAIL() << "expected bandwidth_error";
  } catch (const sim::bandwidth_error& e) {
    EXPECT_TRUE(e.from_contract);
    EXPECT_EQ(e.cap, 2);
    EXPECT_EQ(e.words, 3);
    EXPECT_NE(std::string(e.what()).find("max_words"), std::string::npos);
  }
  // The tighter of contract and budget wins in both directions.
  rt.set_congest_words(1);
  bw::WideSender wide(/*width=*/2, /*declared=*/3, /*rounds=*/1);
  try {
    rt.run_phase(wide, 8);
    FAIL() << "expected bandwidth_error";
  } catch (const sim::bandwidth_error& e) {
    EXPECT_FALSE(e.from_contract);
    EXPECT_EQ(e.cap, 1);
  }
}

namespace bw {

/// Broadcasts one word per round; in round `wide_round` every vertex with
/// id % 7 == 3 broadcasts `width` words instead. Halts after round 3.
class LateWideBroadcast : public sim::VertexProgram {
 public:
  LateWideBroadcast(int width, int declared, int wide_round)
      : width_(width), declared_(declared), wide_round_(wide_round) {}
  std::string name() const override { return "late-wide-broadcast"; }
  int max_words() const override { return declared_; }
  void begin(sim::Ctx& ctx) override { speak(ctx); }
  void step(sim::Ctx& ctx, const sim::Inbox&) override {
    if (ctx.round() >= 3) {
      ctx.halt();
      return;
    }
    speak(ctx);
  }

 private:
  void speak(sim::Ctx& ctx) {
    auto& payload = ctx.scratch();
    const bool wide = ctx.round() == wide_round_ && ctx.id() % 7 == 3;
    payload.assign(wide ? static_cast<std::size_t>(width_) : 1, ctx.id());
    ctx.broadcast(std::span<const std::int64_t>(payload.data(),
                                                payload.size()));
  }
  int width_;
  int declared_;
  int wide_round_;
};

struct Violation {
  V vertex = -1;
  int port = -1;
  int round = -1;
  std::int64_t words = 0;
  std::int64_t cap = 0;
  bool from_contract = false;
  friend bool operator==(const Violation&, const Violation&) = default;
};

/// Runs `prog` and returns the bandwidth_error's fields (vertex -1 when the
/// phase did not throw one).
Violation run_for_violation(const Graph& g, sim::VertexProgram& prog,
                            int shards, int congest_words) {
  sim::Runtime rt(g, shards);
  rt.set_congest_words(congest_words);
  try {
    rt.run_phase(prog, 8);
  } catch (const sim::bandwidth_error& e) {
    return {e.vertex, e.port, e.round, e.words, e.cap, e.from_contract};
  }
  return {};
}

}  // namespace bw

TEST(Runtime, OverCapBroadcastRaisesTheSameStructuredErrorInEveryDeliveryMode) {
  // A broadcast is metered once, as a send on port 0, at any shard count:
  // every run reports the same vertex, port, round, width, cap and cap
  // source.
  const Graph g = random_near_regular(256, 4, 53);
  for (const bool contract : {false, true}) {
    bw::LateWideBroadcast prog(/*width=*/3, /*declared=*/contract ? 2 : 0,
                               /*wide_round=*/2);
    const bw::Violation want =
        bw::run_for_violation(g, prog, /*shards=*/1, contract ? 0 : 2);
    EXPECT_EQ(want.port, 0);
    EXPECT_EQ(want.round, 2);
    EXPECT_EQ(want.words, 3);
    EXPECT_EQ(want.cap, 2);
    EXPECT_EQ(want.from_contract, contract);
    EXPECT_EQ(want.vertex % 7, 2);  // id = vertex + 1
    SCOPED_TRACE("contract=" + std::to_string(contract));
    EXPECT_EQ(bw::run_for_violation(g, prog, /*shards=*/4, contract ? 0 : 2),
              want);
  }
}

TEST(Runtime, OverCapBroadcastFromAnIsolatedVertexSendsNothing) {
  // A degree-0 broadcast is a no-op: no message, hence nothing to meter.
  // Vertices 0 and 4..7 are isolated here.
  const Graph g = Graph::from_edges(8, {{1, 2}, {2, 3}});
  struct IsolatedWide : sim::VertexProgram {
    std::string name() const override { return "isolated-wide"; }
    void begin(sim::Ctx& ctx) override {
      if (ctx.degree() == 0) {
        ctx.broadcast({1, 2, 3, 4, 5});
      } else {
        ctx.broadcast({ctx.id()});
      }
    }
    void step(sim::Ctx& ctx, const sim::Inbox&) override { ctx.halt(); }
  };
  IsolatedWide prog;
  EXPECT_EQ(bw::run_for_violation(g, prog, /*shards=*/2, /*congest_words=*/2),
            bw::Violation{});
  sim::Runtime rt(g);
  rt.set_congest_words(2);
  const sim::RunStats& stats = rt.run_phase(prog, 4);
  EXPECT_EQ(stats.messages, 4u);  // degrees 1 + 2 + 1
  EXPECT_EQ(stats.max_msg_words, 1u);
}

TEST(Runtime, PaperPipelineRunsUnderItsDeclaredCongestBudget) {
  // Every paper-path program passes under the finite session budget
  // matching the widest declared contract; the observed widths match the
  // declarations exactly at the pipeline level.
  const Graph g = planted_arboricity(1 << 10, 8, 5);
  sim::Runtime rt(g);
  rt.set_congest_words(kCongestWordsPaperPath);
  const LegalColoringResult res = color_graph(rt, 8, Preset::PolylogTime);
  EXPECT_TRUE(is_legal_coloring(g, res.colors));
  EXPECT_LE(res.total.max_msg_words,
            static_cast<std::uint32_t>(kCongestWordsPaperPath));
  EXPECT_GT(res.total.max_msg_words, 0u);
}

// --- Shard partition (DESIGN.md, "Sharded execution") ---------------------

TEST(Runtime, ShardBoundariesAreContiguousCostBalancedAndPure) {
  constexpr std::int64_t kCost = sim::Runtime::kVertexCost;
  struct Case {
    std::string name;
    Graph g;
  };
  std::vector<Case> cases;
  cases.push_back({"empty", Graph::from_edges(0, {})});
  cases.push_back({"fewer vertices than shards", path_graph(3)});
  cases.push_back({"star (hub holds half the slots)", star_graph(1000)});
  cases.push_back({"all isolated", Graph::from_edges(100, {})});
  cases.push_back({"rmat", rmat_graph(12, 8, 3)});
  for (const Case& c : cases) {
    const V n = c.g.num_vertices();
    std::int64_t total = 0, max_cost = 0;
    for (V v = 0; v < n; ++v) {
      total += c.g.degree(v) + kCost;
      max_cost = std::max<std::int64_t>(max_cost, c.g.degree(v) + kCost);
    }
    for (const int shards : {1, 2, 3, 4, 8, 64}) {
      SCOPED_TRACE(c.name + ", shards=" + std::to_string(shards));
      const sim::Runtime rt(c.g, shards);
      const auto b = rt.shard_bounds();
      const std::int64_t s = rt.shards();
      ASSERT_EQ(b.size(), static_cast<std::size_t>(s) + 1);
      EXPECT_EQ(b.front(), 0);
      EXPECT_EQ(b.back(), n);
      EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));
      // A pure function of (graph, shard count): a second session, threaded
      // or inline, cuts at the same vertices.
      const sim::Runtime again(c.g, shards, /*inline_shards=*/true);
      EXPECT_TRUE(std::ranges::equal(b, again.shard_bounds()));
      for (std::int64_t i = 0; i < s; ++i) {
        const auto first = b[static_cast<std::size_t>(i)];
        const auto last = b[static_cast<std::size_t>(i) + 1];
        if (n >= s) EXPECT_LT(first, last) << "shard " << i << " is empty";
        std::int64_t cost = 0;
        for (V v = first; v < last; ++v) cost += c.g.degree(v) + kCost;
        // |cost - total / s| <= max_cost, kept in integers.
        EXPECT_LE(std::abs(cost * s - total), max_cost * s)
            << "shard " << i << " costs " << cost << " of " << total;
      }
    }
  }
}

// --- 5. PhaseLog tree consistency ------------------------------------------

TEST(PhaseLog, SpansAggregateTheirDirectChildren) {
  const Graph g = planted_arboricity(1 << 10, 8, 9);
  sim::Runtime rt(g);
  const LegalColoringResult res = color_graph(rt, 8, Preset::PolylogTime);
  const sim::PhaseLog& log = rt.log();
  ASSERT_GT(log.size(), 0u);
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (!log[i].span) continue;
    std::int64_t rounds = 0;
    std::uint64_t messages = 0;
    std::uint32_t max_msg_words = 0;
    for (std::size_t j = i + 1; j < log.subtree_end(i);
         j = log.subtree_end(j)) {
      rounds += log[j].rounds;
      messages += log[j].messages;
      max_msg_words = std::max(max_msg_words, log[j].max_msg_words);
    }
    EXPECT_EQ(rounds, log[i].rounds) << "span " << log.name(i);
    EXPECT_EQ(messages, log[i].messages) << "span " << log.name(i);
    EXPECT_EQ(max_msg_words, log[i].max_msg_words) << "span " << log.name(i);
  }
  // The result's slice equals the session log here (one call on a fresh
  // session), slicing from 0 is the identity, and top-level entries compose
  // to the run total.
  EXPECT_TRUE(res.phases == log.slice(0));
  EXPECT_TRUE(log.slice(0) == log);
  const sim::RunStats total = res.phases.total();
  EXPECT_EQ(total.rounds, res.total.rounds);
  EXPECT_EQ(total.messages, res.total.messages);
}

TEST(PhaseLog, ResultProfileMatchesLogTimeline) {
  // Composed drivers fold sub-procedure stats in execution order, so the
  // result's active_per_round profile equals the concatenation of the log's
  // leaves. TradeoffAT exercises the deepest composition (arb-kuhn
  // decomposition before the inner Legal-Coloring).
  const Graph g = planted_arboricity(1 << 10, 8, 13);
  sim::Runtime rt(g);
  const LegalColoringResult res = color_graph(rt, 8, Preset::TradeoffAT);
  EXPECT_EQ(res.phases.total().active_per_round, res.total.active_per_round);
}

TEST(PhaseLog, SessionLogSurvivesAThrowingPipeline) {
  // A round-cap throw mid-pipeline (arboricity bound below the true value)
  // must unwind every open span, leaving the session reusable: later phases
  // record at depth 0 -- a leaked span would leave them nested.
  const Graph g = complete_graph(32);
  sim::Runtime rt(g);
  EXPECT_THROW(color_graph(rt, 2, Preset::LinearColors), invariant_error);
  const std::size_t mark = rt.log().size();
  h_partition(rt, 31);
  ASSERT_EQ(rt.log().size(), mark + 1);
  EXPECT_EQ(rt.log()[mark].depth, 0) << "a span leaked across the throw";
  const LegalColoringResult res = color_graph(rt, 31, Preset::LinearColors);
  EXPECT_TRUE(is_legal_coloring(g, res.colors));
  const sim::RunStats total = res.phases.total();
  EXPECT_EQ(total.rounds, res.total.rounds);
  EXPECT_EQ(total.messages, res.total.messages);
}

TEST(PhaseLog, SliceRebasesDepthAndPreservesNames) {
  const Graph g = planted_arboricity(512, 4, 11);
  sim::Runtime rt(g);
  h_partition(rt, 4);  // entry 0, not part of the slice
  const std::size_t mark = rt.log().size();
  {
    const sim::PhaseSpan span(rt, "outer");
    h_partition(rt, 4);
  }
  const sim::PhaseLog sliced = rt.log().slice(mark);
  ASSERT_EQ(sliced.size(), 2u);
  EXPECT_EQ(sliced.name(0), "outer");
  EXPECT_TRUE(sliced[0].span);
  EXPECT_EQ(sliced[0].depth, 0);
  EXPECT_EQ(sliced.name(1), "h-partition");
  EXPECT_EQ(sliced[1].depth, 1);
  EXPECT_EQ(sliced[0].rounds, sliced[1].rounds);
  // Slicing is self-similar: re-slicing from 0 is the identity.
  EXPECT_TRUE(sliced.slice(0) == sliced);
}

}  // namespace
}  // namespace dvc
