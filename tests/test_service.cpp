// Service-layer suite: the contract that matters here is DETERMINISM UNDER
// CONCURRENCY -- a job's colors, RunStats and PhaseLog must be bit-identical
// whether the job runs solo on a fresh session or under multi-worker load on
// a warm pooled session, at every shard count. Plus the operational
// surface: graph interning, bounded-queue backpressure, drain-under-load,
// graceful shutdown, and poisoned-job isolation (a throwing job fails only
// itself; the session it ran on goes back to the pool and keeps serving
// bit-identical results).
//
// This file is the `service` ctest label and runs under ThreadSanitizer in
// CI (see .github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "core/api.hpp"
#include "graph/coloring.hpp"
#include "graph/generators.hpp"
#include "service/graph_store.hpp"
#include "service/job_queue.hpp"
#include "service/service.hpp"
#include "determinism_oracle.hpp"

namespace dvc::service {
namespace {

struct Mixed {
  const char* name;
  Graph g;
  int arboricity_bound;
};

const std::vector<Mixed>& mixed_graphs() {
  static const std::vector<Mixed> graphs = [] {
    std::vector<Mixed> out;
    out.push_back({"planted", planted_arboricity(600, 4, 1), 4});
    out.push_back({"ba", barabasi_albert(500, 3, 2), 3});
    out.push_back({"near_regular", random_near_regular(320, 8, 3), 8});
    return out;
  }();
  return graphs;
}

/// The full solo-run expectation matrix: graphs x presets x shard counts,
/// each computed on a fresh single-purpose session via the direct API.
struct Expected {
  std::size_t graph_idx;
  Preset preset;
  int shards;
  LegalColoringResult solo;
};

std::vector<Expected> solo_matrix(const std::vector<int>& shard_counts) {
  std::vector<Expected> expected;
  for (std::size_t gi = 0; gi < mixed_graphs().size(); ++gi) {
    const Mixed& m = mixed_graphs()[gi];
    for (int p = 0; p < kNumPresets; ++p) {
      const auto preset = static_cast<Preset>(p);
      for (const int shards : shard_counts) {
        Knobs knobs;
        knobs.shards = shards;
        Expected e{gi, preset, shards,
                   color_graph(m.g, m.arboricity_bound, preset, knobs)};
        expected.push_back(std::move(e));
      }
    }
  }
  return expected;
}

// ---------------------------------------------------------------------------
// BoundedQueue

TEST(BoundedQueue, FifoAndBackpressure) {
  BoundedQueue<int> q(3);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_TRUE(q.try_push(3));
  EXPECT_FALSE(q.try_push(4)) << "queue at capacity must refuse";
  EXPECT_EQ(q.size(), 3u);
  int out = 0;
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.try_push(4));
  for (const int want : {2, 3, 4}) {
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(out, want);
  }
}

TEST(BoundedQueue, CloseDrainsThenFails) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.push(7));
  EXPECT_TRUE(q.push(8));
  q.close();
  EXPECT_FALSE(q.push(9)) << "closed queue must refuse new items";
  EXPECT_FALSE(q.try_push(9));
  int out = 0;
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 7);
  EXPECT_TRUE(q.pop(out)) << "queued items keep flowing after close";
  EXPECT_EQ(out, 8);
  EXPECT_FALSE(q.pop(out)) << "closed and drained";
}

TEST(BoundedQueue, PushBulkKeepsOrderAcrossWraparound) {
  BoundedQueue<int> q(4);
  // Consumer thread drains slowly; bulk push must block for space and keep
  // order while the ring wraps several times.
  std::vector<int> items;
  for (int i = 0; i < 32; ++i) items.push_back(i);
  std::vector<int> got;
  std::thread consumer([&] {
    int out = 0;
    while (q.pop(out)) got.push_back(out);
  });
  EXPECT_EQ(q.push_bulk(std::move(items)), 32u);
  q.close();
  consumer.join();
  ASSERT_EQ(got.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

TEST(BoundedQueue, MpmcStress) {
  BoundedQueue<int> q(8);
  constexpr int kProducers = 4, kConsumers = 4, kPerProducer = 250;
  std::atomic<long long> sum{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.push(p * kPerProducer + i));
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      int out = 0;
      while (q.pop(out)) {
        sum.fetch_add(out);
        popped.fetch_add(1);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[static_cast<std::size_t>(p)].join();
  q.close();
  for (std::size_t t = kProducers; t < threads.size(); ++t) threads[t].join();
  const long long total = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), total);
  EXPECT_EQ(sum.load(), total * (total - 1) / 2);
}

// ---------------------------------------------------------------------------
// GraphStore / Graph::digest interning

TEST(GraphStore, InternSharesOneBindingPerTopology) {
  GraphStore store;
  const Graph g1 = planted_arboricity(300, 4, 7);
  const Graph g2 = planted_arboricity(300, 4, 7);  // same topology, new object
  const GraphRef a = store.intern(g1);
  const GraphRef b = store.intern(g2);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.graph.get(), b.graph.get()) << "same binding, not a copy";
  EXPECT_EQ(store.misses(), 1u);
  EXPECT_EQ(store.hits(), 1u);

  const GraphRef c = store.intern(planted_arboricity(300, 4, 8));  // new seed
  EXPECT_EQ(store.size(), 2u);
  EXPECT_NE(c.digest, a.digest);
}

TEST(GraphStore, FindAndEvictLeaveRefsValid) {
  GraphStore store;
  const GraphRef a = store.intern(cycle_graph(64));
  EXPECT_TRUE(store.find(a.digest));
  EXPECT_TRUE(store.evict(a.digest));
  EXPECT_FALSE(store.find(a.digest));
  EXPECT_FALSE(store.evict(a.digest));
  // The outstanding ref still owns the graph.
  EXPECT_EQ(a->num_vertices(), 64);
  EXPECT_EQ(store.size(), 0u);
}

// ---------------------------------------------------------------------------
// Concurrent determinism -- the tentpole contract

TEST(ServiceDeterminism, ConcurrentLoadMatchesSoloRunsAtEveryShardCount) {
  const std::vector<int> shard_counts = {1, 2, 8};
  const std::vector<Expected> expected = solo_matrix(shard_counts);

  ServiceConfig config;
  config.workers = 8;
  config.queue_capacity = 64;
  config.max_idle_sessions_per_key = 2;
  ColoringService svc(config);

  std::vector<GraphRef> refs;
  for (const Mixed& m : mixed_graphs()) refs.push_back(svc.intern(m.g));

  // 4 submitter threads x the full matrix, against 8 workers: >= 8-way
  // execution concurrency plus submission concurrency, every preset and
  // shard count in flight at once.
  constexpr int kSubmitters = 4;
  std::vector<std::vector<JobTicket>> tickets(kSubmitters);
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (const Expected& e : expected) {
        JobSpec spec;
        spec.graph = refs[e.graph_idx];
        spec.arboricity_bound = mixed_graphs()[e.graph_idx].arboricity_bound;
        spec.preset = e.preset;
        spec.knobs.shards = e.shards;
        tickets[static_cast<std::size_t>(s)].push_back(svc.submit(spec));
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  svc.drain();

  for (int s = 0; s < kSubmitters; ++s) {
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const Expected& e = expected[i];
      const JobResult res = svc.wait(tickets[static_cast<std::size_t>(s)][i]);
      EXPECT_TRUE(dvc_test::bit_identical(e.solo, res))
          << mixed_graphs()[e.graph_idx].name << "/" << preset_name(e.preset)
          << "/shards=" << e.shards << "/submitter=" << s;
      EXPECT_EQ(res.shards, e.shards);
      EXPECT_EQ(res.graph_digest, refs[e.graph_idx].digest);
    }
  }
  // Sanity on the serving machinery itself: warm reuse actually happened.
  const SessionPool::Stats pool = svc.pool_stats();
  EXPECT_GT(pool.warm_hits, 0u);
  EXPECT_EQ(pool.acquires, pool.warm_hits + pool.cold_builds);
}

TEST(ServiceDeterminism, FacadeMatchesDirectApi) {
  ColoringService svc(ServiceConfig{.workers = 2});
  const Graph g = planted_arboricity(500, 4, 11);
  for (const Preset preset : {Preset::NearLinearColors, Preset::PolylogTime}) {
    const LegalColoringResult via = color_graph(svc, g, 4, preset);
    const LegalColoringResult direct = color_graph(g, 4, preset);
    EXPECT_TRUE(dvc_test::bit_identical(direct, via)) << preset_name(preset);
  }
  // The facade interned the topology once; the repeat call hit the store.
  EXPECT_EQ(svc.store().size(), 1u);
  EXPECT_GE(svc.store().hits() + svc.store().misses(), 1u);
}

// ---------------------------------------------------------------------------
// Operational surface

TEST(Service, QueueFullBackpressure) {
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 2;
  config.start_paused = true;  // workers gated: nothing drains
  ColoringService svc(config);
  const GraphRef g = svc.intern(planted_arboricity(200, 3, 5));

  JobSpec spec;
  spec.graph = g;
  spec.arboricity_bound = 3;
  spec.preset = Preset::NearLinearColors;

  std::vector<JobTicket> accepted;
  // The gated queue accepts exactly `queue_capacity` jobs, then refuses.
  std::optional<JobTicket> t;
  while ((t = svc.try_submit(spec)).has_value()) {
    accepted.push_back(*t);
    ASSERT_LE(accepted.size(), config.queue_capacity) << "backpressure missing";
  }
  EXPECT_EQ(accepted.size(), config.queue_capacity);
  EXPECT_EQ(svc.queued(), config.queue_capacity);
  EXPECT_FALSE(svc.try_submit(spec).has_value());

  // poll() on a queued-but-unstarted job: not ready, and non-consuming.
  EXPECT_FALSE(svc.poll(accepted[0]).has_value());

  svc.resume();
  svc.drain();
  for (const JobTicket ticket : accepted) {
    const JobResult res = svc.wait(ticket);
    EXPECT_TRUE(res.ok) << res.error;
  }
  // With the gate open and the queue drained, submission works again.
  EXPECT_TRUE(svc.try_submit(spec).has_value());
  svc.drain();
}

TEST(Service, DrainUnderLoad) {
  ServiceConfig config;
  config.workers = 4;
  config.queue_capacity = 16;  // smaller than the burst: submit must block
  ColoringService svc(config);
  const GraphRef g = svc.intern(barabasi_albert(400, 3, 6));

  constexpr int kJobs = 48;
  std::vector<JobSpec> burst;
  for (int i = 0; i < kJobs; ++i) {
    JobSpec spec;
    spec.graph = g;
    spec.arboricity_bound = 3;
    spec.preset = static_cast<Preset>(i % kNumPresets);
    burst.push_back(std::move(spec));
  }
  const std::vector<JobTicket> tickets = svc.submit_batch(std::move(burst));
  ASSERT_EQ(tickets.size(), static_cast<std::size_t>(kJobs));
  svc.drain();
  EXPECT_EQ(svc.completed(), static_cast<std::uint64_t>(kJobs));
  // After drain, every result is immediately available via poll.
  for (const JobTicket t : tickets) {
    const auto res = svc.poll(t);
    ASSERT_TRUE(res.has_value());
    EXPECT_TRUE(res->ok) << res->error;
  }
}

TEST(Service, PoisonedJobFailsAloneAndSessionStaysServing) {
  const Mixed& m = mixed_graphs()[2];  // near-regular d=8, true arboricity > 1
  Knobs solo_knobs;
  solo_knobs.shards = 1;
  const LegalColoringResult solo =
      color_graph(m.g, m.arboricity_bound, Preset::NearLinearColors, solo_knobs);

  ServiceConfig config;
  config.workers = 1;  // serialize: poison and repair share ONE session
  // The round-4 repeat must actually RUN on the pooled session (that is the
  // point of this test), not be answered from the result cache.
  config.result_cache_capacity = 0;
  ColoringService svc(config);
  const GraphRef g = svc.intern(m.g);

  JobSpec good;
  good.graph = g;
  good.arboricity_bound = m.arboricity_bound;
  good.preset = Preset::NearLinearColors;

  // Round 1: a clean job warms the session.
  const JobResult first = svc.wait(svc.submit(good));
  EXPECT_TRUE(dvc_test::bit_identical(solo, first)) << "pre-poison";

  // Round 2: an arboricity bound below the truth throws mid-pipeline.
  JobSpec poison = good;
  poison.arboricity_bound = 1;
  const JobResult failed = svc.wait(svc.submit(poison));
  EXPECT_FALSE(failed.ok);
  EXPECT_FALSE(failed.error.empty());
  EXPECT_NE(failed.error.find("h-partition"), std::string::npos)
      << "error should carry the structured invariant text, got: "
      << failed.error;

  // Round 3: a precondition failure (bound 0) is also captured per-job.
  JobSpec invalid = good;
  invalid.arboricity_bound = 0;
  const JobResult rejected = svc.wait(svc.submit(invalid));
  EXPECT_FALSE(rejected.ok);
  EXPECT_FALSE(rejected.error.empty());

  // Round 4: the SAME warm session serves the clean job bit-identically --
  // the failures poisoned neither the pool nor the session state.
  const JobResult after = svc.wait(svc.submit(good));
  EXPECT_TRUE(after.warm_session)
      << "expected the post-poison job to reuse the pooled session";
  EXPECT_TRUE(dvc_test::bit_identical(solo, after)) << "post-poison";
}

TEST(Service, BatchTicketsComeBackInOrder) {
  ServiceConfig config;
  config.workers = 2;
  ColoringService svc(config);
  const GraphRef g = svc.intern(planted_arboricity(300, 4, 13));
  std::vector<JobSpec> specs;
  std::vector<Preset> want;
  for (int i = 0; i < 12; ++i) {
    JobSpec spec;
    spec.graph = g;
    spec.arboricity_bound = 4;
    spec.preset = static_cast<Preset>(i % kNumPresets);
    want.push_back(spec.preset);
    specs.push_back(std::move(spec));
  }
  const std::vector<JobTicket> tickets = svc.submit_batch(std::move(specs));
  ASSERT_EQ(tickets.size(), want.size());
  for (std::size_t i = 0; i + 1 < tickets.size(); ++i) {
    EXPECT_LT(tickets[i].id, tickets[i + 1].id) << "tickets must be ordered";
  }
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const JobResult res = svc.wait(tickets[i]);
    EXPECT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.preset, want[i]) << "result " << i << " out of order";
  }
}

TEST(Service, ShutdownIsGracefulAndIdempotent) {
  ServiceConfig config;
  config.workers = 2;
  ColoringService svc(config);
  const GraphRef g = svc.intern(planted_arboricity(400, 4, 17));
  std::vector<JobTicket> tickets;
  for (int i = 0; i < 8; ++i) {
    JobSpec spec;
    spec.graph = g;
    spec.arboricity_bound = 4;
    spec.preset = Preset::LinearColors;
    tickets.push_back(svc.submit(spec));
  }
  svc.shutdown();
  svc.shutdown();  // idempotent
  // Every accepted job ran to completion before the workers exited.
  for (const JobTicket t : tickets) {
    const auto res = svc.poll(t);
    ASSERT_TRUE(res.has_value()) << "graceful shutdown must finish the queue";
    EXPECT_TRUE(res->ok) << res->error;
  }
  JobSpec late;
  late.graph = g;
  late.arboricity_bound = 4;
  EXPECT_THROW(svc.submit(late), precondition_error);
  EXPECT_THROW(svc.try_submit(late), precondition_error);
  EXPECT_THROW(svc.submit_batch({late}), precondition_error);
}

TEST(ServiceDeathTest, FailedWorkerSpawnThrowsInsteadOfTerminating) {
  if (dvc_test::kShadowSanitizer) {
    GTEST_SKIP() << "ASan/TSan shadow memory defeats an address-space cap";
  }
  // The worker pool's third or so thread fails to spawn; the constructor
  // must join the workers already running and rethrow, not std::terminate.
  ServiceConfig config;
  config.workers = 16;
  EXPECT_EXIT(
      {
        dvc_test::cap_address_space_near_two_thread_stacks();
        try {
          ColoringService svc(config);
        } catch (const std::system_error&) {
          _exit(0);
        }
        _exit(3);  // every worker spawned: the cap did not bite
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(Service, EveryEntryPointRejectsAnInvalidSpecAndAdmitsNothing) {
  // One validation for submit, try_submit and submit_batch. A batch is
  // checked whole before any of its specs is admitted, so a valid spec
  // ahead of the invalid one must not leak into the counters or the queue.
  ServiceConfig config;
  config.workers = 1;
  config.start_paused = true;  // an admitted job would stay queued
  ColoringService svc(config);
  JobSpec good;
  good.graph = svc.intern(planted_arboricity(150, 3, 59));
  good.arboricity_bound = 3;
  std::vector<std::pair<const char*, JobSpec>> invalid(4, {"", good});
  invalid[0].first = "null graph";
  invalid[0].second.graph = GraphRef{};
  invalid[1].first = "negative deadline";
  invalid[1].second.deadline_ms = -1.0;
  invalid[2].first = "negative dist.workers";
  invalid[2].second.dist.workers = -1;
  invalid[3].first = "negative dist.kill_attempt";
  invalid[3].second.dist.kill_attempt = -1;
  for (const auto& [field, bad] : invalid) {
    SCOPED_TRACE(field);
    EXPECT_THROW(svc.submit(bad), precondition_error);
    EXPECT_THROW(svc.try_submit(bad), precondition_error);
    EXPECT_THROW(svc.submit_batch({good, bad}), precondition_error);
    EXPECT_EQ(svc.submitted(), 0u);
    EXPECT_EQ(svc.queued(), 0u);
  }
}

TEST(Service, RejectedBatchLeavesDrainConverging) {
  // A valid spec ahead of an invalid one in a rejected batch must not stay
  // counted as submitted: it never reaches the queue, so drain() would wait
  // for it forever.
  ServiceConfig config;
  config.workers = 1;
  ColoringService svc(config);
  JobSpec good;
  good.graph = svc.intern(planted_arboricity(150, 3, 61));
  good.arboricity_bound = 3;
  JobSpec bad = good;
  bad.deadline_ms = -1.0;
  EXPECT_THROW(svc.submit_batch({good, bad}), precondition_error);
  EXPECT_EQ(svc.submitted(), 0u);
  EXPECT_EQ(svc.queued(), 0u);
  auto drained = std::async(std::launch::async, [&] { svc.drain(); });
  const bool returned = drained.wait_for(std::chrono::seconds(30)) ==
                        std::future_status::ready;
  // A hung drain waits for one completion: give it one, then fail.
  if (!returned) svc.wait(svc.submit(good));
  drained.get();
  EXPECT_TRUE(returned) << "drain() hung after a rejected batch";
}

TEST(Service, TicketValidation) {
  ColoringService svc(ServiceConfig{.workers = 1});
  EXPECT_THROW(svc.wait(JobTicket{}), precondition_error);
  EXPECT_THROW(svc.wait(JobTicket{999}), precondition_error);
  EXPECT_THROW(svc.poll(JobTicket{999}), precondition_error);
}

TEST(Service, DoubleClaimThrowsInsteadOfDeadlocking) {
  ColoringService svc(ServiceConfig{.workers = 1});
  const GraphRef g = svc.intern(planted_arboricity(200, 3, 19));
  JobSpec spec;
  spec.graph = g;
  spec.arboricity_bound = 3;
  const JobTicket a = svc.submit(spec);
  const JobTicket b = svc.submit(spec);
  EXPECT_TRUE(svc.wait(a).ok);
  EXPECT_THROW(svc.wait(a), precondition_error) << "wait after wait";
  EXPECT_THROW(svc.poll(a), precondition_error) << "poll after wait";
  svc.drain();
  ASSERT_TRUE(svc.poll(b).has_value());
  EXPECT_THROW(svc.wait(b), precondition_error) << "wait after poll";
}

TEST(Service, GlobalIdleSessionCapBoundsThePool) {
  ServiceConfig config;
  config.workers = 2;
  config.max_idle_sessions_per_key = 2;
  config.max_idle_sessions_total = 2;  // tighter than keys x per-key
  ColoringService svc(config);
  // Distinct topologies x shard counts: far more session keys than the cap.
  std::vector<JobTicket> tickets;
  for (int k = 0; k < 4; ++k) {
    const GraphRef g =
        svc.intern(planted_arboricity(200 + 10 * k, 3, 23 + k));
    for (const int shards : {1, 2}) {
      JobSpec spec;
      spec.graph = g;
      spec.arboricity_bound = 3;
      spec.knobs.shards = shards;
      tickets.push_back(svc.submit(spec));
    }
  }
  svc.drain();
  for (const JobTicket t : tickets) EXPECT_TRUE(svc.wait(t).ok);
  const SessionPool::Stats pool = svc.pool_stats();
  EXPECT_LE(pool.idle_sessions,
            static_cast<std::size_t>(config.max_idle_sessions_total));
  EXPECT_GT(pool.evictions, 0u) << "8 keys through a 2-session pool must evict";
}

// ---------------------------------------------------------------------------
// PR 8: policy surface -- config validation, priority lanes, cancellation,
// deadlines, admission shedding, result cache, metrics.

TEST(BoundedQueue, LanesServeHighestPriorityFirst) {
  BoundedQueue<int, 3> q(8);
  // Interleave pushes across lanes; pop must serve lane 0, then 1, then 2,
  // FIFO within each lane, regardless of arrival order.
  EXPECT_TRUE(q.push(20, 2));
  EXPECT_TRUE(q.push(10, 1));
  EXPECT_TRUE(q.push(0, 0));
  EXPECT_TRUE(q.push(21, 2));
  EXPECT_TRUE(q.push(1, 0));
  EXPECT_TRUE(q.push(11, 1));
  const auto sizes = q.lane_sizes();
  EXPECT_EQ(sizes[0], 2u);
  EXPECT_EQ(sizes[1], 2u);
  EXPECT_EQ(sizes[2], 2u);
  int out = 0;
  for (const int want : {0, 1, 10, 11, 20, 21}) {
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(out, want);
  }
  EXPECT_THROW(q.push(5, 3), precondition_error) << "lane out of range";
  EXPECT_THROW(q.push(5, -1), precondition_error);
}

TEST(BoundedQueue, PushBulkRoutesLanesByItem) {
  BoundedQueue<int, 2> q(16);
  std::vector<int> items = {1, 100, 2, 101, 3};
  // Odd hundreds go to the low lane, the rest ride lane 0.
  EXPECT_EQ(q.push_bulk(std::move(items),
                        [](const int v) { return v >= 100 ? 1 : 0; }),
            5u);
  int out = 0;
  for (const int want : {1, 2, 3, 100, 101}) {
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(out, want);
  }
}

TEST(Service, ConfigValidationRejectsNonsense) {
  EXPECT_THROW(ColoringService(ServiceConfig{.workers = 0}),
               precondition_error);
  EXPECT_THROW(ColoringService(ServiceConfig{.workers = -3}),
               precondition_error);
  EXPECT_THROW(ColoringService(ServiceConfig{.queue_capacity = 0}),
               precondition_error);
  EXPECT_THROW(ColoringService(ServiceConfig{.default_shards = 0}),
               precondition_error);
  EXPECT_THROW(ColoringService(ServiceConfig{.max_idle_sessions_per_key = -1}),
               precondition_error)
      << "a negative cap is a caller bug, not a request for the default";
  EXPECT_THROW(ColoringService(ServiceConfig{.max_idle_sessions_total = -7}),
               precondition_error);
  EXPECT_THROW(ColoringService(ServiceConfig{.result_cache_capacity = -1}),
               precondition_error);
  // Zero caps still mean "use the default", derived from workers.
  ColoringService svc(ServiceConfig{.workers = 3});
  EXPECT_EQ(svc.config().max_idle_sessions_per_key, 3);
  EXPECT_EQ(svc.config().max_idle_sessions_total, 12);
}

TEST(Service, NeverIssuedTicketsThrowEverywhere) {
  ColoringService svc(ServiceConfig{.workers = 1});
  const GraphRef g = svc.intern(planted_arboricity(150, 3, 29));
  JobSpec spec;
  spec.graph = g;
  spec.arboricity_bound = 3;
  const JobTicket real = svc.submit(spec);
  // ids at or above next_id_ were never issued by THIS service: waiting on
  // one would sleep forever, so every claim surface fails fast instead.
  const JobTicket phantom{real.id + 1};
  EXPECT_THROW(svc.wait(phantom), precondition_error);
  EXPECT_THROW(svc.poll(phantom), precondition_error);
  EXPECT_THROW(svc.cancel(phantom), precondition_error);
  EXPECT_THROW(svc.wait(JobTicket{0}), precondition_error);
  EXPECT_TRUE(svc.wait(real).ok) << "the real ticket is unaffected";
}

TEST(Service, CancelBeforeDequeueFailsStructurally) {
  const Mixed& m = mixed_graphs()[0];
  Knobs solo_knobs;
  solo_knobs.shards = 1;
  const LegalColoringResult solo =
      color_graph(m.g, m.arboricity_bound, Preset::NearLinearColors, solo_knobs);

  ServiceConfig config;
  config.workers = 1;
  config.start_paused = true;  // jobs sit in the queue until resume()
  config.result_cache_capacity = 0;  // the post-cancel job must really run
  ColoringService svc(config);
  const GraphRef g = svc.intern(m.g);
  JobSpec spec;
  spec.graph = g;
  spec.arboricity_bound = m.arboricity_bound;
  spec.preset = Preset::NearLinearColors;
  const JobTicket doomed = svc.submit(spec);
  const JobTicket fine = svc.submit(spec);
  EXPECT_TRUE(svc.cancel(doomed)) << "job is still queued: cancel registers";
  svc.resume();
  const JobResult dead = svc.wait(doomed);
  EXPECT_FALSE(dead.ok);
  EXPECT_EQ(dead.status, JobStatus::kCancelled);
  EXPECT_FALSE(dead.warm_session) << "a pre-dequeue cancel must not run";
  EXPECT_FALSE(dead.error.empty());
  // The sibling job and every later job are untouched -- bit-identical.
  EXPECT_TRUE(dvc_test::bit_identical(solo, svc.wait(fine)))
      << "post-cancel sibling";
  EXPECT_TRUE(dvc_test::bit_identical(solo, svc.wait(svc.submit(spec))))
      << "post-cancel warm";
  EXPECT_FALSE(svc.cancel(fine)) << "already delivered: too late to cancel";
}

TEST(Service, CancelRacesCompletionSafely) {
  const Mixed& m = mixed_graphs()[2];
  Knobs solo_knobs;
  solo_knobs.shards = 1;
  const LegalColoringResult solo =
      color_graph(m.g, m.arboricity_bound, Preset::PolylogTime, solo_knobs);

  ServiceConfig config;
  config.workers = 1;
  config.result_cache_capacity = 0;
  ColoringService svc(config);
  const GraphRef g = svc.intern(m.g);
  JobSpec spec;
  spec.graph = g;
  spec.arboricity_bound = m.arboricity_bound;
  spec.preset = Preset::PolylogTime;
  // Cancel mid-flight: the outcome depends on when the token lands relative
  // to the run (before dequeue, at a phase boundary, or after delivery) --
  // all three must leave the service consistent and the session serving.
  for (int round = 0; round < 8; ++round) {
    const JobTicket t = svc.submit(spec);
    while (svc.queued() > 0) std::this_thread::yield();
    svc.cancel(t);  // either answer is legal; consistency is what matters
    const JobResult res = svc.wait(t);
    if (res.ok) {
      EXPECT_TRUE(dvc_test::bit_identical(solo, res)) << "cancel lost the race";
    } else {
      EXPECT_EQ(res.status, JobStatus::kCancelled);
      EXPECT_FALSE(res.error.empty());
    }
    // Either way the NEXT job is clean and bit-identical.
    EXPECT_TRUE(dvc_test::bit_identical(solo, svc.wait(svc.submit(spec))))
        << "post-cancel run";
  }
}

TEST(Service, DeadlineExpiryWhileQueuedAndCompletionRace) {
  const Mixed& m = mixed_graphs()[0];
  Knobs solo_knobs;
  solo_knobs.shards = 1;
  const LegalColoringResult solo =
      color_graph(m.g, m.arboricity_bound, Preset::NearLinearColors, solo_knobs);

  ServiceConfig config;
  config.workers = 1;
  config.start_paused = true;
  config.result_cache_capacity = 0;
  ColoringService svc(config);
  const GraphRef g = svc.intern(m.g);
  JobSpec spec;
  spec.graph = g;
  spec.arboricity_bound = m.arboricity_bound;
  spec.preset = Preset::NearLinearColors;
  JobSpec hurried = spec;
  hurried.deadline_ms = 0.01;  // will expire while gated behind the pause
  JobSpec patient = spec;
  patient.deadline_ms = 1e9;  // generous: completes normally
  const JobTicket late = svc.submit(hurried);
  const JobTicket fine = svc.submit(patient);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  svc.resume();
  const JobResult expired = svc.wait(late);
  EXPECT_FALSE(expired.ok);
  EXPECT_EQ(expired.status, JobStatus::kExpired);
  EXPECT_FALSE(expired.warm_session) << "an expired job must not run";
  EXPECT_TRUE(dvc_test::bit_identical(solo, svc.wait(fine)))
      << "generous deadline completes";
  // The expiry freed no session (none was acquired) and poisoned nothing.
  EXPECT_TRUE(dvc_test::bit_identical(solo, svc.wait(svc.submit(spec))))
      << "post-expiry warm";
}

TEST(Service, AdmissionControlShedsInsteadOfBlocking) {
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 4;
  config.start_paused = true;  // nothing drains: saturation is deterministic
  config.shed_on_saturation = true;
  config.result_cache_capacity = 0;
  ColoringService svc(config);
  const GraphRef g = svc.intern(planted_arboricity(200, 3, 31));
  JobSpec spec;
  spec.graph = g;
  spec.arboricity_bound = 3;
  std::vector<JobTicket> queued;
  for (int i = 0; i < 4; ++i) queued.push_back(svc.submit(spec));
  EXPECT_EQ(svc.queued(), 4u);
  // Queue full: a kNormal submit is answered immediately with a structured
  // rejection instead of blocking the caller.
  const JobTicket shed = svc.submit(spec);
  const JobResult rejected = svc.wait(shed);
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.status, JobStatus::kRejected);
  EXPECT_FALSE(rejected.error.empty());
  EXPECT_EQ(svc.queued(), 4u) << "the shed job never entered the queue";
  EXPECT_FALSE(svc.cancel(shed)) << "nothing to cancel: it never queued";
  const ServiceMetrics mid = svc.metrics();
  EXPECT_EQ(mid.shed, 1u);
  EXPECT_EQ(mid.queue_depth, 4u);
  svc.resume();
  svc.drain();
  for (const JobTicket t : queued) {
    EXPECT_TRUE(svc.wait(t).ok) << "admitted jobs run to completion";
  }
}

TEST(Service, OverloadBurstShedsAndEveryTicketTerminates) {
  // Arrivals that keep coming whatever the service completes: with shedding
  // on, a submit never blocks, the queue never holds more than its
  // capacity, and every ticket ends kOk or kRejected. Every 4th arrival
  // repeats the previous one exactly, so the result cache answers it.
  const Graph graph = planted_arboricity(200, 3, 47);
  ServiceConfig config;
  config.workers = 1;  // FIFO: a repeat always runs after its original
  config.queue_capacity = 4;
  config.start_paused = true;  // the first burst saturates deterministically
  config.shed_on_saturation = true;
  ColoringService svc(config);
  const GraphRef g = svc.intern(graph);

  auto spec_for = [&](int arrival) {
    JobSpec spec;
    spec.graph = g;
    spec.arboricity_bound = 3;
    spec.preset = arrival % 2 == 0 ? Preset::NearLinearColors
                                   : Preset::LinearColors;
    // A jitter far below anything eps scales keys a distinct cache entry.
    spec.knobs.eps = 0.25 + 1e-9 * arrival;
    return spec;
  };
  std::vector<JobSpec> sent;
  std::vector<JobTicket> tickets;
  std::size_t max_depth = 0;
  // Submits `arrivals` more jobs off-thread; false when they block.
  auto burst = [&](int arrivals) {
    auto done = std::async(std::launch::async, [&] {
      for (int i = 0; i < arrivals; ++i) {
        const int arrival = static_cast<int>(sent.size());
        sent.push_back(spec_for(arrival % 4 == 3 ? arrival - 1 : arrival));
        tickets.push_back(svc.submit(sent.back()));
        max_depth = std::max(max_depth, svc.metrics().queue_depth);
      }
    });
    const bool returned = done.wait_for(std::chrono::seconds(60)) ==
                          std::future_status::ready;
    if (!returned) svc.resume();  // unblock the stuck submit before failing
    done.get();
    return returned;
  };

  ASSERT_TRUE(burst(2 * static_cast<int>(config.queue_capacity)))
      << "a shedding submit blocked on a paused service";
  EXPECT_EQ(svc.metrics().shed, config.queue_capacity)
      << "a paused queue admits exactly its capacity";
  svc.resume();
  ASSERT_TRUE(burst(24)) << "a shedding submit blocked under load";
  svc.drain();

  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const JobResult res = svc.wait(tickets[i]);
    if (res.status == JobStatus::kRejected) continue;
    EXPECT_TRUE(dvc_test::bit_identical(
        color_graph(graph, 3, sent[i].preset, sent[i].knobs), res))
        << "arrival " << i << (res.cache_hit ? " (cache hit)" : "");
  }
  const ServiceMetrics m = svc.metrics();
  EXPECT_LE(max_depth, config.queue_capacity);
  EXPECT_EQ(m.queue_capacity, config.queue_capacity);
  EXPECT_GT(m.shed, 0u);
  EXPECT_EQ(m.submitted, sent.size());
  EXPECT_EQ(m.completed, m.submitted);
  EXPECT_EQ(m.ok + m.shed, m.submitted) << "only kOk and kRejected expected";
  EXPECT_GT(m.cache_hit_ratio, 0.0);
}

TEST(Service, DigestClassSheddingProtectsDiversity) {
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 8;
  config.start_paused = true;
  config.shed_on_saturation = true;
  config.result_cache_capacity = 0;
  ColoringService svc(config);
  const GraphRef hog = svc.intern(planted_arboricity(200, 3, 37));
  const GraphRef other = svc.intern(planted_arboricity(210, 3, 41));
  JobSpec bulk;
  bulk.graph = hog;
  bulk.arboricity_bound = 3;
  bulk.priority = Priority::kLow;
  // Fill to the high-water mark (3/4 of 8 = 6) entirely with one topology.
  std::vector<JobTicket> admitted;
  for (int i = 0; i < 6; ++i) admitted.push_back(svc.submit(bulk));
  EXPECT_EQ(svc.queued(), 6u);
  // Past high water, MORE of the dominant class sheds early...
  const JobResult hog_shed = svc.wait(svc.submit(bulk));
  EXPECT_EQ(hog_shed.status, JobStatus::kRejected);
  EXPECT_EQ(svc.queued(), 6u);
  // ...while a kLow job of a DIFFERENT topology still gets in, and so does
  // a kNormal job of the dominant one (only kLow is class-shed).
  JobSpec diverse = bulk;
  diverse.graph = other;
  admitted.push_back(svc.submit(diverse));
  JobSpec urgent = bulk;
  urgent.priority = Priority::kNormal;
  admitted.push_back(svc.submit(urgent));
  EXPECT_EQ(svc.queued(), 8u);
  const ServiceMetrics mid = svc.metrics();
  EXPECT_EQ(mid.queue_depth_by_priority[static_cast<int>(Priority::kLow)], 7u);
  EXPECT_EQ(mid.queue_depth_by_priority[static_cast<int>(Priority::kNormal)],
            1u);
  svc.resume();
  svc.drain();
  for (const JobTicket t : admitted) EXPECT_TRUE(svc.wait(t).ok);
}

TEST(Service, ResultCacheHitsAreBitIdenticalAndRunFree) {
  const Mixed& m = mixed_graphs()[1];
  Knobs solo_knobs;
  solo_knobs.shards = 1;
  const LegalColoringResult solo =
      color_graph(m.g, m.arboricity_bound, Preset::NearLinearColors, solo_knobs);

  ServiceConfig config;
  config.workers = 2;
  ColoringService svc(config);
  const GraphRef g = svc.intern(m.g);
  JobSpec spec;
  spec.graph = g;
  spec.arboricity_bound = m.arboricity_bound;
  spec.preset = Preset::NearLinearColors;
  const JobResult first = svc.wait(svc.submit(spec));
  EXPECT_FALSE(first.cache_hit) << "first submission must compute";
  EXPECT_TRUE(dvc_test::bit_identical(solo, first)) << "fresh run";
  const JobResult repeat = svc.wait(svc.submit(spec));
  EXPECT_TRUE(repeat.cache_hit) << "identical job must hit the cache";
  EXPECT_FALSE(repeat.warm_session) << "a cache hit acquires no session";
  // The acceptance bar: a cached answer is bitwise the uncached one --
  // colors, RunStats totals, and the full PhaseLog span tree.
  EXPECT_TRUE(dvc_test::bit_identical(solo, repeat)) << "cache hit vs solo";
  // Any knob that selects the computation keys the cache: a different eps
  // is a different job, so it misses and runs.
  JobSpec other = spec;
  other.knobs.eps = 0.30;
  EXPECT_FALSE(svc.wait(svc.submit(other)).cache_hit);
  const ServiceMetrics m2 = svc.metrics();
  EXPECT_EQ(m2.cache.hits, 1u);
  EXPECT_EQ(m2.cache.misses, 2u);
  EXPECT_GT(m2.cache_hit_ratio, 0.0);
}

TEST(Service, MetricsSnapshotIsCoherent) {
  ServiceConfig config;
  config.workers = 2;
  ColoringService svc(config);
  const GraphRef g = svc.intern(planted_arboricity(250, 3, 43));
  JobSpec spec;
  spec.graph = g;
  spec.arboricity_bound = 3;
  spec.preset = Preset::LinearColors;
  std::vector<JobTicket> tickets;
  for (int i = 0; i < 6; ++i) {
    JobSpec s = spec;
    s.knobs.mu = 0.5 + 0.01 * i;  // distinct fingerprints: all six run
    tickets.push_back(svc.submit(s));
  }
  svc.drain();
  for (const JobTicket t : tickets) EXPECT_TRUE(svc.wait(t).ok);
  const ServiceMetrics m = svc.metrics();
  EXPECT_EQ(m.submitted, 6u);
  EXPECT_EQ(m.completed, 6u);
  EXPECT_EQ(m.ok, 6u);
  EXPECT_EQ(m.failed + m.shed + m.cancelled + m.expired, 0u);
  EXPECT_EQ(m.queue_depth, 0u);
  EXPECT_EQ(m.queue_capacity, svc.config().queue_capacity);
  ASSERT_EQ(m.per_preset.size(), 1u) << "only LinearColors served jobs";
  EXPECT_EQ(m.per_preset[0].preset, Preset::LinearColors);
  EXPECT_EQ(m.per_preset[0].jobs, 6u);
  EXPECT_EQ(m.per_preset[0].run.count, 6u);
  EXPECT_GE(m.per_preset[0].run.p99_ms, m.per_preset[0].run.p50_ms);
  EXPECT_GE(m.warm_hit_ratio, 0.0);
  EXPECT_LE(m.warm_hit_ratio, 1.0);
  EXPECT_EQ(m.store.size, 1u);
}

TEST(Runtime, InterruptHookAbortsBetweenPhasesAndSessionStaysSound) {
  const Mixed& m = mixed_graphs()[0];
  // The abort-and-reuse contract must hold at every executor shape the
  // service hands out: the single-shard default and multi-shard sessions
  // (where interrupt polling shares run_phase's entry path with the
  // live-list bookkeeping).
  for (const int shards : {1, 2, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Knobs knobs;
    knobs.shards = shards;
    const LegalColoringResult fresh =
        color_graph(m.g, m.arboricity_bound, Preset::NearLinearColors, knobs);

    sim::Runtime rt(m.g, shards);
    // Deterministic mid-pipeline abort: let the first phase start, throw at
    // the second poll -- i.e. at the boundary before the second phase.
    int polls = 0;
    {
      sim::ScopedInterrupt guard(rt, [&] {
        if (++polls >= 2) throw std::runtime_error("interrupted for test");
      });
      EXPECT_THROW(
          color_graph(rt, m.arboricity_bound, Preset::NearLinearColors, knobs),
          std::runtime_error);
    }
    EXPECT_GE(polls, 2) << "the pipeline has multiple phases to poll between";
    EXPECT_FALSE(rt.has_interrupt()) << "ScopedInterrupt must clear the hook";
    // The abandoned run left the session structurally sound: the same
    // session now produces the fresh-session result bit-for-bit.
    rt.reset_log();
    const LegalColoringResult after =
        color_graph(rt, m.arboricity_bound, Preset::NearLinearColors, knobs);
    EXPECT_TRUE(dvc_test::bit_identical(fresh, after));
  }
}

}  // namespace
}  // namespace dvc::service
