#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "core/api.hpp"
#include "dist/dist.hpp"
#include "graph/arboricity.hpp"
#include "graph/coloring.hpp"
#include "graph/generators.hpp"
#include "service/service.hpp"
#include "sim/runtime.hpp"
#include "stats.hpp"

namespace dvcbench {
namespace {

using namespace dvc;
using Clock = std::chrono::steady_clock;

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Colorings a run measures at least, however long they take, so that a
/// median is never taken over a single sample.
constexpr int kMinColorings = 2;
constexpr double kMiB = 1024.0 * 1024.0;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double seconds_since(Clock::time_point t0) {
  return ms_between(t0, Clock::now()) / 1e3;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

/// Logs a sample set with its count and quartiles (and the samples
/// themselves when there are few).
void note_samples(Report& rep, const std::string& what, const std::vector<double>& v) {
  const std::array<double, 3> q = quartiles(v);
  std::ostringstream line;
  line << what << ": n=" << v.size() << " q1=" << q[0] << " median=" << q[1]
       << " q3=" << q[2];
  if (v.size() <= 16) {
    line << " samples";
    for (const double x : v) line << ' ' << x;
  }
  rep.notes.push_back(line.str());
}

/// User + system CPU seconds of this process (RUSAGE_SELF: all its
/// threads) or of its reaped children (RUSAGE_CHILDREN).
double cpu_seconds(int who) {
  rusage ru{};
  if (getrusage(who, &ru) != 0) return 0.0;
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Peak resident set in MiB (ru_maxrss is KiB on Linux).
double peak_rss_mib(int who) {
  rusage ru{};
  if (getrusage(who, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / kMiB;
}

// ---------------------------------------------------------------------------
// Correctness

/// Exact outputs of the full-size inputs, per seed: colors and rounds of the
/// R-MAT coloring (both R-MAT workloads color the same graph), of the
/// planted graph's coloring, and the sums over the twelve (family, preset)
/// jobs of the service mix. A change to any algorithm shows up here first.
struct Expected {
  std::uint64_t seed;
  int rmat_colors, rmat_rounds;
  int planted_colors, planted_rounds;
  int mix_colors, mix_rounds;
};

constexpr Expected kExpected[] = {
    {1, 213, 306, 6, 59, 310, 1196},  {2, 214, 304, 6, 58, 307, 1188},
    {3, 231, 306, 6, 58, 305, 1187},  {4, 201, 309, 6, 59, 299, 1194},
    {5, 210, 307, 6, 58, 304, 1177},  {6, 203, 304, 6, 61, 305, 1178},
    {7, 211, 305, 6, 58, 307, 1195},  {8, 213, 305, 6, 58, 308, 1183},
    {9, 215, 307, 6, 58, 301, 1187},  {10, 200, 304, 6, 58, 301, 1180},
    {11, 213, 309, 6, 59, 309, 1187}, {12, 210, 308, 6, 58, 300, 1192},
    {13, 218, 312, 6, 58, 302, 1182}, {14, 211, 304, 6, 60, 303, 1189},
    {15, 214, 312, 6, 58, 304, 1188}, {16, 216, 306, 6, 58, 310, 1188},
    {17, 213, 310, 6, 58, 305, 1183}, {18, 216, 307, 7, 58, 308, 1189},
    {19, 220, 308, 6, 58, 293, 1187}, {20, 221, 307, 6, 58, 308, 1189},
    {21, 216, 311, 6, 58, 307, 1183}, {22, 214, 307, 6, 59, 309, 1191},
    {23, 203, 311, 6, 59, 302, 1192}, {24, 223, 309, 6, 58, 317, 1191},
};

const Expected* expected_for(const Config& cfg) {
  if (cfg.smoke) return nullptr;
  for (const Expected& e : kExpected) {
    if (e.seed == cfg.seed) return &e;
  }
  return nullptr;
}

struct Exact {
  int colors;
  int rounds;
};

bool same_result(const LegalColoringResult& a, const LegalColoringResult& b) {
  return a.colors == b.colors && a.distinct == b.distinct &&
         a.total == b.total && a.phases == b.phases;
}

/// Checks one coloring of `g`: legal, within palette_formula, equal to the
/// recorded exact colors/rounds when known, and bit-identical (colors,
/// RunStats, PhaseLog) to `reference` when given. Counts it as attempted
/// and, on any failure, as failed.
void check(Report& rep, const Graph& g, const LegalColoringResult& r,
           const LegalColoringResult* reference,
           const std::optional<Exact>& exact, const std::string& what) {
  ++rep.attempted;
  std::string why;
  if (static_cast<V>(r.colors.size()) != g.num_vertices() ||
      !is_legal_coloring(g, r.colors)) {
    why = "coloring is not legal";
  } else if (r.distinct != distinct_colors(r.colors)) {
    why = "reported color count differs from the coloring";
  } else if (static_cast<std::uint64_t>(r.distinct) > r.palette_formula) {
    why = "uses " + std::to_string(r.distinct) + " colors, palette_formula " +
          std::to_string(r.palette_formula);
  } else if (exact &&
             (r.distinct != exact->colors || r.total.rounds != exact->rounds)) {
    why = std::to_string(r.distinct) + " colors / " +
          std::to_string(r.total.rounds) + " rounds, recorded " +
          std::to_string(exact->colors) + " / " + std::to_string(exact->rounds);
  } else if (reference != nullptr && !same_result(r, *reference)) {
    why = "colors, RunStats or PhaseLog differ from the 1-shard reference";
  }
  if (!why.empty()) rep.fail(what + ": " + why);
}

// ---------------------------------------------------------------------------
// Tracing from outside the library: the interrupt hook marks each phase
// start, the round observer each round end. Phase k of the PhaseLog (its
// k-th leaf) runs from the k-th phase start to the last round end before
// the next start; everything else in the call is driver time.

class Tracer {
 public:
  Tracer() { events_.reserve(1 << 15); }

  void install(sim::Runtime& rt) {
    events_.clear();
    rt.set_interrupt([this] { events_.push_back({Clock::now(), true}); });
    rt.set_round_observer(
        [this](int) { events_.push_back({Clock::now(), false}); });
  }
  static void uninstall(sim::Runtime& rt) {
    rt.set_interrupt(nullptr);
    rt.set_round_observer(nullptr);
  }

  struct Breakdown {
    std::vector<double> leaf_ms;   // per PhaseLog leaf, in order
    std::vector<double> round_ms;  // every round, in order
    double driver_ms = 0.0;
    double wall_ms = 0.0;
  };

  /// Attributes the call [start, end) to the leaves of `log`. Returns an
  /// error when the trace and the log disagree: a different number of
  /// phases or a different round count in any phase.
  std::string attribute(Clock::time_point start, Clock::time_point end,
                        const sim::PhaseLog& log, Breakdown& out) const {
    std::vector<std::size_t> leaves;
    for (std::size_t i = 0; i < log.size(); ++i) {
      if (!log[i].span) leaves.push_back(i);
    }
    std::vector<std::size_t> starts;
    for (std::size_t j = 0; j < events_.size(); ++j) {
      if (events_[j].phase_start) starts.push_back(j);
    }
    if (starts.size() != leaves.size()) {
      return "trace saw " + std::to_string(starts.size()) +
             " phase starts for " + std::to_string(leaves.size()) +
             " PhaseLog leaves";
    }
    if (!events_.empty() && !events_.front().phase_start) {
      return "a round ended before the first phase started";
    }
    out = Breakdown{};
    Clock::time_point cursor = start;
    for (std::size_t k = 0; k < starts.size(); ++k) {
      const std::size_t j0 = starts[k];
      const std::size_t j1 = k + 1 < starts.size() ? starts[k + 1] : events_.size();
      out.driver_ms += ms_between(cursor, events_[j0].t);
      Clock::time_point prev = events_[j0].t;
      int rounds = 0;
      for (std::size_t j = j0 + 1; j < j1; ++j) {
        out.round_ms.push_back(ms_between(prev, events_[j].t));
        prev = events_[j].t;
        ++rounds;
      }
      if (rounds != log[leaves[k]].rounds) {
        return "phase '" + std::string(log.name(leaves[k])) + "': " +
               std::to_string(rounds) + " round ends traced, PhaseLog has " +
               std::to_string(log[leaves[k]].rounds);
      }
      out.leaf_ms.push_back(ms_between(events_[j0].t, prev));
      cursor = prev;
    }
    out.driver_ms += ms_between(cursor, end);
    out.wall_ms = ms_between(start, end);
    return {};
  }

 private:
  struct Event {
    Clock::time_point t;
    bool phase_start;
  };
  std::vector<Event> events_;
};

/// Per-layer numbers summed over traced colorings and reported per
/// coloring.
struct TraceAgg {
  struct Phase {
    double ms = 0.0;
    std::uint64_t rounds = 0;
    std::uint64_t messages = 0;
  };
  int colorings = 0;
  std::map<std::string, Phase> phases;
  std::vector<double> round_ms;
  double phase_ms = 0.0;
  double driver_ms = 0.0;
  double wall_ms = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t leaves = 0;

  void add(const Tracer::Breakdown& b, const sim::PhaseLog& log) {
    ++colorings;
    std::size_t k = 0;
    for (std::size_t i = 0; i < log.size(); ++i) {
      if (log[i].span) continue;
      Phase& p = phases[std::string(log.name(i))];
      p.ms += b.leaf_ms[k];
      p.rounds += static_cast<std::uint64_t>(log[i].rounds);
      p.messages += log[i].messages;
      phase_ms += b.leaf_ms[k];
      messages += log[i].messages;
      ++leaves;
      ++k;
    }
    round_ms.insert(round_ms.end(), b.round_ms.begin(), b.round_ms.end());
    driver_ms += b.driver_ms;
    wall_ms += b.wall_ms;
  }

  void report(Report& rep) const {
    if (colorings == 0) return;
    const double per = 1.0 / colorings;
    for (const auto& [label, p] : phases) {
      rep.set("phase." + label + ".ms", p.ms * per, "ms");
      rep.set("phase." + label + ".rounds", static_cast<double>(p.rounds) * per,
              "count");
      rep.set("phase." + label + ".messages",
              static_cast<double>(p.messages) * per, "count");
    }
    rep.set("pipeline.driver_ms", driver_ms * per, "ms");
    rep.set("pipeline.phases", static_cast<double>(leaves) * per, "count");
    rep.set("trace.wall_ms", wall_ms * per, "ms");
    rep.set("sim.round_ms.p50", percentile(round_ms, 50), "ms");
    rep.set("sim.round_ms.p99", percentile(round_ms, 99), "ms");
    rep.set("sim.round_ms.max", percentile(round_ms, 100), "ms");
    rep.set("sim.ns_per_msg",
            messages == 0 ? 0.0 : phase_ms * 1e6 / static_cast<double>(messages),
            "ns");
  }
};

/// Runs one traced coloring on `rt` and folds it into `agg`.
LegalColoringResult traced_coloring(Report& rep, Tracer& tracer, TraceAgg& agg,
                                    sim::Runtime& rt, int bound, Preset preset,
                                    const Knobs& knobs,
                                    Tracer::Breakdown* out = nullptr) {
  rt.reset_log();
  tracer.install(rt);
  const auto t0 = Clock::now();
  LegalColoringResult r = color_graph(rt, bound, preset, knobs);
  const auto t1 = Clock::now();
  Tracer::uninstall(rt);
  Tracer::Breakdown b;
  const std::string err = tracer.attribute(t0, t1, r.phases, b);
  if (err.empty()) {
    agg.add(b, r.phases);
    if (out != nullptr) *out = std::move(b);
  } else {
    rep.fail("trace: " + err);
  }
  return r;
}

/// Memory numbers of a session (per-layer).
void report_memory(Report& rep, const Graph& g, const sim::Runtime& rt) {
  const auto slots = static_cast<double>(std::max<std::int64_t>(1, g.num_slots()));
  const sim::Runtime::MemoryBreakdown mb = rt.memory_breakdown();
  rep.set("graph.bytes_per_slot", static_cast<double>(g.memory_bytes()) / slots,
          "B");
  rep.set("sim.steady_bytes_per_slot",
          static_cast<double>(mb.steady_bytes()) / slots, "B");
  rep.set("sim.payload_mb", static_cast<double>(mb.payload_bytes) / kMiB, "MiB");
}

void report_common_e2e(Report& rep, const std::vector<double>& wall_ms,
                       const LegalColoringResult& reference,
                       const std::vector<double>& setup_s) {
  const double busy_s = sum(wall_ms) / 1e3;
  const double reps = static_cast<double>(wall_ms.size());
  rep.set("wall_s", median(wall_ms) / 1e3, "s");
  rep.set("rounds_per_s", reference.total.rounds * reps / busy_s, "1/s");
  rep.set("msgs_per_s", static_cast<double>(reference.total.messages) * reps / busy_s,
          "1/s");
  rep.set("colors", reference.distinct, "count");
  rep.set("rounds", reference.total.rounds, "count");
  rep.set("setup_s", median(setup_s), "s");
  rep.set("peak_rss_mb", peak_rss_mib(RUSAGE_SELF), "MiB");
  rep.set("jobs_per_s", reps / busy_s, "1/s");
  rep.set("job_p50_ms", median(wall_ms), "ms");
  rep.set("job_p95_ms", percentile(wall_ms, 95), "ms");
}

// ---------------------------------------------------------------------------
// rmat16-polylog-s1 / rmat16-polylog-s4

Report run_rmat(const Config& cfg, int shards) {
  Report rep;
  const int scale = cfg.smoke ? 10 : 16;
  constexpr int kEdgeFactor = 8;
  Knobs knobs;
  knobs.congest_words = kCongestWordsPaperPath;
  std::optional<Exact> exact;
  if (const Expected* e = expected_for(cfg)) {
    exact = Exact{e->rmat_colors, e->rmat_rounds};
  }

  // The 1-shard in-process result every multi-shard coloring must equal,
  // computed before set-up and outside every timed region. With one shard
  // the first set-up's warm-up coloring is that result.
  std::optional<LegalColoringResult> reference;
  if (shards > 1) {
    const Graph g = rmat_graph(scale, kEdgeFactor, cfg.seed);
    sim::Runtime rt(g, 1);
    reference = color_graph(rt, degeneracy(g), Preset::PolylogTime, knobs);
    check(rep, g, *reference, nullptr, exact, "reference");
  }

  std::vector<double> setup_s, build_ms, bound_ms, session_ms;
  std::unique_ptr<Graph> g;
  std::unique_ptr<sim::Runtime> rt;
  int bound = 0;
  for (int i = 0; i < kSetups; ++i) {
    rt.reset();
    g.reset();
    const auto t0 = Clock::now();
    g = std::make_unique<Graph>(rmat_graph(scale, kEdgeFactor, cfg.seed));
    const auto t1 = Clock::now();
    bound = degeneracy(*g);
    const auto t2 = Clock::now();
    rt = std::make_unique<sim::Runtime>(*g, shards);
    const auto t3 = Clock::now();
    const LegalColoringResult warm =
        color_graph(*rt, bound, Preset::PolylogTime, knobs);
    const auto t4 = Clock::now();
    setup_s.push_back(ms_between(t0, t4) / 1e3);
    build_ms.push_back(ms_between(t0, t1));
    bound_ms.push_back(ms_between(t1, t2));
    session_ms.push_back(ms_between(t2, t3));
    if (!reference) reference = warm;
    check(rep, *g, warm, &*reference, exact, "set-up " + std::to_string(i));
  }

  // Measured window. The traced run alternates untraced and traced
  // colorings so that the tracing overhead is measured in the same run.
  std::vector<double> wall_ms, traced_ms;
  Tracer tracer;
  TraceAgg agg;
  double cpu_s = 0.0;
  double busy_s = 0.0;
  const auto window = Clock::now();
  for (int k = 0; k < kMinColorings || seconds_since(window) < cfg.seconds; ++k) {
    const bool traced = cfg.trace && k % 2 == 1;
    const double cpu0 = cpu_seconds(RUSAGE_SELF);
    const auto t0 = Clock::now();
    LegalColoringResult r;
    if (traced) {
      r = traced_coloring(rep, tracer, agg, *rt, bound, Preset::PolylogTime, knobs);
    } else {
      rt->reset_log();
      r = color_graph(*rt, bound, Preset::PolylogTime, knobs);
    }
    const double ms = ms_between(t0, Clock::now());
    cpu_s += cpu_seconds(RUSAGE_SELF) - cpu0;
    busy_s += ms / 1e3;
    (traced ? traced_ms : wall_ms).push_back(ms);
    check(rep, *g, r, &*reference, exact, "run " + std::to_string(k));
  }
  note_samples(rep, "setup_s", setup_s);
  note_samples(rep, "coloring_ms", wall_ms);
  if (cfg.trace) note_samples(rep, "traced_coloring_ms", traced_ms);

  if (!cfg.trace) {
    report_common_e2e(rep, wall_ms, *reference, setup_s);
    return rep;
  }
  rep.set("graph.build_ms", median(build_ms), "ms");
  rep.set("graph.degeneracy_ms", median(bound_ms), "ms");
  rep.set("sim.session_build_ms", median(session_ms), "ms");
  rep.set("sim.cpu_util", cpu_s / (busy_s * shards), "ratio");
  rep.set("sim.work_items", static_cast<double>(reference->total.work_items),
          "count");
  report_memory(rep, *g, *rt);
  agg.report(rep);
  rep.set("trace.overhead_x", median(traced_ms) / median(wall_ms), "ratio");
  return rep;
}

Report run_rmat_s1(const Config& cfg) { return run_rmat(cfg, 1); }
Report run_rmat_s4(const Config& cfg) { return run_rmat(cfg, 4); }

// ---------------------------------------------------------------------------
// dist-fork-planted

Report run_dist(const Config& cfg) {
  Report rep;
  const V n = cfg.smoke ? 8192 : 262144;
  constexpr int kArboricity = 3;
  constexpr int kShards = 4;
  constexpr int kWorkers = 4;
  Knobs knobs;
  knobs.congest_words = kCongestWordsPaperPath;
  std::optional<Exact> exact;
  if (const Expected* e = expected_for(cfg)) {
    exact = Exact{e->planted_colors, e->planted_rounds};
  }
  dist::DistConfig dcfg;
  dcfg.workers = kWorkers;
  dcfg.backend = dist::Backend::kFork;

  LegalColoringResult reference;
  {
    const Graph g = planted_arboricity(n, kArboricity, cfg.seed);
    sim::Runtime rt(g, 1);
    reference = color_graph(rt, kArboricity, Preset::PolylogTime, knobs);
    check(rep, g, reference, nullptr, exact, "reference");
  }

  std::vector<double> setup_s, build_ms, session_ms;
  std::unique_ptr<dist::DistSession> ds;
  std::unique_ptr<sim::Runtime> rt;
  std::unique_ptr<Graph> g;
  for (int i = 0; i < kSetups; ++i) {
    ds.reset();
    rt.reset();
    g.reset();
    const auto t0 = Clock::now();
    g = std::make_unique<Graph>(planted_arboricity(n, kArboricity, cfg.seed));
    const auto t1 = Clock::now();
    rt = std::make_unique<sim::Runtime>(*g, kShards, /*inline_shards=*/true);
    ds = std::make_unique<dist::DistSession>(*rt, dcfg);
    const auto t2 = Clock::now();
    const LegalColoringResult warm =
        color_graph(*rt, kArboricity, Preset::PolylogTime, knobs);
    const auto t3 = Clock::now();
    setup_s.push_back(ms_between(t0, t3) / 1e3);
    build_ms.push_back(ms_between(t0, t1));
    session_ms.push_back(ms_between(t1, t2));
    check(rep, *g, warm, &reference, exact, "set-up " + std::to_string(i));
  }
  if (ds->effective_workers() != kWorkers) {
    rep.fail("dist session runs " + std::to_string(ds->effective_workers()) +
             " workers, want " + std::to_string(kWorkers));
  }

  // Untraced fork colorings; the traced run cycles untraced fork, traced
  // fork, and in-process (the same session with the transport removed).
  std::vector<double> wall_ms, traced_ms, inproc_ms;
  Tracer tracer;
  TraceAgg agg;
  dist::PhaseWireMetrics wire;  // summed over fork colorings
  int fork_runs = 0;
  double dist_phase_ms = 0.0;
  double local_phase_ms = 0.0;
  double cpu_s = 0.0;
  double busy_s = 0.0;
  const int min_colorings = cfg.trace ? 3 : kMinColorings;  // one of each kind
  const auto window = Clock::now();
  for (int k = 0; k < min_colorings || seconds_since(window) < cfg.seconds; ++k) {
    const int kind = cfg.trace ? k % 3 : 0;  // 0 untraced, 1 traced, 2 in-process
    if (kind == 2) {
      ds.reset();
    } else if (!ds) {
      ds = std::make_unique<dist::DistSession>(*rt, dcfg);
    }
    const std::size_t mark = ds ? ds->metrics().size() : 0;
    const double cpu0 = cpu_seconds(RUSAGE_SELF) + cpu_seconds(RUSAGE_CHILDREN);
    const auto t0 = Clock::now();
    LegalColoringResult r;
    Tracer::Breakdown b;
    if (kind == 1) {
      r = traced_coloring(rep, tracer, agg, *rt, kArboricity, Preset::PolylogTime,
                          knobs, &b);
    } else {
      rt->reset_log();
      r = color_graph(*rt, kArboricity, Preset::PolylogTime, knobs);
    }
    const double ms = ms_between(t0, Clock::now());
    if (kind != 2) {
      cpu_s += cpu_seconds(RUSAGE_SELF) + cpu_seconds(RUSAGE_CHILDREN) - cpu0;
      busy_s += ms / 1e3;
    }
    (kind == 0 ? wall_ms : kind == 1 ? traced_ms : inproc_ms).push_back(ms);
    check(rep, *g, r, &reference, exact, "run " + std::to_string(k));

    if (kind == 2) continue;
    ++fork_runs;
    const auto& m = ds->metrics();
    std::size_t leaf = 0;
    for (std::size_t i = mark; i < m.size(); ++i, ++leaf) {
      if (kind == 1 && leaf < b.leaf_ms.size()) {
        (m[i].distributed ? dist_phase_ms : local_phase_ms) += b.leaf_ms[leaf];
      }
      if (!m[i].distributed) continue;
      wire.wire_bytes += m[i].wire_bytes;
      wire.frames += m[i].frames;
      wire.round_trips += m[i].round_trips;
      wire.declared_words += m[i].declared_words;
    }
  }
  note_samples(rep, "setup_s", setup_s);
  note_samples(rep, "coloring_ms", wall_ms);
  if (cfg.trace) {
    note_samples(rep, "traced_coloring_ms", traced_ms);
    note_samples(rep, "in_process_coloring_ms", inproc_ms);
  }

  if (!cfg.trace) {
    report_common_e2e(rep, wall_ms, reference, setup_s);
    return rep;
  }
  const double per_fork = 1.0 / std::max(1, fork_runs);
  const double per_traced = 1.0 / std::max<std::size_t>(1, traced_ms.size());
  rep.set("graph.build_ms", median(build_ms), "ms");
  rep.set("sim.session_build_ms", median(session_ms), "ms");
  rep.set("sim.cpu_util", cpu_s / (busy_s * kWorkers), "ratio");
  rep.set("sim.work_items", static_cast<double>(reference.total.work_items),
          "count");
  report_memory(rep, *g, *rt);
  agg.report(rep);
  rep.set("trace.overhead_x", median(traced_ms) / median(wall_ms), "ratio");
  rep.set("dist.wire_bytes", static_cast<double>(wire.wire_bytes) * per_fork, "B");
  rep.set("wire_mb", static_cast<double>(wire.wire_bytes) * per_fork / kMiB, "MiB");
  rep.set("dist.frames", static_cast<double>(wire.frames) * per_fork, "count");
  rep.set("dist.round_trips", static_cast<double>(wire.round_trips) * per_fork,
          "count");
  rep.set("dist.bytes_per_declared_word",
          ratio(wire.wire_bytes, wire.declared_words), "B");
  rep.set("dist.declared_words", static_cast<double>(wire.declared_words) * per_fork,
          "count");
  rep.set("dist.distributed_phase_ms", dist_phase_ms * per_traced, "ms");
  rep.set("dist.local_phase_ms", local_phase_ms * per_traced, "ms");
  rep.set("dist.overhead_x", median(wall_ms) / median(inproc_ms), "ratio");
  rep.set("dist.peak_rss_with_children_mb",
          peak_rss_mib(RUSAGE_SELF) + peak_rss_mib(RUSAGE_CHILDREN), "MiB");
  return rep;
}

// ---------------------------------------------------------------------------
// service-mix

Report run_service(const Config& cfg) {
  Report rep;
  const V n = cfg.smoke ? 1024 : 8192;
  const std::size_t min_jobs = cfg.smoke ? 24 : 200;
  const std::uint64_t warm_jobs = cfg.smoke ? 12 : 48;
  constexpr std::size_t kInFlight = 8;
  constexpr int kWorkers = 4;
  // Every 4th job repeats the job this many places earlier: far enough back
  // that the closed loop has finished it, near enough that the LRU cache
  // still holds it.
  constexpr std::uint64_t kRepeatDistance = 16;

  struct Family {
    std::shared_ptr<const Graph> g;
    int bound;
  };
  const auto build_families = [&] {
    return std::array<Family, 3>{
        Family{std::make_shared<const Graph>(planted_arboricity(n, 6, cfg.seed)), 6},
        Family{std::make_shared<const Graph>(barabasi_albert(n, 5, cfg.seed + 1)), 5},
        Family{std::make_shared<const Graph>(random_near_regular(n, 12, cfg.seed + 2)),
               12}};
  };
  constexpr std::array<Preset, 4> kPresets = {
      Preset::NearLinearColors, Preset::LinearColors, Preset::PolylogTime,
      Preset::TradeoffAT};
  constexpr std::size_t kCombos = 12;  // families x presets

  // Job k colors family k % 3 with preset (k / 3) % 4, so the jobs in
  // flight always mix all three families; it runs with the cache key of
  // job key_of(k): its own, or, for every 4th job, the key of an earlier
  // job -- an exact repeat.
  const auto key_of = [&](std::uint64_t k) {
    while (k % 4 == 3 && k >= kRepeatDistance) k -= kRepeatDistance;
    return k;
  };

  // References: each combination colored solo on its own 1-shard session,
  // before set-up and outside every timed region. The traced run re-runs
  // them warm to break a service-sized pipeline into phases.
  const std::array<Family, 3> ref_families = build_families();
  std::array<std::unique_ptr<sim::Runtime>, 3> ref_rt;
  std::vector<double> session_ms;
  std::array<LegalColoringResult, kCombos> reference;
  int colors_sum = 0;
  int rounds_sum = 0;
  for (std::size_t f = 0; f < 3; ++f) {
    const auto t0 = Clock::now();
    ref_rt[f] = std::make_unique<sim::Runtime>(*ref_families[f].g, 1);
    session_ms.push_back(ms_between(t0, Clock::now()));
    for (std::size_t p = 0; p < kPresets.size(); ++p) {
      LegalColoringResult& r = reference[f * kPresets.size() + p];
      r = color_graph(*ref_rt[f], ref_families[f].bound, kPresets[p], Knobs{});
      check(rep, *ref_families[f].g, r, nullptr, std::nullopt, "reference");
      colors_sum += r.distinct;
      rounds_sum += r.total.rounds;
    }
  }
  if (const Expected* e = expected_for(cfg)) {
    ++rep.attempted;
    if (colors_sum != e->mix_colors || rounds_sum != e->mix_rounds) {
      rep.fail("service mix: " + std::to_string(colors_sum) + " colors / " +
               std::to_string(rounds_sum) + " rounds summed, recorded " +
               std::to_string(e->mix_colors) + " / " + std::to_string(e->mix_rounds));
    }
  }

  std::array<Family, 3> families;
  std::unique_ptr<service::ColoringService> svc;
  std::array<service::GraphRef, 3> refs;
  const auto spec_for = [&](std::uint64_t k) {
    const std::uint64_t key = key_of(k);
    const std::size_t f = key % 3;
    const std::size_t combo = f * kPresets.size() + (key / 3) % kPresets.size();
    service::JobSpec spec;
    spec.graph = refs[f];
    spec.arboricity_bound = families[f].bound;
    spec.preset = kPresets[combo % kPresets.size()];
    // A distinct cache key per job: eps only scales integer degree
    // thresholds, so a 1e-9 step never changes the output (each result is
    // checked against its combination's reference).
    spec.knobs.eps = 0.25 + 1e-9 * static_cast<double>(key);
    return std::pair{spec, combo};
  };

  // Closed loop from one submitter thread holding kInFlight jobs in flight,
  // over job indices [first, limit) or until `done` says stop; every result
  // is checked and handed to `sink`. A finished job is replaced as soon as
  // the submitter sees it, whichever of the in-flight jobs it is.
  struct InFlight {
    service::JobTicket ticket;
    std::size_t combo;
  };
  const auto closed_loop = [&](std::uint64_t first, std::uint64_t limit,
                               const auto& done, const auto& sink) {
    std::vector<InFlight> flight;
    std::uint64_t next = first;
    std::size_t finished = 0;
    while (true) {
      while (next < limit && flight.size() < kInFlight && !done(finished)) {
        auto [spec, combo] = spec_for(next++);
        flight.push_back({svc->submit(std::move(spec)), combo});
      }
      if (flight.empty()) break;
      bool progressed = false;
      for (std::size_t i = 0; i < flight.size();) {
        std::optional<service::JobResult> res = svc->poll(flight[i].ticket);
        if (!res) {
          ++i;
          continue;
        }
        const std::size_t combo = flight[i].combo;
        flight.erase(flight.begin() + static_cast<std::ptrdiff_t>(i));
        ++finished;
        progressed = true;
        if (!res->ok) {
          ++rep.attempted;
          rep.fail(std::string("job ") + service::job_status_name(res->status) +
                   ": " + res->error);
        } else {
          check(rep, *families[combo / kPresets.size()].g, res->result,
                &reference[combo], std::nullopt, "job " + std::to_string(res->id));
        }
        sink(*res);
      }
      if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  };

  std::vector<double> setup_s, build_ms;
  for (int i = 0; i < kSetups; ++i) {
    svc.reset();
    const auto t0 = Clock::now();
    families = build_families();
    const auto t1 = Clock::now();
    service::ServiceConfig scfg;
    scfg.workers = kWorkers;
    scfg.queue_capacity = 4 * kInFlight;
    svc = std::make_unique<service::ColoringService>(scfg);
    for (std::size_t f = 0; f < 3; ++f) refs[f] = svc->intern(families[f].g);
    closed_loop(0, warm_jobs, [](std::size_t) { return false; },
                [](const service::JobResult&) {});
    setup_s.push_back(seconds_since(t0));
    build_ms.push_back(ms_between(t0, t1));
  }

  // Measured window: counters are snapshotted around it and reported as
  // deltas, latencies come from the window's own results.
  std::vector<double> latency_ms, queue_ms, run_ms, fresh_run_ms;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t work_items = 0;
  std::uint64_t fresh = 0;
  const service::ServiceMetrics before = svc->metrics();
  const double cpu0 = cpu_seconds(RUSAGE_SELF);
  const auto window = Clock::now();
  closed_loop(
      warm_jobs, UINT64_MAX,
      [&](std::size_t finished) {
        return finished >= min_jobs && seconds_since(window) >= cfg.seconds;
      },
      [&](const service::JobResult& res) {
        if (!res.ok) return;
        latency_ms.push_back(res.queue_ms + res.run_ms);
        queue_ms.push_back(res.queue_ms);
        run_ms.push_back(res.run_ms);
        if (res.cache_hit) return;
        ++fresh;
        fresh_run_ms.push_back(res.run_ms);
        rounds += static_cast<std::uint64_t>(res.result.total.rounds);
        messages += res.result.total.messages;
        work_items += res.result.total.work_items;
      });
  const double window_s = seconds_since(window);
  const double cpu_s = cpu_seconds(RUSAGE_SELF) - cpu0;
  const service::ServiceMetrics after = svc->metrics();
  note_samples(rep, "setup_s", setup_s);
  note_samples(rep, "job_ms", latency_ms);

  if (!cfg.trace) {
    rep.set("wall_s", median(fresh_run_ms) / 1e3, "s");
    rep.set("rounds_per_s", static_cast<double>(rounds) / window_s, "1/s");
    rep.set("msgs_per_s", static_cast<double>(messages) / window_s, "1/s");
    rep.set("colors", colors_sum / static_cast<double>(kCombos), "count");
    rep.set("rounds", rounds_sum / static_cast<double>(kCombos), "count");
    rep.set("setup_s", median(setup_s), "s");
    rep.set("peak_rss_mb", peak_rss_mib(RUSAGE_SELF), "MiB");
    rep.set("jobs_per_s", static_cast<double>(latency_ms.size()) / window_s, "1/s");
    rep.set("job_p50_ms", percentile(latency_ms, 50), "ms");
    rep.set("job_p95_ms", percentile(latency_ms, 95), "ms");
    return rep;
  }

  rep.set("graph.build_ms", median(build_ms), "ms");
  rep.set("sim.session_build_ms", sum(session_ms) / 3.0, "ms");
  rep.set("sim.cpu_util", cpu_s / (window_s * kWorkers), "ratio");
  rep.set("sim.work_items",
          fresh == 0 ? 0.0 : static_cast<double>(work_items) / static_cast<double>(fresh),
          "count");
  {
    std::uint64_t graph_bytes = 0, steady = 0, payload = 0;
    std::int64_t slots = 0;
    for (std::size_t f = 0; f < 3; ++f) {
      const sim::Runtime::MemoryBreakdown mb = ref_rt[f]->memory_breakdown();
      graph_bytes += ref_families[f].g->memory_bytes();
      steady += mb.steady_bytes();
      payload += mb.payload_bytes;
      slots += ref_families[f].g->num_slots();
    }
    const auto s = static_cast<double>(std::max<std::int64_t>(1, slots));
    rep.set("graph.bytes_per_slot", static_cast<double>(graph_bytes) / s, "B");
    rep.set("sim.steady_bytes_per_slot", static_cast<double>(steady) / s, "B");
    rep.set("sim.payload_mb", static_cast<double>(payload) / kMiB, "MiB");
  }
  // Phase breakdown of the mix's pipelines: each combination once, warm and
  // traced, on its reference session.
  Tracer tracer;
  TraceAgg agg;
  for (std::size_t c = 0; c < kCombos; ++c) {
    const std::size_t f = c / kPresets.size();
    const LegalColoringResult r =
        traced_coloring(rep, tracer, agg, *ref_rt[f], ref_families[f].bound,
                        kPresets[c % kPresets.size()], Knobs{});
    check(rep, *ref_families[f].g, r, &reference[c], std::nullopt, "traced");
  }
  agg.report(rep);

  const std::uint64_t lookups =
      delta(before.cache.hits + before.cache.misses, after.cache.hits + after.cache.misses);
  const std::uint64_t acquires = delta(before.pool.acquires, after.pool.acquires);
  rep.set("service.jobs", static_cast<double>(latency_ms.size()), "count");
  rep.set("service.queue_ms.p50", percentile(queue_ms, 50), "ms");
  rep.set("service.queue_ms.p95", percentile(queue_ms, 95), "ms");
  rep.set("service.run_ms.p50", percentile(run_ms, 50), "ms");
  rep.set("service.run_ms.p95", percentile(run_ms, 95), "ms");
  rep.set("service.cache_lookups", static_cast<double>(lookups), "count");
  rep.set("service.cache_hit_ratio",
          ratio(delta(before.cache.hits, after.cache.hits), lookups), "ratio");
  rep.set("service.session_acquires", static_cast<double>(acquires), "count");
  rep.set("service.warm_hit_ratio",
          ratio(delta(before.pool.warm_hits, after.pool.warm_hits), acquires), "ratio");
  rep.set("service.cold_builds",
          static_cast<double>(delta(before.pool.cold_builds, after.pool.cold_builds)),
          "count");
  rep.set("service.retries", static_cast<double>(delta(before.retries, after.retries)),
          "count");
  rep.set("service.failed", static_cast<double>(delta(before.failed, after.failed)),
          "count");
  return rep;
}

}  // namespace

const std::vector<std::pair<std::string, WorkloadFn>>& workloads() {
  static const std::vector<std::pair<std::string, WorkloadFn>> all = {
      {"rmat16-polylog-s1", &run_rmat_s1},
      {"rmat16-polylog-s4", &run_rmat_s4},
      {"service-mix", &run_service},
      {"dist-fork-planted", &run_dist},
  };
  return all;
}

}  // namespace dvcbench
