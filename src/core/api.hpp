// One-call facade over the library: pick a preset, get a legal coloring (or
// an MIS) plus the simulated LOCAL-model cost. This is the API the examples
// and the comparison benchmark drive.
#pragma once

#include <cstdint>
#include <string>

#include "core/legal_coloring.hpp"
#include "core/mis.hpp"
#include "graph/coloring.hpp"
#include "graph/graph.hpp"
#include "sim/runtime.hpp"

namespace dvc {

enum class Preset {
  /// Theorem 4.3: O(a) colors in O(a^mu log n) rounds (mu = knobs.mu).
  LinearColors,
  /// Corollary 4.6: O(a^(1+eta)) colors in O(log a log n) rounds.
  NearLinearColors,
  /// Theorem 4.5 with f(a) = max(16, log2(a)): a^(1+o(1)) colors in
  /// polylogarithmic rounds -- the paper's headline regime.
  PolylogTime,
  /// Theorem 5.2: O(a^2/g(a)) colors in O(log g(a) log n) rounds.
  FastSubquadratic,
  /// Theorem 5.3: O(a*t) colors in O((a/t)^mu log n) rounds (t = knobs.t).
  TradeoffAT,
  /// Corollary 4.7: (Delta+1) colors for a <= Delta^(1-nu).
  DeltaPlusOneLowArb,
};

/// Number of Preset values (contiguous from 0). Sizes per-preset tables
/// such as the service's latency metrics; keep in sync with the enum.
inline constexpr int kNumPresets = 6;

/// Worst-case per-message payload width over every VertexProgram on the
/// paper path (the orient exchanges carry {group, key1, key2}); running a
/// preset with Knobs::congest_words = kCongestWordsPaperPath executes it as
/// a CONGEST algorithm -- any wider send raises sim::bandwidth_error. Each
/// word carries one O(log n)-bit quantity, so this matches the paper's
/// O(log n)-bit message guarantee.
inline constexpr int kCongestWordsPaperPath = 3;

struct Knobs {
  double mu = 0.5;   // LinearColors / TradeoffAT exponent
  double eta = 0.5;  // NearLinearColors / DeltaPlusOneLowArb exponent
  /// TradeoffAT palette/time trade-off. The preset runs with t clamped to
  /// [1, a] (a = the arboricity bound), so the default is valid on every
  /// input -- including forests, where the effective t is 1.
  int t = 2;
  int f = 0;         // FastSubquadratic class arboricity (0: ~sqrt(a))
  double eps = 0.25; // H-partition slack
  /// Executor shards for every simulated phase; 0 (default) means one shard
  /// (the service substitutes ServiceConfig::default_shards). Results are
  /// bit-identical for any value; only wall-clock changes.
  int shards = 0;
  /// Machine-model choice: per-message payload budget in words. 0 (default)
  /// keeps the session's budget -- unlimited on a fresh session, i.e. the
  /// LOCAL model. Positive values run the pipeline in the CONGEST model:
  /// any message wider than the budget raises sim::bandwidth_error naming
  /// vertex/port/round. kCongestWordsPaperPath admits every paper-path
  /// program. Metering itself is always on (RunStats/PhaseLog bandwidth
  /// counters); the budget only adds enforcement.
  int congest_words = 0;
  /// Deterministic fault injection for the pipeline (chaos testing, see
  /// sim/fault.hpp): an armed plan is installed for the duration of the
  /// call via ScopedFaultPlan; the default plan is unarmed and installs
  /// nothing. The service installs each job's plan with FaultPlan::salt set
  /// to the attempt index, so a retry draws fresh fault decisions.
  sim::FaultPlan fault_plan;
};

std::string preset_name(Preset p);

/// Runs the preset; `arboricity_bound` must be >= the arboricity of g.
/// Internally one sim::Runtime session of knobs.shards shards carries the
/// whole pipeline, so arenas and shard threads are reused at every phase
/// boundary; the returned result's `phases` PhaseLog is the session's
/// per-phase tree.
LegalColoringResult color_graph(const Graph& g, int arboricity_bound, Preset preset,
                                const Knobs& knobs = Knobs{});

/// Same, on a caller-provided session (batched runs, custom phase logging,
/// regression probes). rt.graph() is the input; knobs.shards is ignored --
/// the session's shard count applies. knobs.congest_words > 0 imposes the
/// CONGEST budget for the duration of the call (restored afterwards).
LegalColoringResult color_graph(sim::Runtime& rt, int arboricity_bound,
                                Preset preset, const Knobs& knobs = Knobs{});

/// Deterministic MIS (Section 1.2): Theorem 4.3 coloring + color sweep.
MisResult mis_graph(const Graph& g, int arboricity_bound,
                    const Knobs& knobs = Knobs{});

MisResult mis_graph(sim::Runtime& rt, int arboricity_bound,
                    const Knobs& knobs = Knobs{});

namespace service {
class ColoringService;
}  // namespace service

/// Service-aware facade: the same one-call shape, executed through a shared
/// service::ColoringService (see service/service.hpp). The graph is
/// interned in the service's store under Graph::digest() -- only the first
/// call per topology copies it -- and the run is dispatched to the service's
/// worker pool on a warm session, blocking until the job completes. Results
/// are bit-identical to the direct color_graph overloads for the same
/// preset/knobs/shard count. A failed job rethrows as invariant_error
/// carrying the job's structured error text -- including a job shed by
/// admission control on a saturated service (ServiceConfig::
/// shed_on_saturation), whose structured `rejected` status surfaces here as
/// that error. Repeated calls for the same (graph, preset, bound, knobs)
/// are answered from the service's result cache without a run; cached
/// results are bit-identical to fresh ones. Defined in service/service.cpp.
LegalColoringResult color_graph(service::ColoringService& svc, const Graph& g,
                                int arboricity_bound, Preset preset,
                                const Knobs& knobs = Knobs{});

}  // namespace dvc
