// Hook-free shared test helpers. Safe to include from ANY test TU --
// unlike tests/test_support.hpp, which additionally defines the global
// operator new/delete replacements (one TU per binary) and includes this
// header for the helpers below.
#pragma once

#include <limits>
#include <string>

#include "sim/runtime.hpp"

namespace dvc_test {

/// Densest LOCAL-model schedule: every vertex broadcasts a 3-word payload
/// for `rounds` rounds (2m messages per round), with no program-side
/// allocation -- the canonical workload for warm-loop regression tests.
class FloodAll : public dvc::sim::VertexProgram {
 public:
  explicit FloodAll(int rounds) : rounds_(rounds) {}
  std::string name() const override { return "flood"; }
  void begin(dvc::sim::Ctx& ctx) override { ctx.broadcast({1, 2, 3}); }
  void step(dvc::sim::Ctx& ctx, const dvc::sim::Inbox&) override {
    if (ctx.round() >= rounds_) ctx.halt();
    else ctx.broadcast({1, 2, 3});
  }

 private:
  int rounds_;
};

/// Port-scan oracle for the executor's delivery modes. Runtime::
/// set_fault_plan documents the contract this relies on: while ANY plan is
/// armed, the broadcast lane and grouped delivery are disabled -- every
/// broadcast is written one slot cell per port and every round delivers by
/// port scan over the live vertices' slots. This plan is armed but can
/// never fire -- its only entry is a stall scheduled at an unreachable
/// phase -- so a session carrying it runs the per-slot path, checks every
/// delivery boundary with the checksum lane, and must reproduce colors,
/// RunStats and PhaseLog bit for bit. Install it with Knobs::fault_plan or
/// Runtime::set_fault_plan.
inline dvc::sim::FaultPlan port_scan_oracle_plan() {
  dvc::sim::FaultPlan plan;
  plan.scheduled.push_back({dvc::sim::FaultKind::kStall,
                            /*phase=*/std::numeric_limits<int>::max(),
                            /*round=*/0, /*shard=*/-1, /*salt=*/-1});
  return plan;
}

}  // namespace dvc_test
