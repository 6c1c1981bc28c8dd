// Shared test infrastructure for the allocation-regression suites
// (test_engine_determinism, test_runtime). Include from exactly one TU per
// test binary: this header DEFINES the global operator new/delete
// replacements.
//
// Counters:
//   * dvc_test::alloc_count()     -- every allocation in the binary;
//   * dvc_test::machinery_allocs() -- only allocations made while the
//     calling thread is inside runtime machinery
//     (sim::Runtime::in_machinery()): the round loop, delivery sweep, send
//     bookkeeping and phase logging, but not program callbacks or driver
//     code.
//
// Also home of the delivery-mode oracle (port_scan_oracle_plan), which the
// executor bit-identity suites compare against.
#pragma once

#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>

#include "sim/runtime.hpp"
#include "test_helpers.hpp"

namespace dvc_test {

inline std::atomic<std::uint64_t> g_alloc_count{0};
inline std::atomic<std::uint64_t> g_machinery_allocs{0};

inline std::uint64_t alloc_count() {
  return g_alloc_count.load(std::memory_order_relaxed);
}
inline std::uint64_t machinery_allocs() {
  return g_machinery_allocs.load(std::memory_order_relaxed);
}

inline void count_alloc() {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (dvc::sim::Runtime::in_machinery()) {
    g_machinery_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

/// Port-scan oracle for the executor's delivery modes. Runtime::
/// set_fault_plan documents the contract this relies on: while ANY plan is
/// armed, the broadcast lane and grouped delivery are disabled -- every
/// broadcast is written one slot cell per port and every round delivers by
/// port scan over the live vertices' slots. This plan is armed but can
/// never fire -- its only entry is a stall scheduled at an unreachable
/// phase, and the checksum lane is off -- so a session carrying it runs
/// the per-slot path and must reproduce colors, RunStats and PhaseLog bit
/// for bit. Install it with Knobs::fault_plan or Runtime::set_fault_plan.
inline dvc::sim::FaultPlan port_scan_oracle_plan() {
  dvc::sim::FaultPlan plan;
  plan.checksum = false;
  plan.scheduled.push_back({dvc::sim::FaultKind::kStall,
                            /*phase=*/std::numeric_limits<int>::max(),
                            /*round=*/0, /*shard=*/-1, /*salt=*/-1});
  return plan;
}

}  // namespace dvc_test

void* operator new(std::size_t size) {
  dvc_test::count_alloc();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  dvc_test::count_alloc();
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align) {
  dvc_test::count_alloc();
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
