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
#pragma once

#include <atomic>
#include <cstdlib>
#include <new>

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
