// Hook-free shared test helpers. Safe to include from ANY test TU --
// unlike tests/test_support.hpp, which additionally defines the global
// operator new/delete replacements (one TU per binary) and includes this
// header for the helpers below.
#pragma once

#include <pthread.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstddef>
#include <fstream>
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

/// True under AddressSanitizer or ThreadSanitizer. Both reserve terabytes
/// of shadow address space, so an RLIMIT_AS cap cannot be applied.
constexpr bool kShadowSanitizer =
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    true;
#else
    false;
#endif

/// Caps the calling process's address space at its current size plus room
/// for about two default thread stacks, so that a loop spawning more
/// std::threads than that fails part-way with std::system_error. Call it
/// only in a forked child (e.g. inside EXPECT_EXIT).
inline void cap_address_space_near_two_thread_stacks() {
  pthread_attr_t attr;
  pthread_attr_init(&attr);
  std::size_t stack = 0;
  pthread_attr_getstacksize(&attr, &stack);
  pthread_attr_destroy(&attr);
  std::size_t pages = 0;
  std::ifstream("/proc/self/statm") >> pages;
  rlimit lim{};
  getrlimit(RLIMIT_AS, &lim);
  lim.rlim_cur = pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE)) +
                 2 * stack + stack / 2;
  setrlimit(RLIMIT_AS, &lim);
}

}  // namespace dvc_test
