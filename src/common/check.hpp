// Checked-invariant macros for the dvc library.
//
// DVC_REQUIRE  -- precondition on caller-supplied arguments; always on.
// DVC_ENSURE   -- internal invariant / postcondition; always on.
// DVC_CHECK    -- cheap always-on guard for hot-path narrowing/overflow
//                 sites (a predictable compare+branch); throws the same
//                 invariant_error as DVC_ENSURE so an overflow that could
//                 otherwise be silent UB surfaces as a structured error.
//
// All throw std::logic_error subclasses so that misuse is diagnosable in
// tests and never silently corrupts a simulation.
#pragma once

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

namespace dvc {

/// Thrown when a caller violates a documented precondition.
class precondition_error : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Thrown when an internal invariant fails (a library bug or an input that
/// violates an algorithm's structural assumption, e.g. an arboricity bound
/// that is smaller than the true arboricity).
class invariant_error : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Marker base for errors caused by injected or environmental faults (a
/// failed shard thread, a damaged wire frame, an allocation failure) rather
/// than logic violations. Unlike invariant_error these are retry-safe: the
/// computation that raised one is expected to succeed if re-run on a fresh
/// session, so the service layer classifies subclasses -- together with
/// std::bad_alloc -- as transient and eligible for its RetryPolicy. Derives
/// from std::runtime_error, NOT std::logic_error: a fault is an event, not
/// a bug.
class transient_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Raised when a checksum-guarded byte stream does not match its bytes: a
/// truncated or corrupted wire frame. Lives here (not dist/) so the shared
/// serialization layer (common/wire.hpp) can throw it without depending on
/// the transport.
class corruption_error : public transient_error {
 public:
  corruption_error(const std::string& what, std::string phase_label, int phase,
                   int round)
      : transient_error(what),
        phase_label(std::move(phase_label)),
        phase(phase),
        round(round) {}

  std::string phase_label;
  int phase;  ///< 0-based phase index (-1 when the frame is not phase-scoped)
  int round;  ///< round of the damaged frame (-1 outside any round)
};

namespace detail {

/// splitmix64-based combiner shared by Graph::digest(), the fault-decision
/// hashes, and the wire frame checksum: finalizes `x` through the
/// splitmix64 permutation, then folds it into the running hash `h` with a
/// position-dependent combine so equal multisets of values at different
/// stream positions do not collide trivially.
constexpr std::uint64_t digest_mix(std::uint64_t h, std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return (h ^ x) * 0x2545f4914f6cdd1dULL + 0x9e3779b97f4a7c15ULL;
}

[[noreturn]] inline void fail_require(const char* expr, const char* file, int line,
                                      const std::string& msg) {
  std::ostringstream os;
  os << "precondition failed: " << expr << " at " << file << ':' << line;
  if (!msg.empty()) os << " -- " << msg;
  throw precondition_error(os.str());
}

[[noreturn]] inline void fail_ensure(const char* expr, const char* file, int line,
                                     const std::string& msg) {
  std::ostringstream os;
  os << "invariant failed: " << expr << " at " << file << ':' << line;
  if (!msg.empty()) os << " -- " << msg;
  throw invariant_error(os.str());
}
}  // namespace detail

}  // namespace dvc

#define DVC_REQUIRE(cond, msg)                                              \
  do {                                                                      \
    if (!(cond)) ::dvc::detail::fail_require(#cond, __FILE__, __LINE__, (msg)); \
  } while (0)

#define DVC_ENSURE(cond, msg)                                               \
  do {                                                                      \
    if (!(cond)) ::dvc::detail::fail_ensure(#cond, __FILE__, __LINE__, (msg)); \
  } while (0)

#define DVC_CHECK(cond, msg)                                                \
  do {                                                                      \
    if (!(cond)) [[unlikely]]                                               \
      ::dvc::detail::fail_ensure(#cond, __FILE__, __LINE__, (msg));         \
  } while (0)
