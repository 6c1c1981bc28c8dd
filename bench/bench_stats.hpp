// Shared timing/aggregation helpers for the bench_* binaries:
//   * min_ms_over(reps, fn)      -- best-of-N wall time of a callable;
//   * peak_round_words / peak_active -- maxima of the RunStats per-round
//                                   series the records report;
//   * peak_rss_bytes()           -- the process's high-water resident set,
//                                   for the memory columns of the scale
//                                   bench.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench_json.hpp"
#include "sim/runtime.hpp"

namespace dvc::benchio {

/// Peak resident set size of the calling process in bytes (VmHWM from
/// /proc/self/status), or -1 where the value is UNAVAILABLE -- procfs
/// missing (non-Linux, restricted sandbox) or a kernel that omits the
/// VmHWM: field. -1 rather than 0 keeps "could not measure" distinguishable
/// from a genuinely tiny footprint in the JSON records; consumers treat
/// negative as absent. The kernel's high-water mark covers the whole
/// process lifetime, so benches that compare configurations should report
/// it once per process or treat it as a monotone ceiling, not a
/// per-section delta.
inline std::int64_t peak_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  std::int64_t bytes = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      char* end = nullptr;
      const unsigned long long kib =
          std::strtoull(line + 6, &end, 10);  // reported in kB
      // A field with no parseable number degrades to -1, same as absence.
      if (end != line + 6) bytes = static_cast<std::int64_t>(kib) * 1024;
      break;
    }
  }
  std::fclose(f);
  return bytes;
}

/// Best-of-N wall-clock milliseconds of `fn` (the standard microbench
/// reduction: the minimum is the least-noisy estimator of the true cost).
template <typename Fn>
double min_ms_over(int reps, Fn&& fn) {
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = Clock::now();
    fn();
    best = std::min(best, ms_since(t0));
  }
  return best;
}

/// Widest per-step payload burst of a phase (max of words_per_round).
inline std::uint64_t peak_round_words(const sim::RunStats& stats) {
  std::uint64_t peak = 0;
  for (const std::uint64_t w : stats.words_per_round) peak = std::max(peak, w);
  return peak;
}

/// Peak per-round live-vertex count of a phase (max of active_per_round).
inline std::int32_t peak_active(const sim::RunStats& stats) {
  std::int32_t peak = 0;
  for (const std::int32_t a : stats.active_per_round) peak = std::max(peak, a);
  return peak;
}

}  // namespace dvc::benchio
