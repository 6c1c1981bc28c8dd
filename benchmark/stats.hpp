// Order statistics and counter arithmetic for the benchmark driver.
//
// Quartiles follow Python's statistics.quantiles(data, n=4) (its default
// "exclusive" method), so the spread this driver prints for a run's samples
// is computed the same way as the spread across runs that the benchmark's
// acceptance check uses. Percentiles of latency samples are nearest-rank:
// every reported value is one that was actually measured.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dvcbench {

/// Median of the samples (mean of the two middle values for an even count);
/// 0 for an empty set.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// First, second and third quartile as Python's
/// statistics.quantiles(v, n=4) computes them. One sample gives that sample
/// three times; an empty set gives zeros.
inline std::array<double, 3> quartiles(std::vector<double> v) {
  std::array<double, 3> q{};
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  const auto ld = static_cast<std::int64_t>(v.size());
  if (ld == 1) return {v[0], v[0], v[0]};
  const std::int64_t m = ld + 1;
  constexpr std::int64_t n = 4;
  for (std::int64_t i = 1; i < n; ++i) {
    std::int64_t j = i * m / n;
    j = std::clamp<std::int64_t>(j, 1, ld - 1);
    const std::int64_t delta = i * m - j * n;
    q[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(n - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        static_cast<double>(n);
  }
  return q;
}

/// Nearest-rank percentile, p in [0, 100]: the ceil(p/100 * N)-th smallest
/// sample (1-based, at least the first). 0 for an empty set.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double exact = std::clamp(p, 0.0, 100.0) / 100.0 *
                       static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(exact));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// Growth of a monotone counter over a measured window. A counter that
/// went backwards (a reset between the snapshots) yields 0 rather than a
/// wrapped unsigned value.
inline std::uint64_t delta(std::uint64_t before, std::uint64_t after) {
  return after >= before ? after - before : 0;
}

/// part / whole, or 0 when nothing was counted.
inline double ratio(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace dvcbench
