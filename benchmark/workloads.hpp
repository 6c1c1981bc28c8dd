// The benchmark's workloads. Each one builds its inputs from a seed, sets
// up, measures for a fixed time, checks every coloring it produces, and
// returns its metrics by name. See README.md for why each workload exists
// and which layer each metric describes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace dvcbench {

struct Config {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// false: end-to-end metrics from untraced runs. true: the traced run,
  /// which reports the per-layer metrics.
  bool trace = false;
  /// Shrinks every input to seconds-scale sizes (self-test only). The
  /// recorded exact colors/rounds apply to full-size inputs only.
  bool smoke = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Report {
  /// Colorings checked (set-up and measured runs; references excluded).
  std::int64_t attempted = 0;
  /// Colorings that failed a check.
  std::int64_t failed = 0;
  /// Failure descriptions, for the log.
  std::vector<std::string> errors;
  /// Lines for the log: sample sets with their count and quartiles.
  std::vector<std::string> notes;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(std::string why) {
    ++failed;
    if (errors.size() < 16) errors.push_back(std::move(why));
  }
};

using WorkloadFn = Report (*)(const Config&);

/// Every workload by name, in the order BENCHMARK.json lists them.
const std::vector<std::pair<std::string, WorkloadFn>>& workloads();

}  // namespace dvcbench
