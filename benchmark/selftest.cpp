// Self-test of the benchmark's own code: order statistics against values
// Python's statistics module gives, nearest-rank percentiles, counter
// deltas, and a seconds-scale smoke of every workload (untraced and traced)
// on shrunken inputs, with every correctness check on. Exits 1 on any
// failure.
//
//   .bench_build/cmake/dvcbench_selftest     (or: python3 benchmark/run.py --selftest)
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "stats.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cout << "FAIL: " << what << '\n';
  }
}

void expect_near(double got, double want, const std::string& what) {
  expect(std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want)),
         what + ": got " + std::to_string(got) + ", want " + std::to_string(want));
}

void test_order_statistics() {
  using dvcbench::median;
  using dvcbench::quartiles;
  expect_near(median({}), 0.0, "median of nothing");
  expect_near(median({3.0}), 3.0, "median of one");
  expect_near(median({4.0, 1.0, 3.0, 2.0}), 2.5, "median of an even count");
  expect_near(median({5.0, 1.0, 4.0}), 4.0, "median of an odd count");

  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  const auto q10 = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  expect_near(q10[0], 2.75, "q1 of 1..10");
  expect_near(q10[1], 5.5, "q2 of 1..10");
  expect_near(q10[2], 8.25, "q3 of 1..10");
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const auto q2 = quartiles({2, 1});
  expect_near(q2[0], 0.75, "q1 of two");
  expect_near(q2[2], 2.25, "q3 of two");
  // statistics.quantiles([1.5, 2.0, 7.0, 9.5, 10.0], n=4) == [1.75, 7.0, 9.75]
  const auto q5 = quartiles({9.5, 1.5, 10.0, 2.0, 7.0});
  expect_near(q5[0], 1.75, "q1 of five");
  expect_near(q5[1], 7.0, "q2 of five");
  expect_near(q5[2], 9.75, "q3 of five");
  expect_near(quartiles({4.0})[2], 4.0, "quartiles of one");
}

void test_percentiles() {
  using dvcbench::percentile;
  std::vector<double> v;
  for (int i = 20; i >= 1; --i) v.push_back(i);
  expect_near(percentile(v, 50), 10, "p50 of 1..20");
  expect_near(percentile(v, 95), 19, "p95 of 1..20");
  expect_near(percentile(v, 99), 20, "p99 of 1..20");
  expect_near(percentile(v, 100), 20, "p100 is the maximum");
  expect_near(percentile(v, 0), 1, "p0 is the minimum");
  expect_near(percentile({1, 2, 3, 4}, 50), 2, "p50 of 1..4 is a sample");
  expect_near(percentile({}, 50), 0, "percentile of nothing");
}

void test_counters() {
  using dvcbench::delta;
  using dvcbench::ratio;
  expect(delta(100, 196) == 96, "delta over a window");
  expect(delta(196, 100) == 0, "a reset counter gives 0, not a wrapped value");
  expect_near(ratio(189 - 96, 192 - 96), 93.0 / 96.0, "ratio of two deltas");
  expect_near(ratio(5, 0), 0.0, "ratio over an empty base");
}

void smoke_workloads() {
  const char* e2e[] = {"wall_s",     "rounds_per_s", "msgs_per_s",  "colors",
                       "rounds",     "setup_s",      "peak_rss_mb", "jobs_per_s",
                       "job_p50_ms", "job_p95_ms"};
  for (const auto& [name, fn] : dvcbench::workloads()) {
    for (const bool trace : {false, true}) {
      dvcbench::Config cfg;
      cfg.seed = 3;
      cfg.seconds = 0.2;
      cfg.trace = trace;
      cfg.smoke = true;
      const dvcbench::Report rep = fn(cfg);
      const std::string tag = name + (trace ? " (traced)" : "");
      expect(rep.attempted > 0 && rep.failed == 0,
             tag + ": " + std::to_string(rep.failed) + " of " +
                 std::to_string(rep.attempted) + " checks failed");
      for (const std::string& e : rep.errors) std::cout << "  " << tag << ": " << e << '\n';
      const auto value = [&](const std::string& m) {
        const auto it = rep.metrics.find(m);
        return it == rep.metrics.end() ? -1.0 : it->second.value;
      };
      if (!trace) {
        for (const char* m : e2e) expect(value(m) > 0, tag + ": " + m + " missing or not positive");
        continue;
      }
      // The traced run accounts for its own wall time.
      double accounted = value("pipeline.driver_ms");
      for (const auto& [m, v] : rep.metrics) {
        if (m.rfind("phase.", 0) == 0 && m.size() > 3 && m.substr(m.size() - 3) == ".ms") {
          accounted += v.value;
        }
      }
      const double wall = value("trace.wall_ms");
      expect(wall > 0 && std::abs(accounted - wall) <= 0.05 * wall,
             tag + ": phases + driver = " + std::to_string(accounted) +
                 " ms of a traced wall of " + std::to_string(wall) + " ms");
      expect(value("pipeline.phases") > 0, tag + ": no phases traced");
      expect(value("sim.work_items") > 0, tag + ": no work counted");
    }
  }
}

}  // namespace

int main() {
  test_order_statistics();
  test_percentiles();
  test_counters();
  smoke_workloads();
  std::cout << (failures == 0 ? "selftest OK\n" : "selftest FAILED\n");
  return failures == 0 ? 0 : 1;
}
