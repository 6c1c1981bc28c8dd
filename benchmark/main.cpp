// Benchmark driver: runs one workload and prints its metrics.
//
//   dvcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--source <id>]
//
// Prints a host fingerprint line, one line per metric, any failed checks,
// and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 gives the end-to-end metrics of untraced runs, --trace 1 the
// per-layer metrics of the traced run. Exit status 1 when any check failed,
// 2 on bad arguments. Normally started by run.py, which builds this binary
// and keeps the metrics BENCHMARK.json names.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "workloads.hpp"

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000, nullptr);
  if (max_leaf >= 0x80000004) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand = brand.c_str();  // drop trailing NULs
    const auto first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
  }
#endif
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "dvcbench: " << why
            << "\nusage: dvcbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--source <id>]\nworkloads:";
  for (const auto& [name, fn] : dvcbench::workloads()) std::cerr << ' ' << name;
  std::cerr << '\n';
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string source = "unknown";
  dvcbench::Config cfg;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage("missing value for " + key);
    }
    try {
      std::size_t used = 0;
      if (key == "--workload") {
        workload = value;
      } else if (key == "--seed") {
        cfg.seed = std::stoull(value, &used);
        have_seed = used == value.size() && value[0] != '-';
      } else if (key == "--seconds") {
        cfg.seconds = std::stod(value, &used);
        have_seconds = used == value.size() && cfg.seconds > 0.0;
      } else if (key == "--trace") {
        have_trace = value == "0" || value == "1";
        cfg.trace = value == "1";
      } else if (key == "--source") {
        source = value;
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::exception&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds and --trace take a non-negative integer, a "
          "positive number and 0 or 1");
  }
  dvcbench::WorkloadFn fn = nullptr;
  for (const auto& [name, f] : dvcbench::workloads()) {
    if (name == workload) fn = f;
  }
  if (fn == nullptr) usage("unknown workload '" + workload + "'");

#ifndef DVCBENCH_BUILD_TYPE
#define DVCBENCH_BUILD_TYPE "unknown"
#endif
  // Runs are comparable only when every field matches.
  std::cout << "fingerprint {\"nproc\": " << std::thread::hardware_concurrency()
            << ", \"cpu\": \"" << json_escape(cpu_model())
            << "\", \"build_type\": \"" << DVCBENCH_BUILD_TYPE
            << "\", \"compiler\": \"" << json_escape(__VERSION__)
            << "\", \"source\": \"" << json_escape(source) << "\"}\n";
  std::cout << "workload " << workload << " seed " << cfg.seed << " seconds "
            << cfg.seconds << " trace " << (cfg.trace ? 1 : 0) << std::endl;

  dvcbench::Report rep;
  try {
    rep = fn(cfg);
  } catch (const std::exception& e) {
    std::cerr << "dvcbench: " << workload << " threw: " << e.what() << '\n';
    return 1;
  }
  rep.set("error_rate",
          rep.attempted == 0
              ? 1.0
              : static_cast<double>(rep.failed) / static_cast<double>(rep.attempted),
          "ratio");
  for (const auto& [name, m] : rep.metrics) {
    if (!std::isfinite(m.value)) rep.fail("metric " + name + " is not finite");
  }

  for (const std::string& note : rep.notes) std::cout << note << '\n';
  for (const auto& [name, m] : rep.metrics) {
    std::cout << "  " << name << " = " << number(m.value) << ' ' << m.unit << '\n';
  }
  for (const std::string& e : rep.errors) std::cout << "FAILED: " << e << '\n';
  const bool correct = rep.failed == 0 && rep.attempted > 0;
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
       << ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, m] : rep.metrics) {
    json << sep << '"' << json_escape(name) << "\": {\"value\": " << number(m.value)
         << ", \"unit\": \"" << m.unit << "\"}";
    sep = ", ";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}
