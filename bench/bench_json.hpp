// Minimal machine-readable benchmark output: every bench_* binary appends
// flat records and writes one BENCH_<name>.json file (a JSON array of
// objects) into the working directory. Keys are stable; values are strings,
// integers or doubles.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace dvc::benchio {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

class JsonRecord {
 public:
  JsonRecord& field(const std::string& key, const std::string& value) {
    add(key, '"' + escape(value) + '"');
    return *this;
  }
  JsonRecord& field(const std::string& key, const char* value) {
    return field(key, std::string(value));
  }
  JsonRecord& field(const std::string& key, std::int64_t value) {
    add(key, std::to_string(value));
    return *this;
  }
  JsonRecord& field(const std::string& key, std::uint64_t value) {
    add(key, std::to_string(value));
    return *this;
  }
  JsonRecord& field(const std::string& key, int value) {
    return field(key, static_cast<std::int64_t>(value));
  }
  JsonRecord& field(const std::string& key, double value) {
    std::ostringstream os;
    os.precision(6);
    os << std::fixed << value;
    add(key, os.str());
    return *this;
  }

  std::string str() const { return "{" + body_ + "}"; }

 private:
  static std::string escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }
  void add(const std::string& key, const std::string& rendered) {
    if (!body_.empty()) body_ += ", ";
    body_ += '"' + escape(key) + "\": " + rendered;
  }
  std::string body_;
};

/// Collects records and writes BENCH_<name>.json on destruction.
class JsonSink {
 public:
  explicit JsonSink(const std::string& bench_name)
      : path_("BENCH_" + bench_name + ".json") {}

  void add(const JsonRecord& record) { records_.push_back(record.str()); }

  ~JsonSink() {
    std::ofstream out(path_);
    out << "[\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      out << "  " << records_[i] << (i + 1 < records_.size() ? "," : "") << "\n";
    }
    out << "]\n";
    std::cout << "wrote " << path_ << " (" << records_.size() << " records)\n";
  }

 private:
  std::string path_;
  std::vector<std::string> records_;
};

}  // namespace dvc::benchio
