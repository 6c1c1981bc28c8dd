// Tiny --key=value flag parser for examples and benchmark binaries. Any
// argument not starting with "--" (e.g. the space form "--n 4000") and any
// get_int/get_double value that does not parse in full fail with
// precondition_error; a bare "--flag" reads as "1".
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace dvc {

class Cli {
 public:
  Cli(int argc, char** argv);

  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  std::string get_string(const std::string& key, const std::string& fallback) const;
  bool has(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace dvc
