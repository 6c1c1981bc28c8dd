#include "common/cli.hpp"

#include <cerrno>
#include <cstdlib>
#include <string_view>

#include "common/check.hpp"

namespace dvc {

Cli::Cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    DVC_REQUIRE(arg.size() > 2 && arg.substr(0, 2) == "--",
                std::string("unexpected argument '")
                    .append(arg)
                    .append("': flags take the form --key=value"));
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    values_.insert_or_assign(std::string(arg.substr(0, eq)),
                             eq == std::string_view::npos
                                 ? std::string("1")
                                 : std::string(arg.substr(eq + 1)));
  }
}

std::int64_t Cli::get_int(const std::string& key, std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const char* s = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(s, &end, 10);
  DVC_REQUIRE(end != s && *end == '\0' && errno != ERANGE,
              "--" + key + " expects an integer, got '" + it->second + "'");
  return value;
}

double Cli::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const char* s = it->second.c_str();
  char* end = nullptr;
  const double value = std::strtod(s, &end);
  DVC_REQUIRE(end != s && *end == '\0',
              "--" + key + " expects a number, got '" + it->second + "'");
  return value;
}

std::string Cli::get_string(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

bool Cli::has(const std::string& key) const { return values_.count(key) > 0; }

}  // namespace dvc
