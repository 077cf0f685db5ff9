#ifndef ADGRAPH_UTIL_FLAGS_H_
#define ADGRAPH_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace adgraph {

/// \brief Tiny `--key=value` command-line parser for the benchmark and
/// example binaries.
///
/// Accepted forms: `--key=value`, `--key value`, and bare `--flag`
/// (value "true").  Positional arguments are collected in order.
class Flags {
 public:
  /// Parses argv (skipping argv[0]).  Unknown flags are kept; callers decide
  /// what is legal.  Fails on malformed input such as `--=x`.
  static Result<Flags> Parse(int argc, const char* const* argv);

  bool Has(const std::string& key) const;
  /// Every `--key` given, sorted.
  std::vector<std::string> keys() const;

  /// Typed getters with defaults.
  std::string GetString(const std::string& key,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& key, int64_t default_value) const;
  double GetDouble(const std::string& key, double default_value) const;
  bool GetBool(const std::string& key, bool default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace adgraph

#endif  // ADGRAPH_UTIL_FLAGS_H_
