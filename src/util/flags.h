#ifndef ADGRAPH_UTIL_FLAGS_H_
#define ADGRAPH_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/numbers.h"
#include "util/status.h"

namespace adgraph {

/// One flag a binary accepts: its name and the kind of value it takes.
struct FlagSpec {
  enum class Kind { kString, kBool, kInt, kNumber, kChoice, kPositional };

  /// The default upper bound, 2^53 - 1: no integer up to it is the
  /// rounding of a different one by ParseNumericValue.
  static constexpr int64_t kNoMax = kMaxExactInteger;

  std::string name;
  Kind kind;
  double min, max;                   ///< kInt, kNumber: the closed range
  std::vector<std::string> choices;  ///< kChoice

  static FlagSpec String(std::string name) {
    return {std::move(name), Kind::kString, 0, 0, {}};
  }
  /// `--name` alone means true; a value must be spelled true|1|yes|on or
  /// false|0|no|off.  Never takes the next argument as its value.
  static FlagSpec Bool(std::string name) {
    return {std::move(name), Kind::kBool, 0, 0, {}};
  }
  /// An integer in [min, max], read as job-line integers are
  /// (CheckedInteger), so `1e1` is 10; |min| is at most kNoMax.
  static FlagSpec Int(std::string name, int64_t min, int64_t max = kNoMax) {
    return {std::move(name), Kind::kInt, static_cast<double>(min),
            static_cast<double>(max), {}};
  }
  /// A finite number in [min, max]; |min| and |max| are at most kNoMax.
  static FlagSpec Number(std::string name, double min, double max = kNoMax) {
    return {std::move(name), Kind::kNumber, min, max, {}};
  }
  static FlagSpec Choice(std::string name, std::vector<std::string> choices) {
    return {std::move(name), Kind::kChoice, 0, 0, std::move(choices)};
  }
  /// Admits positional arguments, collected in order; without this
  /// declaration a positional argument is an error.
  static FlagSpec Positional() { return {"", Kind::kPositional, 0, 0, {}}; }
};

/// \brief `--key=value` command-line parser: a binary declares the flags it
/// accepts, and Parse refuses anything else.
///
/// Accepted forms: `--key=value`, `--key value` (a non-bool flag whose next
/// argument does not start with '-'), and bare `--flag` for a bool.
class Flags {
 public:
  /// Parses argv (skipping argv[0]) against `declared`.  An unknown flag, a
  /// positional argument where none is declared, a missing value or a value
  /// its kind refuses is kInvalidArgument naming the flag.
  static Result<Flags> Parse(int argc, const char* const* argv,
                             const std::vector<FlagSpec>& declared);

  bool Has(const std::string& key) const;

  /// Typed getters with defaults: the value given, already checked by
  /// Parse, or `default_value` when the flag was not given.
  std::string GetString(const std::string& key,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& key, int64_t default_value) const;
  double GetDouble(const std::string& key, double default_value) const;
  bool GetBool(const std::string& key, bool default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::map<std::string, double> numbers_;  ///< kInt and kNumber flags
  std::vector<std::string> positional_;
};

}  // namespace adgraph

#endif  // ADGRAPH_UTIL_FLAGS_H_
