#include "util/flags.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/numbers.h"

namespace adgraph {
namespace {

using Kind = FlagSpec::Kind;

bool IsTrue(const std::string& v) {
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

/// Whether `spec` takes `value`; sets `*number` for kInt and kNumber.
bool Accepts(const FlagSpec& spec, const std::string& value, double* number) {
  switch (spec.kind) {
    case Kind::kBool:
      return IsTrue(value) || value == "false" || value == "0" ||
             value == "no" || value == "off";
    case Kind::kChoice:
      return std::find(spec.choices.begin(), spec.choices.end(), value) !=
             spec.choices.end();
    case Kind::kInt:
    case Kind::kNumber: {
      auto parsed = ParseNumericValue(spec.name, value);
      if (!parsed.ok()) return false;
      *number = *parsed;
      // An integer's offset from `min` is a whole number in [0, max - min],
      // which is what CheckedInteger reads.
      return spec.kind == Kind::kInt
                 ? CheckedInteger(spec.name, *number - spec.min,
                                  static_cast<uint64_t>(spec.max - spec.min))
                       .ok()
                 : std::isfinite(*number) && *number >= spec.min &&
                       *number <= spec.max;
    }
    default:  // kString, kPositional
      return true;
  }
}

/// What `spec` takes, as a refusal states it ("an integer in [1, 31]").
std::string Wants(const FlagSpec& spec) {
  if (spec.kind == Kind::kBool) return "true or false";
  if (spec.kind == Kind::kChoice) {
    std::string wants = "one of ";
    for (const std::string& choice : spec.choices) {
      wants += (&choice == &spec.choices.front() ? "" : "|") + choice;
    }
    return wants;
  }
  char range[64];
  std::snprintf(range, sizeof(range), " in [%g, %g]", spec.min, spec.max);
  if (spec.max == FlagSpec::kNoMax) {
    std::snprintf(range, sizeof(range), " in [%g, 2^53 - 1]", spec.min);
  }
  return (spec.kind == Kind::kInt ? "an integer" : "a number") +
         std::string(range);
}

}  // namespace

Result<Flags> Flags::Parse(int argc, const char* const* argv,
                           const std::vector<FlagSpec>& declared) {
  // Positional() is the one declaration with an empty name.
  auto find = [&](const std::string& name) -> const FlagSpec* {
    for (const FlagSpec& spec : declared) {
      if (spec.name == name) return &spec;
    }
    return nullptr;
  };
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      if (find("") == nullptr) {
        return Status::InvalidArgument("unexpected argument '" + arg + "'");
      }
      flags.positional_.push_back(std::move(arg));
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string key =
        arg.substr(2, eq == std::string::npos ? eq : eq - 2);
    const FlagSpec* spec = key.empty() ? nullptr : find(key);
    if (spec == nullptr) {
      return Status::InvalidArgument("unknown flag '" + arg.substr(0, eq) +
                                     "'");
    }
    std::string value;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (spec->kind == Kind::kBool) {
      value = "true";
    } else if (i + 1 < argc && argv[i + 1][0] != '-') {
      value = argv[++i];
    } else {
      return Status::InvalidArgument("--" + key + " wants a value");
    }
    double number = 0;
    if (!Accepts(*spec, value, &number)) {
      return Status::InvalidArgument("--" + key + " wants " + Wants(*spec) +
                                     ", got '" + value + "'");
    }
    if (spec->kind == Kind::kInt || spec->kind == Kind::kNumber) {
      flags.numbers_[key] = number;
    }
    flags.values_[key] = std::move(value);
  }
  return flags;
}

bool Flags::Has(const std::string& key) const { return values_.count(key) > 0; }

std::string Flags::GetString(const std::string& key,
                             const std::string& default_value) const {
  auto it = values_.find(key);
  return it == values_.end() ? default_value : it->second;
}

int64_t Flags::GetInt(const std::string& key, int64_t default_value) const {
  // Declared bounds lie within +-kNoMax, so the cast is exact for a kInt.
  auto it = numbers_.find(key);
  return it == numbers_.end() ? default_value
                              : static_cast<int64_t>(it->second);
}

double Flags::GetDouble(const std::string& key, double default_value) const {
  auto it = numbers_.find(key);
  return it == numbers_.end() ? default_value : it->second;
}

bool Flags::GetBool(const std::string& key, bool default_value) const {
  auto it = values_.find(key);
  return it == values_.end() ? default_value : IsTrue(it->second);
}

}  // namespace adgraph
