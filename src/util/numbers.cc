#include "util/numbers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace adgraph {

Result<double> ParseNumericValue(const std::string& key,
                                 const std::string& value) {
  char* end = nullptr;
  double v = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size()) {
    return Status::InvalidArgument("param '" + key + "' wants a number, got '" +
                                   value + "'");
  }
  return v;
}

Result<uint64_t> CheckedInteger(std::string_view key, double value,
                                uint64_t max) {
  // Both bounds are exact doubles once `max` is capped, so the comparison
  // is exact and the cast below defined.
  max = std::min(max, kMaxExactInteger);
  if (!(value >= 0) || value > static_cast<double>(max) ||
      value != std::floor(value)) {
    char shown[32];
    std::snprintf(shown, sizeof(shown), "%.17g", value);
    return Status::InvalidArgument("'" + std::string(key) +
                                   "' wants an integer in [0, " +
                                   std::to_string(max) + "], got " + shown);
  }
  return static_cast<uint64_t>(value);
}

}  // namespace adgraph
