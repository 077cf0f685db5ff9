#include "util/numbers.h"

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
  // 0x1p64 is the first double past every uint64_t; a `max` of
  // UINT64_MAX rounds up to it, so the explicit bound keeps the cast
  // below defined.
  if (!(value >= 0) || value >= 0x1p64 ||
      value > static_cast<double>(max) || value != std::floor(value)) {
    char shown[32];
    std::snprintf(shown, sizeof(shown), "%.17g", value);
    return Status::InvalidArgument("'" + std::string(key) +
                                   "' wants an integer in [0, " +
                                   std::to_string(max) + "], got " + shown);
  }
  return static_cast<uint64_t>(value);
}

}  // namespace adgraph
