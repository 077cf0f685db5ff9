#ifndef ADGRAPH_UTIL_NUMBERS_H_
#define ADGRAPH_UTIL_NUMBERS_H_

/// \file
/// The one parser for numbers that arrive from outside the program: a
/// command-line flag, a job-line value, a SUBMIT field, a MUTATE id and a
/// tenants-file key are all read through these two functions.

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace adgraph {

/// strtod parse of an untrusted `key=value` value: the whole of `value`
/// must be a number (NaN and infinities included — callers range-check),
/// else kInvalidArgument naming `key`.  Never throws.
Result<double> ParseNumericValue(const std::string& key,
                                 const std::string& value);

/// The largest integer an outside number may carry: 2^53 - 1.  Every
/// integer up to it is exact as a double, and none of them is the rounding
/// of a different one, as 2^53 is of 2^53 + 1.
inline constexpr uint64_t kMaxExactInteger = (uint64_t{1} << 53) - 1;

/// Range-checked conversion of an outside number to an integer field with
/// maximum `max`: NaN, infinities, fractions, negatives and values above
/// `max` or kMaxExactInteger are kInvalidArgument naming `key` (a bare cast
/// of such a double is undefined behaviour, and a larger one may have been
/// rounded).  Every integer read from outside goes through here.
Result<uint64_t> CheckedInteger(std::string_view key, double value,
                                uint64_t max = kMaxExactInteger);

}  // namespace adgraph

#endif  // ADGRAPH_UTIL_NUMBERS_H_
