#ifndef ADGRAPH_UTIL_NUMBERS_H_
#define ADGRAPH_UTIL_NUMBERS_H_

/// \file
/// The one parser for numbers that arrive from outside the program: a
/// command-line flag, a job-line value, a SUBMIT field, a MUTATE id and a
/// tenants-file key are all read through these two functions.

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "util/status.h"

namespace adgraph {

/// strtod parse of an untrusted `key=value` value: the whole of `value`
/// must be a number (NaN and infinities included — callers range-check),
/// else kInvalidArgument naming `key`.  Never throws.
Result<double> ParseNumericValue(const std::string& key,
                                 const std::string& value);

/// Range-checked conversion of an outside number to an integer field with
/// maximum `max`: NaN, infinities, fractions, negatives and values above
/// `max` are kInvalidArgument naming `key` (a bare cast of such a double is
/// undefined behaviour).  Every integer read from outside goes through here.
Result<uint64_t> CheckedInteger(
    std::string_view key, double value,
    uint64_t max = std::numeric_limits<uint64_t>::max());

}  // namespace adgraph

#endif  // ADGRAPH_UTIL_NUMBERS_H_
