#include "vgpu/mem/cache.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <new>

#include "util/logging.h"

namespace adgraph::vgpu {
namespace {
constexpr uint64_t kMax32 = std::numeric_limits<uint32_t>::max();

/// log2 of the line size, which must be a power of two.
uint32_t LineShift(uint32_t line_bytes) {
  ADGRAPH_CHECK(std::has_single_bit(line_bytes))
      << "cache line of " << line_bytes << " bytes is not a power of two";
  return static_cast<uint32_t>(std::countr_zero(line_bytes));
}
}  // namespace

CacheModel::CacheModel(uint64_t size_bytes, uint32_t line_bytes,
                       uint32_t associativity)
    : line_shift_(LineShift(line_bytes)),
      assoc_(std::max<uint32_t>(associativity, 1)),
      num_sets_(size_bytes / (static_cast<uint64_t>(line_bytes) * assoc_)),
      pow2_sets_(std::has_single_bit(num_sets_)) {
  if (!pow2_sets_ && num_sets_ > 0 && num_sets_ <= kMax32) {
    set_magic_ = std::numeric_limits<uint64_t>::max() / num_sets_ + 1;
  }
  if (num_sets_ > 0) {
    // A zeroed way is invalid: its stamp 0 is not above valid_after_.
    ways_.reset(
        static_cast<Way*>(std::calloc(num_sets_ * assoc_, sizeof(Way))));
    if (!ways_) throw std::bad_alloc();
  }
}

uint64_t CacheModel::SetOf(uint64_t line) const {
  if (pow2_sets_) return line & (num_sets_ - 1);
  if (set_magic_ == 0 || line > kMax32) return line % num_sets_;
  const uint64_t low = set_magic_ * line;
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(low) * num_sets_) >> 64);
}

bool CacheModel::Access(uint64_t addr) {
  if (num_sets_ == 0) {
    ++misses_;
    return false;
  }
  const uint64_t line = addr >> line_shift_;
  Way* base = &ways_[SetOf(line) * assoc_];
  ++stamp_;
  // Hit scan first (the common case); only a miss pays the victim scan.
  for (uint32_t w = 0; w < assoc_; ++w) {
    if (base[w].line == line && base[w].lru > valid_after_) {
      base[w].lru = stamp_;
      ++hits_;
      return true;
    }
  }
  // The first invalid way, else the least recently used: an invalid way's
  // stamp is below every valid way's, so one scan for an older stamp,
  // stopped at the first invalid victim, finds it.
  Way* victim = base;
  for (uint32_t w = 1; w < assoc_ && victim->lru > valid_after_; ++w) {
    if (base[w].lru < victim->lru) victim = &base[w];
  }
  victim->line = line;
  victim->lru = stamp_;
  ++misses_;
  return false;
}

}  // namespace adgraph::vgpu
