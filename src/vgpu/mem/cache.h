#ifndef ADGRAPH_VGPU_MEM_CACHE_H_
#define ADGRAPH_VGPU_MEM_CACHE_H_

#include <cstdint>
#include <cstdlib>
#include <memory>

namespace adgraph::vgpu {

/// \brief Set-associative LRU cache model (tags only — data lives in the
/// AddressSpace; the cache decides hit/miss and eviction).
///
/// Used for the per-SM L1 and the device-wide L2.  Deterministic: hit/miss
/// outcomes depend only on the access sequence, which the simulator replays
/// in a fixed order.
///
/// Every access is on the simulator's hottest path, so the address math
/// has no division: the line size is a power of two (a shift), the set
/// index is a mask when the set count is a power of two and a
/// multiply-based exact modulus otherwise, and each way is tagged with its
/// full line number.  The ways come zeroed from calloc, so a large cache
/// costs host pages only for the sets a kernel touches.
class CacheModel {
 public:
  /// `size_bytes` is rounded down to a whole number of sets; a zero-sized
  /// cache never hits.  `line_bytes` must be a power of two (checked).
  CacheModel(uint64_t size_bytes, uint32_t line_bytes, uint32_t associativity);

  /// Touches the line containing `addr`; returns true on hit.  On miss the
  /// line is filled (into the first invalid way, else over the least
  /// recently used one).  Writes are write-allocate.
  bool Access(uint64_t addr);

  /// Invalidates all lines in O(1) (between kernels if desired; graph
  /// kernels keep caches warm across launches of the same algorithm, as
  /// hardware does).
  void Clear() { valid_after_ = stamp_; }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint32_t line_bytes() const { return 1u << line_shift_; }

 private:
  /// One way.  `lru` is the stamp of its last access and doubles as its
  /// valid bit: the way holds `line` only if `lru > valid_after_`, so a
  /// Clear is one store and an invalid way is always older than a valid
  /// one.
  struct Way {
    uint64_t line = 0;  ///< full line number (addr >> line_shift_)
    uint64_t lru = 0;   ///< last-access stamp
  };

  uint64_t SetOf(uint64_t line) const;

  uint32_t line_shift_;
  uint32_t assoc_;
  uint64_t num_sets_;
  bool pow2_sets_;  ///< set index = line & (num_sets_ - 1)
  /// ceil(2^64 / num_sets_) for a set count that is not a power of two and
  /// fits 32 bits, else 0: then `line % num_sets_` is exact by one 64-bit
  /// and one 128-bit multiply for every line below 2^32 (Lemire, Kaser and
  /// Kurz, "Faster Remainder by Direct Computation", 2019).  Lines past
  /// 2^32 take the plain `%`.
  uint64_t set_magic_ = 0;
  uint64_t stamp_ = 0;
  uint64_t valid_after_ = 0;  ///< stamp_ at the last Clear()
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  struct FreeWays {
    void operator()(Way* ways) const { std::free(ways); }
  };
  std::unique_ptr<Way[], FreeWays> ways_;  // num_sets_ x assoc_, calloc'd
};

}  // namespace adgraph::vgpu

#endif  // ADGRAPH_VGPU_MEM_CACHE_H_
