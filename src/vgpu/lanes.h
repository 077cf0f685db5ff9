#ifndef ADGRAPH_VGPU_LANES_H_
#define ADGRAPH_VGPU_LANES_H_

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

namespace adgraph::vgpu {

/// Maximum simulated warp/wavefront width (AMD-like wavefront = 64).
inline constexpr uint32_t kMaxWarpWidth = 64;

/// Bitset of active lanes within one warp/wavefront; bit i = lane i.
using LaneMask = uint64_t;

/// Mask with the low `width` bits set (width <= 64).
inline LaneMask FullMask(uint32_t width) {
  return width >= 64 ? ~0ull : ((1ull << width) - 1);
}

inline uint32_t PopCount(LaneMask m) {
  return static_cast<uint32_t>(std::popcount(m));
}

inline bool LaneActive(LaneMask m, uint32_t lane) {
  return (m >> lane) & 1ull;
}

/// \brief Per-lane register file entry: one value per lane of a warp.
///
/// Lanes is a plain value container; all arithmetic on it is performed via
/// the Ctx execution DSL so that every operation is counted and timed by
/// the simulator.
///
/// A new Lanes is uninitialised, like a hardware register: every DSL op
/// makes one, so a zero-fill would cost 64 stores per simulated
/// instruction.  The rule that makes this safe: a kernel never reads a
/// lane it did not write under the current mask or an enclosing one.  The DSL writes and reads only the active lanes; a value every
/// lane can read comes from Splat.  AddressSanitizer builds fill each new
/// Lanes with the byte 0xA5, so a kernel whose output or counters depend
/// on an unwritten lane changes its golden digests there.
template <typename T>
struct Lanes {
  std::array<T, kMaxWarpWidth> v;

  Lanes() {
#if defined(__SANITIZE_ADDRESS__)
    std::memset(static_cast<void*>(v.data()), 0xA5, sizeof(v));
#endif
  }

  T& operator[](uint32_t lane) { return v[lane]; }
  const T& operator[](uint32_t lane) const { return v[lane]; }

  /// All-lanes-same-value constructor helper.
  static Lanes Splat(T value) {
    Lanes out;
    out.v.fill(value);
    return out;
  }
};

}  // namespace adgraph::vgpu

#endif  // ADGRAPH_VGPU_LANES_H_
