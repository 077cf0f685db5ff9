#ifndef ADGRAPH_VGPU_MEM_COALESCER_H_
#define ADGRAPH_VGPU_MEM_COALESCER_H_

#include <array>
#include <cstdint>

#include "vgpu/lanes.h"

namespace adgraph::vgpu {

/// Result of coalescing one warp-level memory instruction.
///
/// Allocation-free: segments live in a fixed inline array (a 64-lane access
/// of up to 16 bytes can touch at most 128 segments), left uninitialised
/// past `num_segments`.  This sits on the hottest path of the simulator —
/// one instance per memory instruction.
struct CoalesceResult {
  /// Hard bound: kMaxWarpWidth lanes x (access straddling one boundary).
  static constexpr uint32_t kMaxSegments = 2 * kMaxWarpWidth;

  /// Distinct memory segments the instruction touches, ascending.  One
  /// segment = one memory transaction.
  std::array<uint64_t, kMaxSegments> segment_addrs;
  uint32_t num_segments = 0;
  uint64_t bytes_requested = 0;   ///< sum over active lanes of access size
  uint64_t bytes_transferred = 0; ///< segments x segment size

  uint32_t size() const { return num_segments; }
  uint64_t operator[](uint32_t i) const { return segment_addrs[i]; }
  const uint64_t* begin() const { return segment_addrs.data(); }
  const uint64_t* end() const { return segment_addrs.data() + num_segments; }
};

/// \brief Groups per-lane addresses into memory transactions (paper's
/// "irregular access" cost: scattered lanes touch many segments).
///
/// `segment_bytes` is the coalescing granularity (32 B sectors on modern
/// NVIDIA; we use the ArchConfig value for both vendors) and must be a
/// power of two (ValidateArchConfig and the Device constructor enforce it).
/// Efficiency metrics (gld_efficiency) fall directly out of
/// requested/transferred.
CoalesceResult Coalesce(const Lanes<uint64_t>& addrs, LaneMask active,
                        uint32_t access_bytes, uint32_t segment_bytes);

/// What Coalesce gives when `lanes` active lanes all access `addr`: the
/// one or two segments the access spans, computed once.
CoalesceResult CoalesceUniform(uint64_t addr, uint32_t lanes,
                               uint32_t access_bytes, uint32_t segment_bytes);

}  // namespace adgraph::vgpu

#endif  // ADGRAPH_VGPU_MEM_COALESCER_H_
