#include "vgpu/mem/coalescer.h"

#include <algorithm>
#include <bit>

namespace adgraph::vgpu {

CoalesceResult Coalesce(const Lanes<uint64_t>& addrs, LaneMask active,
                        uint32_t access_bytes, uint32_t segment_bytes) {
  CoalesceResult result;
  if (active == 0) return result;
  const uint32_t shift = static_cast<uint32_t>(std::countr_zero(segment_bytes));
  uint64_t* out = result.segment_addrs.data();
  uint32_t n = 0;
  bool presorted = true;
  for (LaneMask m = active; m != 0; m &= m - 1) {
    uint32_t lane = static_cast<uint32_t>(std::countr_zero(m));
    // An access can straddle a segment boundary; cover every touched one.
    uint64_t first = addrs[lane] >> shift;
    uint64_t last = (addrs[lane] + access_bytes - 1) >> shift;
    for (uint64_t seg = first; seg <= last; ++seg) {
      uint64_t addr = seg << shift;
      if (n > 0 && addr < out[n - 1]) presorted = false;
      out[n++] = addr;
    }
  }
  result.bytes_requested =
      static_cast<uint64_t>(PopCount(active)) * access_bytes;
  // Sequential access patterns arrive sorted; skip the sort for them.
  if (!presorted) std::sort(out, out + n);
  result.num_segments = static_cast<uint32_t>(std::unique(out, out + n) - out);
  result.bytes_transferred = static_cast<uint64_t>(result.num_segments)
                             << shift;
  return result;
}

CoalesceResult CoalesceUniform(uint64_t addr, uint32_t lanes,
                               uint32_t access_bytes, uint32_t segment_bytes) {
  CoalesceResult result;
  if (lanes == 0) return result;
  const uint32_t shift = static_cast<uint32_t>(std::countr_zero(segment_bytes));
  for (uint64_t seg = addr >> shift; seg <= (addr + access_bytes - 1) >> shift;
       ++seg) {
    result.segment_addrs[result.num_segments++] = seg << shift;
  }
  result.bytes_requested = static_cast<uint64_t>(lanes) * access_bytes;
  result.bytes_transferred = static_cast<uint64_t>(result.num_segments)
                             << shift;
  return result;
}

}  // namespace adgraph::vgpu
