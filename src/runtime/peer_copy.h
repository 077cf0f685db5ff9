#ifndef ADGRAPH_RUNTIME_PEER_COPY_H_
#define ADGRAPH_RUNTIME_PEER_COPY_H_

#include <cstdint>
#include <vector>

#include "trace/trace.h"
#include "util/status.h"
#include "vgpu/device.h"
#include "vgpu/interconnect.h"

namespace adgraph::rt {

/// \brief Device-to-device copy over the modeled interconnect (the
/// cudaMemcpyPeer of the simulator).
///
/// Moves `count` elements from `src` on `src_device` to `dst` on
/// `dst_device` and charges count*sizeof(T) bytes to the interconnect's
/// current exchange round on the (src_index -> dst_index) link.  Timing is
/// rolled up by Interconnect::EndRound, so back-to-back peer copies of one
/// bulk-synchronous round overlap instead of serializing.  Emits one span
/// on the interconnect track per copy.
template <typename T>
Status PeerCopy(vgpu::Device* src_device, vgpu::DevPtr<T> src,
                vgpu::Device* dst_device, vgpu::DevPtr<T> dst, uint64_t count,
                vgpu::Interconnect* interconnect, uint32_t src_index,
                uint32_t dst_index) {
  if (count == 0) return Status::OK();
  trace::Span span(interconnect->trace_track(), "peer_copy", "exchange");
  std::vector<T> staging(count);
  ADGRAPH_RETURN_NOT_OK(src_device->ReadForPeer(staging.data(), src, count));
  ADGRAPH_RETURN_NOT_OK(
      dst_device->WriteFromPeer(dst, staging.data(), count));
  interconnect->AccountTransfer(src_index, dst_index, count * sizeof(T));
  if (span.active()) {
    span.ArgNum("bytes", count * sizeof(T));
    span.ArgNum("src", static_cast<uint64_t>(src_index));
    span.ArgNum("dst", static_cast<uint64_t>(dst_index));
  }
  return Status::OK();
}

}  // namespace adgraph::rt

#endif  // ADGRAPH_RUNTIME_PEER_COPY_H_
