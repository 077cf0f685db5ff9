#ifndef ADGRAPH_CORE_PAGERANK_KERNELS_H_
#define ADGRAPH_CORE_PAGERANK_KERNELS_H_

#include <cstdint>

#include "graph/types.h"
#include "vgpu/ctx.h"
#include "vgpu/kernel.h"

namespace adgraph::core::detail {

/// ranks_next = base + alpha * ranks_next (applied after the pull SpMV) and
/// accumulates |next - prev| into *delta.  Defined in pagerank.cc; shared
/// by the single-device, partitioned and streamed drivers.
vgpu::KernelTask ApplyDampingKernel(vgpu::Ctx& c, vgpu::DevPtr<double> next,
                                    vgpu::DevPtr<double> prev,
                                    vgpu::DevPtr<double> delta, double base,
                                    double alpha, uint32_t n);

/// Sums the rank mass parked on dangling (out-degree 0) vertices into *out.
/// Defined in pagerank.cc.
vgpu::KernelTask DanglingSumKernel(vgpu::Ctx& c, vgpu::DevPtr<graph::eid_t> row,
                                   vgpu::DevPtr<double> ranks,
                                   vgpu::DevPtr<double> out, uint32_t n);

}  // namespace adgraph::core::detail

#endif  // ADGRAPH_CORE_PAGERANK_KERNELS_H_
