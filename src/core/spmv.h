#ifndef ADGRAPH_CORE_SPMV_H_
#define ADGRAPH_CORE_SPMV_H_

#include <vector>

#include "core/device_graph.h"
#include "graph/csr.h"
#include "util/status.h"
#include "vgpu/ctx.h"
#include "vgpu/device.h"

namespace adgraph::core {

/// y = A * x on the device, over (+, *) (nvGRAPH's SpMV, paper §3.2.1).
/// A is `g` (CSR); missing weights act as 1.0.  x and y are device vectors
/// of length num_vertices; y may not alias x.
Status RunSpmvOnDevice(vgpu::Device* device, const DeviceCsr& g,
                       vgpu::DevPtr<double> x, vgpu::DevPtr<double> y);

/// Convenience host-to-host wrapper (uploads g and x, downloads y).
Result<std::vector<double>> RunSpmv(vgpu::Device* device,
                                    const graph::CsrGraph& g,
                                    const std::vector<double>& x);

namespace detail {

/// Thread-per-row SpMV over a row *slice*: `row` holds num_rows+1 offsets
/// rebased to the slice (row[0] == 0) into `col`/`weights`; `x` is indexed
/// by the (global) column ids and results land in y[0..num_rows).  This is
/// the exact kernel body RunSpmvOnDevice launches over the whole matrix —
/// per-row accumulation order is identical, which is what makes the
/// out-of-core sharded PageRank bit-identical to the in-memory run
/// (src/ooc/, DESIGN.md §2.13).
vgpu::KernelTask SpmvRowSliceKernel(vgpu::Ctx& c,
                                    vgpu::DevPtr<graph::eid_t> row,
                                    vgpu::DevPtr<graph::vid_t> col,
                                    vgpu::DevPtr<double> weights,
                                    vgpu::DevPtr<double> x,
                                    vgpu::DevPtr<double> y,
                                    uint32_t num_rows);

}  // namespace detail

}  // namespace adgraph::core

#endif  // ADGRAPH_CORE_SPMV_H_
