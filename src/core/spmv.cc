#include "core/spmv.h"

#include <limits>
#include <string>

#include "vgpu/ctx.h"
#include "vgpu/kernel.h"

namespace adgraph::core {
namespace {

using graph::eid_t;
using graph::vid_t;
using vgpu::Ctx;
using vgpu::DevPtr;
using vgpu::KernelTask;
using vgpu::Lanes;

}  // namespace

namespace detail {

KernelTask SpmvRowSliceKernel(Ctx& c, DevPtr<eid_t> row, DevPtr<vid_t> col,
                              DevPtr<double> weights, DevPtr<double> x,
                              DevPtr<double> y, uint32_t num_rows,
                              Semiring semiring) {
  const bool weighted = !weights.is_null();
  const double identity = semiring == Semiring::kMinPlus
                              ? std::numeric_limits<double>::infinity()
                              : 0.0;
  auto u = c.GlobalThreadId();
  c.If(c.Lt(u, num_rows), [&](Ctx& c) {
    auto begin = c.Load(row, u);
    auto end = c.Load(row, c.Add(u, 1u));
    auto acc = c.Splat(identity);
    c.For(begin, end, [&](Ctx& c, const Lanes<eid_t>& e) {
      auto v = c.Load(col, e);
      auto xv = c.Load(x, v);
      auto w = weighted ? c.Load(weights, e) : c.Splat(1.0);
      switch (semiring) {
        case Semiring::kPlusTimes:
          c.Assign(&acc, c.Add(acc, c.Mul(w, xv)));
          break;
        case Semiring::kMinPlus:
          c.Assign(&acc, c.Min(acc, c.Add(w, xv)));
          break;
        case Semiring::kOrAnd: {
          // acc |= (w != 0) & (x != 0), on doubles: max of 0/1 products.
          auto w_nz = c.Select(c.Ne(w, 0.0), c.Splat(1.0), c.Splat(0.0));
          auto x_nz = c.Select(c.Ne(xv, 0.0), c.Splat(1.0), c.Splat(0.0));
          c.Assign(&acc, c.Max(acc, c.Mul(w_nz, x_nz)));
          break;
        }
      }
    });
    c.Store(y, u, acc);
  });
  co_return;
}

}  // namespace detail

Status RunSpmvOnDevice(vgpu::Device* device, const DeviceCsr& g,
                       DevPtr<double> x, DevPtr<double> y,
                       const SpmvOptions& options) {
  if (x.addr == y.addr) {
    return Status::InvalidArgument("SpMV output may not alias input");
  }
  auto stats = device->Launch(
      "spmv", rt::CoverThreads(g.num_vertices),
      [&](Ctx& c) {
        return detail::SpmvRowSliceKernel(
            c, g.row_offsets.ptr(), g.col_indices.ptr(),
            g.has_weights() ? g.weights.ptr() : DevPtr<double>{}, x, y,
            g.num_vertices, options.semiring);
      });
  return stats.ok() ? Status::OK() : stats.status();
}

Result<std::vector<double>> RunSpmv(vgpu::Device* device,
                                    const graph::CsrGraph& g,
                                    const std::vector<double>& x,
                                    const SpmvOptions& options) {
  if (x.size() != g.num_vertices()) {
    return Status::InvalidArgument("x has " + std::to_string(x.size()) +
                                   " entries; graph has " +
                                   std::to_string(g.num_vertices()) +
                                   " vertices");
  }
  ADGRAPH_ASSIGN_OR_RETURN(DeviceCsr d, DeviceCsr::Upload(device, g));
  ADGRAPH_ASSIGN_OR_RETURN(auto dx,
                           rt::DeviceBuffer<double>::FromHost(device, x));
  ADGRAPH_ASSIGN_OR_RETURN(
      auto dy, rt::DeviceBuffer<double>::Create(device, g.num_vertices()));
  ADGRAPH_RETURN_NOT_OK(
      RunSpmvOnDevice(device, d, dx.ptr(), dy.ptr(), options));
  return dy.ToHost();
}

}  // namespace adgraph::core
