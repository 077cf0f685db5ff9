#include "core/pagerank_kernels.h"

#include "vgpu/ctx.h"
#include "vgpu/kernel.h"

namespace adgraph::core {
// The PageRank update kernels, shared by the single-device driver
// (engine/pagerank.cc), the partitioned driver (part/) and the streamed
// driver (ooc/), which do not link the engine.
namespace detail {

using graph::eid_t;
using vgpu::Ctx;
using vgpu::DevPtr;
using vgpu::KernelTask;

/// ranks_next = base + alpha * ranks_next (after the SpMV), and
/// accumulates |next - prev| into delta.
KernelTask ApplyDampingKernel(Ctx& c, DevPtr<double> next, DevPtr<double> prev,
                              DevPtr<double> delta, double base, double alpha,
                              uint32_t n) {
  auto v = c.GlobalThreadId();
  c.If(c.Lt(v, n), [&](Ctx& c) {
    auto spmv_value = c.Load(next, v);
    auto updated = c.Add(c.Mul(spmv_value, alpha), base);
    c.Store(next, v, updated);
    auto old_value = c.Load(prev, v);
    auto diff = c.Sub(updated, old_value);
    // |diff| via select.
    auto neg = c.Lt(diff, 0.0);
    auto absdiff = c.Select(neg, c.Sub(c.Splat(0.0), diff), diff);
    double warp_sum = c.ReduceAdd(absdiff);
    c.If(c.Eq(c.LaneId(), 0u), [&](Ctx& c) {
      c.AtomicAdd(delta, c.Splat<uint32_t>(0), c.Splat(warp_sum));
    });
  });
  co_return;
}

/// Sums the rank mass parked on dangling (out-degree 0) vertices.
KernelTask DanglingSumKernel(Ctx& c, DevPtr<eid_t> row, DevPtr<double> ranks,
                             DevPtr<double> out, uint32_t n) {
  auto v = c.GlobalThreadId();
  auto mass = c.Splat(0.0);
  c.If(c.Lt(v, n), [&](Ctx& c) {
    auto begin = c.Load(row, v);
    auto end = c.Load(row, c.Add(v, 1u));
    c.If(c.Eq(begin, end), [&](Ctx& c) {
      c.Assign(&mass, c.Load(ranks, v));
    });
  });
  double warp_sum = c.ReduceAdd(mass);
  c.If(c.Eq(c.LaneId(), 0u), [&](Ctx& c) {
    c.AtomicAdd(out, c.Splat<uint32_t>(0), c.Splat(warp_sum));
  });
  co_return;
}

}  // namespace detail

}  // namespace adgraph::core
