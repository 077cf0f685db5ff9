#include "core/kcore.h"

#include "core/device_graph.h"
#include "core/residency.h"
#include "trace/trace.h"
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

KernelTask InitDegreeKernel(Ctx& c, DevPtr<eid_t> row, DevPtr<int32_t> degree,
                            DevPtr<uint32_t> alive, uint32_t n) {
  auto v = c.GlobalThreadId();
  c.If(c.Lt(v, n), [&](Ctx& c) {
    auto begin = c.Load(row, v);
    auto end = c.Load(row, c.Add(v, 1u));
    c.Store(degree, v, c.Cast<int32_t>(c.Sub(end, begin)));
    c.Store(alive, v, c.Splat<uint32_t>(1));
  });
  co_return;
}

/// Removes alive vertices of degree < k, decrementing neighbor degrees.
/// When `core` is non-null, records k-1 as the removed vertex's core
/// number (full decomposition mode).
KernelTask PeelKernel(Ctx& c, DevPtr<eid_t> row, DevPtr<vid_t> col,
                      DevPtr<int32_t> degree, DevPtr<uint32_t> alive,
                      DevPtr<uint32_t> changed, uint32_t n, int32_t k,
                      DevPtr<uint32_t> core) {
  auto u = c.GlobalThreadId();
  c.If(c.Lt(u, n), [&](Ctx& c) {
    auto is_alive = c.Load(alive, u);
    c.If(c.Eq(is_alive, 1u), [&](Ctx& c) {
      auto deg = c.Load(degree, u);
      c.If(c.Lt(deg, k), [&](Ctx& c) {
        c.Store(alive, u, c.Splat<uint32_t>(0));
        c.Store(changed, c.Splat<uint32_t>(0), c.Splat<uint32_t>(1));
        if (!core.is_null()) {
          c.Store(core, u, c.Splat<uint32_t>(static_cast<uint32_t>(k - 1)));
        }
        auto begin = c.Load(row, u);
        auto end = c.Load(row, c.Add(u, 1u));
        c.For(begin, end, [&](Ctx& c, const Lanes<eid_t>& e) {
          auto v = c.Load(col, e);
          c.AtomicAdd(degree, v, c.Splat<int32_t>(-1));
        });
      });
    });
  });
  co_return;
}

}  // namespace

Result<KCoreResult> RunKCore(vgpu::Device* device, const graph::CsrGraph& g,
                             const KCoreOptions& options,
                             GraphResidency* residency) {
  if (g.num_vertices() == 0) {
    return Status::InvalidArgument("k-core on empty graph");
  }
  ADGRAPH_ASSIGN_OR_RETURN(
      ResidentCsr staged,
      Stage(residency, device, g, GraphVariant::kSymSimple));
  const DeviceCsr& d = *staged;
  const vid_t n = d.num_vertices;

  trace::Span algo_span(device->trace_track(), "algo:kcore", "algo");
  algo_span.ArgNum("num_vertices", static_cast<uint64_t>(n));
  algo_span.ArgNum("k", static_cast<uint64_t>(options.k));

  ADGRAPH_ASSIGN_OR_RETURN(auto degree,
                           rt::DeviceBuffer<int32_t>::Create(device, n));
  ADGRAPH_ASSIGN_OR_RETURN(auto alive,
                           rt::DeviceBuffer<uint32_t>::Create(device, n));
  ADGRAPH_ASSIGN_OR_RETURN(auto changed,
                           rt::DeviceBuffer<uint32_t>::Create(device, 1));

  rt::DeviceTimer timer(device);
  ADGRAPH_RETURN_NOT_OK(
      device
          ->Launch("kcore_init", rt::CoverThreads(n),
                   [&](Ctx& c) {
                     return InitDegreeKernel(c, d.row_offsets.ptr(),
                                             degree.ptr(), alive.ptr(), n);
                   })
          .status());

  KCoreResult result;
  for (;;) {
    trace::Span sweep(device->trace_track(), "kcore.peel_round", "phase");
    sweep.ArgNum("round", static_cast<uint64_t>(result.peel_rounds + 1));
    ADGRAPH_RETURN_NOT_OK(
        primitives::SetElement<uint32_t>(device, changed.ptr(), 0, 0));
    ADGRAPH_RETURN_NOT_OK(
        device
            ->Launch("kcore_peel", rt::CoverThreads(n),
                     [&](Ctx& c) {
                       return PeelKernel(c, d.row_offsets.ptr(),
                                         d.col_indices.ptr(), degree.ptr(),
                                         alive.ptr(), changed.ptr(), n,
                                         static_cast<int32_t>(options.k),
                                         DevPtr<uint32_t>{});
                     })
            .status());
    result.peel_rounds += 1;
    ADGRAPH_ASSIGN_OR_RETURN(
        uint32_t any,
        primitives::GetElement<uint32_t>(device, changed.ptr(), 0));
    if (any == 0 || result.peel_rounds > n) break;
  }

  result.time_ms = timer.ElapsedMs();
  ADGRAPH_ASSIGN_OR_RETURN(result.in_core, alive.ToHost());
  for (uint32_t flag : result.in_core) result.core_size += flag;
  return result;
}


Result<CoreDecompositionResult> RunCoreDecomposition(vgpu::Device* device,
                                                     const graph::CsrGraph& g) {
  if (g.num_vertices() == 0) {
    return Status::InvalidArgument("core decomposition on empty graph");
  }
  graph::CsrBuildOptions sym_options;
  sym_options.make_undirected = true;
  sym_options.remove_duplicates = true;
  sym_options.remove_self_loops = true;
  ADGRAPH_ASSIGN_OR_RETURN(graph::CsrGraph sym,
                           graph::CsrGraph::FromCoo(g.ToCoo(), sym_options));
  const vid_t n = sym.num_vertices();
  uint32_t max_degree = 0;
  for (vid_t v = 0; v < n; ++v) {
    max_degree = std::max(max_degree, static_cast<uint32_t>(sym.degree(v)));
  }

  ADGRAPH_ASSIGN_OR_RETURN(DeviceCsr d, DeviceCsr::Upload(device, sym));
  ADGRAPH_ASSIGN_OR_RETURN(auto degree,
                           rt::DeviceBuffer<int32_t>::Create(device, n));
  ADGRAPH_ASSIGN_OR_RETURN(auto alive,
                           rt::DeviceBuffer<uint32_t>::Create(device, n));
  ADGRAPH_ASSIGN_OR_RETURN(auto core,
                           rt::DeviceBuffer<uint32_t>::Create(device, n));
  ADGRAPH_ASSIGN_OR_RETURN(auto changed,
                           rt::DeviceBuffer<uint32_t>::Create(device, 1));

  rt::DeviceTimer timer(device);
  ADGRAPH_RETURN_NOT_OK(primitives::Fill<uint32_t>(device, core.ptr(), n, 0));
  ADGRAPH_RETURN_NOT_OK(
      device
          ->Launch("kcore_init", rt::CoverThreads(n),
                   [&](Ctx& c) {
                     return InitDegreeKernel(c, d.row_offsets.ptr(),
                                             degree.ptr(), alive.ptr(), n);
                   })
          .status());

  CoreDecompositionResult result;
  uint64_t remaining = n;
  for (uint32_t k = 1; k <= max_degree + 1 && remaining > 0; ++k) {
    for (;;) {
      ADGRAPH_RETURN_NOT_OK(
          primitives::SetElement<uint32_t>(device, changed.ptr(), 0, 0));
      ADGRAPH_RETURN_NOT_OK(
          device
              ->Launch("kcore_peel", rt::CoverThreads(n),
                       [&](Ctx& c) {
                         return PeelKernel(c, d.row_offsets.ptr(),
                                           d.col_indices.ptr(), degree.ptr(),
                                           alive.ptr(), changed.ptr(), n,
                                           static_cast<int32_t>(k),
                                           core.ptr());
                       })
              .status());
      result.peel_rounds += 1;
      ADGRAPH_ASSIGN_OR_RETURN(
          uint32_t any,
          primitives::GetElement<uint32_t>(device, changed.ptr(), 0));
      if (any == 0) break;
    }
    // Vertices still alive at phase k survive the k-core; their core
    // number is at least k (finalized when they eventually peel).
  }
  result.time_ms = timer.ElapsedMs();
  ADGRAPH_ASSIGN_OR_RETURN(result.core_numbers, core.ToHost());
  for (uint32_t value : result.core_numbers) {
    result.max_core = std::max(result.max_core, value);
  }
  (void)remaining;
  return result;
}

}  // namespace adgraph::core
