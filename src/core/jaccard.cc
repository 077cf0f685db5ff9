#include "core/jaccard.h"

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
using vgpu::LaneMask;
using vgpu::Lanes;

/// One thread per vertex u; for each out-edge (u,v), a sorted-merge
/// intersection of adj(u) and adj(v) (dual-cursor While — per-lane data-
/// dependent loops with heavy divergence).
KernelTask JaccardKernel(Ctx& c, DevPtr<eid_t> row, DevPtr<vid_t> col,
                         DevPtr<double> out, uint32_t n) {
  auto u = c.GlobalThreadId();
  c.If(c.Lt(u, n), [&](Ctx& c) {
    auto u_begin = c.Load(row, u);
    auto u_end = c.Load(row, c.Add(u, 1u));
    c.For(u_begin, u_end, [&](Ctx& c, const Lanes<eid_t>& e) {
      auto v = c.Load(col, e);
      auto v_begin = c.Load(row, v);
      auto v_end = c.Load(row, c.Add(v, 1u));
      auto iu = u_begin;
      auto iv = v_begin;
      auto inter = c.Splat<uint32_t>(0);
      c.While(
          [&](Ctx& c) { return c.Lt(iu, u_end) & c.Lt(iv, v_end); },
          [&](Ctx& c) {
            auto a = c.Load(col, iu);
            auto b = c.Load(col, iv);
            LaneMask lt = c.Lt(a, b);
            LaneMask gt = c.Gt(a, b);
            LaneMask eq = c.NotMask(lt | gt);
            c.If(eq, [&](Ctx& c) {
              c.Assign(&inter, c.Add(inter, 1u));
              c.Assign(&iu, c.Add(iu, eid_t{1}));
              c.Assign(&iv, c.Add(iv, eid_t{1}));
            });
            c.If(lt, [&](Ctx& c) { c.Assign(&iu, c.Add(iu, eid_t{1})); });
            c.If(gt, [&](Ctx& c) { c.Assign(&iv, c.Add(iv, eid_t{1})); });
          });
      auto du = c.Cast<uint32_t>(c.Sub(u_end, u_begin));
      auto dv = c.Cast<uint32_t>(c.Sub(v_end, v_begin));
      auto uni = c.Sub(c.Add(du, dv), inter);
      auto denom = c.Cast<double>(uni);
      auto numer = c.Cast<double>(inter);
      // Guard empty unions.
      auto zero_union = c.Eq(uni, 0u);
      auto coeff = c.Select(zero_union, c.Splat(0.0), c.Div(numer, denom));
      c.Store(out, e, coeff);
    });
  });
  co_return;
}

}  // namespace

Result<JaccardResult> RunJaccard(vgpu::Device* device,
                                 const graph::CsrGraph& g,
                                 const JaccardOptions&,
                                 GraphResidency* residency) {
  if (g.num_vertices() == 0) {
    return Status::InvalidArgument("Jaccard on empty graph");
  }
  trace::Span algo_span(device->trace_track(), "algo:jaccard", "algo");
  algo_span.ArgNum("num_vertices", static_cast<uint64_t>(g.num_vertices()));

  ADGRAPH_ASSIGN_OR_RETURN(ResidentCsr staged,
                           Stage(residency, device, g, GraphVariant::kAsIs));
  const DeviceCsr& d = *staged;
  ADGRAPH_ASSIGN_OR_RETURN(
      auto out, rt::DeviceBuffer<double>::Create(device, g.num_edges()));

  rt::DeviceTimer timer(device);
  ADGRAPH_RETURN_NOT_OK(
      device
          ->Launch("jaccard", rt::CoverThreads(g.num_vertices()),
                   [&](Ctx& c) {
                     return JaccardKernel(c, d.row_offsets.ptr(),
                                          d.col_indices.ptr(), out.ptr(),
                                          g.num_vertices());
                   })
          .status());

  JaccardResult result;
  result.time_ms = timer.ElapsedMs();
  ADGRAPH_ASSIGN_OR_RETURN(result.coefficients, out.ToHost());
  return result;
}

}  // namespace adgraph::core
