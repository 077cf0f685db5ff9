#include "core/coloring.h"

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

constexpr uint32_t kUncolored = 0xFFFFFFFFu;

/// One Jones-Plassmann round.  An uncolored vertex whose hashed priority
/// beats every uncolored neighbor's takes the smallest color unused among
/// its colored neighbors (64-color windows scanned with a forbidden
/// bitmask).  Priorities are (hash, id) pairs, so ties never stall.
KernelTask ColorRoundKernel(Ctx& c, DevPtr<eid_t> row, DevPtr<vid_t> col,
                            DevPtr<uint32_t> colors, DevPtr<uint32_t> progress,
                            uint32_t n, uint32_t seed) {
  auto v = c.GlobalThreadId();
  auto hash_of = [&](const Lanes<uint32_t>& x) {
    auto h = c.Mul(c.BitXor(x, seed), 2654435761u);
    return c.BitXor(h, c.Shr(h, 16u));
  };
  c.If(c.Lt(v, n), [&](Ctx& c) {
    auto my_color = c.Load(colors, v);
    c.If(c.Eq(my_color, kUncolored), [&](Ctx& c) {
      auto my_priority = hash_of(v);
      auto begin = c.Load(row, v);
      auto end = c.Load(row, c.Add(v, 1u));
      // Am I the local max among uncolored neighbors?
      LaneMask beaten = 0;
      c.For(begin, end, [&](Ctx& c, const Lanes<eid_t>& e) {
        auto w = c.Load(col, e);
        auto cw = c.Load(colors, w);
        c.If(c.Eq(cw, kUncolored), [&](Ctx& c) {
          auto pw = hash_of(w);
          LaneMask higher = c.Gt(pw, my_priority);
          LaneMask tie = c.Eq(pw, my_priority) & c.Gt(w, v);
          beaten |= higher | tie;
        });
      });
      c.If(c.NotMask(beaten), [&](Ctx& c) {
        // Smallest free color, scanned in 64-color windows.
        auto base = c.Splat<uint32_t>(0);
        LaneMask done = 0;
        c.While(
            [&](Ctx& c) { return c.NotMask(done); },
            [&](Ctx& c) {
              auto forbidden = c.Splat<uint64_t>(0);
              c.For(begin, end, [&](Ctx& c, const Lanes<eid_t>& e) {
                auto w = c.Load(col, e);
                auto cw = c.Load(colors, w);
                LaneMask colored = c.Ne(cw, kUncolored);
                LaneMask in_window =
                    colored & c.Ge(cw, base) &
                    c.Lt(cw, c.Add(base, 64u));
                c.If(in_window, [&](Ctx& c) {
                  auto bit = c.Shl(c.Splat<uint64_t>(1),
                                   c.Cast<uint64_t>(c.Sub(cw, base)));
                  c.Assign(&forbidden, c.BitOr(forbidden, bit));
                });
              });
              LaneMask has_free = c.Ne(forbidden, ~uint64_t{0});
              c.IfElse(
                  has_free,
                  [&](Ctx& c) {
                    auto slot = c.Ctz(c.BitNot(forbidden));
                    c.Store(colors, v, c.Add(base, slot));
                    c.Store(progress, c.Splat<uint32_t>(0),
                            c.Splat<uint32_t>(1));
                    done |= c.ActiveMask();
                  },
                  [&](Ctx& c) { c.Assign(&base, c.Add(base, 64u)); });
            });
      });
    });
  });
  co_return;
}

}  // namespace

Result<ColoringResult> RunGraphColoring(vgpu::Device* device,
                                        const graph::CsrGraph& g,
                                        const ColoringOptions& options,
                                        GraphResidency* residency) {
  if (g.num_vertices() == 0) {
    return Status::InvalidArgument("coloring on empty graph");
  }
  // Proper coloring is defined on the undirected interpretation.
  ADGRAPH_ASSIGN_OR_RETURN(
      ResidentCsr staged,
      Stage(residency, device, g, GraphVariant::kSymSimple));
  const DeviceCsr& d = *staged;
  const vid_t n = d.num_vertices;

  trace::Span algo_span(device->trace_track(), "algo:color", "algo");
  algo_span.ArgNum("num_vertices", static_cast<uint64_t>(n));

  ADGRAPH_ASSIGN_OR_RETURN(auto colors,
                           rt::DeviceBuffer<uint32_t>::Create(device, n));
  ADGRAPH_ASSIGN_OR_RETURN(auto progress,
                           rt::DeviceBuffer<uint32_t>::Create(device, 1));

  rt::DeviceTimer timer(device);
  ADGRAPH_RETURN_NOT_OK(
      primitives::Fill<uint32_t>(device, colors.ptr(), n, kUncolored));

  ColoringResult result;
  const uint32_t seed32 = static_cast<uint32_t>(options.seed * 0x9E3779B9u + 1);
  for (;;) {
    trace::Span sweep(device->trace_track(), "color.round", "phase");
    sweep.ArgNum("round", static_cast<uint64_t>(result.rounds + 1));
    ADGRAPH_RETURN_NOT_OK(
        primitives::SetElement<uint32_t>(device, progress.ptr(), 0, 0));
    ADGRAPH_RETURN_NOT_OK(
        device
            ->Launch("color_round", rt::CoverThreads(n),
                     [&](Ctx& c) {
                       return ColorRoundKernel(c, d.row_offsets.ptr(),
                                               d.col_indices.ptr(),
                                               colors.ptr(), progress.ptr(), n,
                                               seed32);
                     })
            .status());
    result.rounds += 1;
    ADGRAPH_ASSIGN_OR_RETURN(
        uint32_t any,
        primitives::GetElement<uint32_t>(device, progress.ptr(), 0));
    if (any == 0) break;
    if (result.rounds > n) {
      return Status::Internal("coloring failed to converge");
    }
  }

  result.time_ms = timer.ElapsedMs();
  ADGRAPH_ASSIGN_OR_RETURN(result.colors, colors.ToHost());
  for (uint32_t color : result.colors) {
    if (color != kUncolored) {
      result.num_colors = std::max(result.num_colors, color + 1);
    }
  }
  return result;
}

}  // namespace adgraph::core
