#include <string>

#include "core/bfs.h"
#include "core/residency.h"
#include "engine/algorithms.h"
#include "engine/frontier.h"
#include "engine/operators.h"
#include "trace/trace.h"
#include "vgpu/ctx.h"
#include "vgpu/kernel.h"

namespace adgraph::engine {
namespace {

using graph::eid_t;
using graph::vid_t;
using vgpu::Ctx;
using vgpu::DevPtr;
using vgpu::KernelTask;
using vgpu::LaneMask;
using vgpu::Lanes;

/// Brandes forward step as a push-advance functor: the plain BFS claim,
/// plus shortest-path counting — every edge from the frontier into the
/// newly discovered level adds the source's sigma to the destination's.
/// Sigma values are integer-valued doubles (exact below 2^53), so the
/// atomic accumulation order cannot perturb them.
struct BcForwardOp {
  DevPtr<uint32_t> levels;
  DevPtr<double> sigma;
  uint32_t level;
  Lanes<double> su;

  void LoadSource(Ctx& c, const Lanes<vid_t>& u) { su = c.Load(sigma, u); }
  LaneMask Relax(Ctx& c, const Lanes<vid_t>&, const Lanes<eid_t>&,
                 const Lanes<vid_t>& v) {
    auto old = c.AtomicCas(levels, v, c.Splat(core::kUnreachedLevel),
                           c.Splat(level));
    auto fresh = c.Eq(old, core::kUnreachedLevel);
    auto lv = c.Load(levels, v);
    c.If(c.Eq(lv, level), [&](Ctx& c) { c.AtomicAdd(sigma, v, su); });
    return fresh;
  }
  void OnEnqueue(Ctx&, const Lanes<vid_t>&, const Lanes<vid_t>&) {}
};

/// One backward (dependency-accumulation) level: each vertex w on `level`
/// scans its neighbors and sums sigma[w]/sigma[v] * (1 + delta[v]) over
/// those on level+1.  Each thread owns one w and adds in edge order, so
/// the floating-point sum is deterministic.
KernelTask BcBackwardKernel(Ctx& c, CsrView view, DevPtr<vid_t> queue,
                            uint32_t size, DevPtr<uint32_t> levels,
                            DevPtr<double> sigma, DevPtr<double> delta,
                            uint32_t level) {
  auto i = c.GlobalThreadId();
  c.If(c.Lt(i, size), [&](Ctx& c) {
    auto w = c.Load(queue, i);
    auto begin = c.Load(view.row, w);
    auto end = c.Load(view.row, c.Add(w, 1u));
    auto sw = c.Load(sigma, w);
    auto acc = c.Splat(0.0);
    c.For(begin, end, [&](Ctx& c, const Lanes<eid_t>& e) {
      auto v = c.Load(view.col, e);
      auto lv = c.Load(levels, v);
      c.If(c.Eq(lv, level + 1), [&](Ctx& c) {
        auto sv = c.Load(sigma, v);
        auto dv = c.Load(delta, v);
        auto contrib = c.Mul(c.Div(sw, sv), c.Add(dv, 1.0));
        c.Assign(&acc, c.Add(acc, contrib));
      });
    });
    c.Store(delta, w, acc);
  });
  co_return;
}

}  // namespace

Result<core::BcResult> RunBetweenness(vgpu::Device* device,
                                      const graph::CsrGraph& g,
                                      const core::BcOptions& options,
                                      core::GraphResidency* residency,
                                      const EngineOptions& engine,
                                      EngineReport* report) {
  const vid_t n = g.num_vertices();
  if (n == 0) return Status::InvalidArgument("betweenness on empty graph");
  if (options.source >= n) {
    return Status::InvalidArgument("betweenness source " +
                                   std::to_string(options.source) +
                                   " out of range");
  }

  trace::Span algo_span(device->trace_track(), "algo:bc", "algo");
  algo_span.ArgNum("num_vertices", static_cast<uint64_t>(n));
  algo_span.ArgNum("source", static_cast<uint64_t>(options.source));

  // Brandes needs the predecessor relation both ways: symmetric adjacency.
  ADGRAPH_ASSIGN_OR_RETURN(
      core::ResidentCsr staged,
      core::Stage(residency, device, g, core::GraphVariant::kSymSimple));
  const core::DeviceCsr& d = *staged;
  ADGRAPH_ASSIGN_OR_RETURN(auto levels,
                           rt::DeviceBuffer<uint32_t>::Create(device, n));
  ADGRAPH_ASSIGN_OR_RETURN(auto sigma,
                           rt::DeviceBuffer<double>::Create(device, n));
  ADGRAPH_ASSIGN_OR_RETURN(auto delta,
                           rt::DeviceBuffer<double>::Create(device, n));
  ADGRAPH_ASSIGN_OR_RETURN(Frontier cur, Frontier::Create(device, n));
  ADGRAPH_ASSIGN_OR_RETURN(Frontier next, Frontier::Create(device, n));

  rt::DeviceTimer timer(device);
  ADGRAPH_RETURN_NOT_OK(core::primitives::Fill<uint32_t>(
      device, levels.ptr(), n, core::kUnreachedLevel));
  ADGRAPH_RETURN_NOT_OK(core::primitives::SetElement<uint32_t>(
      device, levels.ptr(), options.source, 0));
  ADGRAPH_RETURN_NOT_OK(
      core::primitives::Fill<double>(device, sigma.ptr(), n, 0.0));
  ADGRAPH_RETURN_NOT_OK(core::primitives::SetElement<double>(
      device, sigma.ptr(), options.source, 1.0));
  ADGRAPH_RETURN_NOT_OK(cur.InitSource(options.source));

  CsrView view = MakeView(d);
  DirectionEngine director(device, engine.direction, /*can_pull=*/false);
  const LoadBalance lb = ResolveLoadBalance(
      engine.load_balance, d.num_edges, n, device->arch().warp_width);

  core::BcResult result;
  uint32_t frontier_size = 1;
  uint32_t level = 1;
  while (frontier_size > 0) {
    trace::Span sweep(device->trace_track(), "bc.forward", "phase");
    sweep.ArgNum("level", static_cast<uint64_t>(level));
    sweep.ArgNum("frontier_size", static_cast<uint64_t>(frontier_size));
    ADGRAPH_RETURN_NOT_OK(next.Clear());
    ADGRAPH_ASSIGN_OR_RETURN(Direction dir,
                             director.Choose(frontier_size, n, level));
    (void)dir;  // the counting forward pass is push-only

    BcForwardOp op{levels.ptr(), sigma.ptr(), level, {}};
    ADGRAPH_RETURN_NOT_OK(LaunchPushAdvance(device, "bc_forward", view, lb,
                                            cur, frontier_size, next, op));

    ADGRAPH_RETURN_NOT_OK(next.RefreshCount());
    const uint32_t produced = next.size();
    if (produced > 0) result.depth = level;
    swap(cur, next);
    frontier_size = produced;
    ++level;
  }

  // Backward dependency accumulation, deepest level first.  Level 0 is the
  // source; its dependency is excluded by Brandes' definition.
  ADGRAPH_RETURN_NOT_OK(
      core::primitives::Fill<double>(device, delta.ptr(), n, 0.0));
  for (uint32_t lvl = result.depth; lvl >= 1; --lvl) {
    trace::Span sweep(device->trace_track(), "bc.backward", "phase");
    sweep.ArgNum("level", static_cast<uint64_t>(lvl));
    ADGRAPH_RETURN_NOT_OK(
        core::primitives::SetElement<uint32_t>(device, cur.count(), 0, 0));
    LevelEqPred pred{levels.ptr(), lvl};
    ADGRAPH_RETURN_NOT_OK(
        device
            ->Launch("bc_levels_to_queue", rt::CoverThreads(n),
                     [&](Ctx& c) {
                       return FilterToQueueKernel(c, n, cur.queue(),
                                                  cur.count(), pred);
                     })
            .status());
    ADGRAPH_RETURN_NOT_OK(cur.RefreshCount());
    const uint32_t size = cur.size();
    if (size == 0) continue;
    // Skip the deepest level's neighbor scan?  No: its vertices still need
    // delta stored (it is 0 — no level+1 neighbors exist), and the scan
    // keeps the kernel uniform.
    ADGRAPH_RETURN_NOT_OK(
        device
            ->Launch("bc_backward", rt::CoverThreads(size),
                     [&](Ctx& c) {
                       return BcBackwardKernel(c, view, cur.queue(), size,
                                               levels.ptr(), sigma.ptr(),
                                               delta.ptr(), lvl);
                     })
            .status());
  }

  result.time_ms = timer.ElapsedMs();
  ADGRAPH_ASSIGN_OR_RETURN(result.centrality, delta.ToHost());
  ADGRAPH_ASSIGN_OR_RETURN(result.sigma, sigma.ToHost());
  algo_span.ArgNum("depth", static_cast<uint64_t>(result.depth));
  if (report != nullptr) report->direction = director.stats();
  return result;
}

}  // namespace adgraph::engine
