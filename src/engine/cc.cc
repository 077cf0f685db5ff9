#include "core/conn_components.h"
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

KernelTask IotaLabelsKernel(Ctx& c, DevPtr<vid_t> labels, uint32_t n) {
  auto v = c.GlobalThreadId();
  c.If(c.Lt(v, n), [&](Ctx& c) { c.Store(labels, v, v); });
  co_return;
}

/// Min-label propagation as a push-advance functor.  A destination enters
/// the next frontier when its label shrank and this lane won the claim
/// flag — so each changed vertex is staged exactly once per round.
struct CcPushOp {
  DevPtr<vid_t> labels;
  DevPtr<uint32_t> out_flags;
  Lanes<vid_t> lu;

  void LoadSource(Ctx& c, const Lanes<vid_t>& u) { lu = c.Load(labels, u); }
  LaneMask Relax(Ctx& c, const Lanes<vid_t>&, const Lanes<eid_t>&,
                 const Lanes<vid_t>& v) {
    auto old = c.AtomicMin(labels, v, lu);
    auto improved = c.Gt(old, lu);
    LaneMask fresh = 0;
    c.If(improved, [&](Ctx& c) {
      auto prev = c.AtomicExch(out_flags, v, c.Splat<uint32_t>(1));
      fresh = c.Eq(prev, 0u);
    });
    return fresh;
  }
  void OnEnqueue(Ctx&, const Lanes<vid_t>&, const Lanes<vid_t>&) {}
};

/// Dense-round eligibility: the vertex changed last round.
struct FlagSetPred {
  DevPtr<uint32_t> flags;
  LaneMask operator()(Ctx& c, const Lanes<vid_t>& v) {
    return c.Eq(c.Load(flags, v), 1u);
  }
};

}  // namespace

Result<core::CcResult> RunConnectedComponents(vgpu::Device* device,
                                              const graph::CsrGraph& g,
                                              const core::CcOptions& options,
                                              core::GraphResidency* residency,
                                              const EngineOptions& engine,
                                              EngineReport* report) {
  const vid_t n = g.num_vertices();
  if (n == 0) {
    return Status::InvalidArgument("connected components on empty graph");
  }

  trace::Span algo_span(device->trace_track(), "algo:cc", "algo");
  algo_span.ArgNum("num_vertices", static_cast<uint64_t>(n));

  ADGRAPH_ASSIGN_OR_RETURN(
      core::ResidentCsr staged,
      core::Stage(residency, device, g, core::GraphVariant::kSymSimple));
  const core::DeviceCsr& d = *staged;
  ADGRAPH_ASSIGN_OR_RETURN(auto labels,
                           rt::DeviceBuffer<vid_t>::Create(device, n));
  ADGRAPH_ASSIGN_OR_RETURN(Frontier cur, Frontier::Create(device, n));
  ADGRAPH_ASSIGN_OR_RETURN(Frontier next, Frontier::Create(device, n));

  rt::DeviceTimer timer(device);
  {
    auto labels_ptr = labels.ptr();
    ADGRAPH_RETURN_NOT_OK(
        device
            ->Launch("cc_iota", rt::CoverThreads(n, options.block_size),
                     [&](Ctx& c) { return IotaLabelsKernel(c, labels_ptr, n); })
            .status());
  }
  ADGRAPH_RETURN_NOT_OK(cur.InitAllVertices(options.block_size));

  CsrView view = MakeView(d);
  DirectionEngine director(device, engine.direction, DirectionHeuristic{},
                           /*can_pull=*/false);
  const LoadBalance lb = ResolveLoadBalance(
      engine.load_balance, d.num_edges, n, device->arch().warp_width);

  core::CcResult result;
  uint32_t frontier_size = n;
  // Min-label propagation converges within the graph diameter; n rounds is
  // the safe ceiling.
  for (uint32_t round = 0; round < n; ++round) {
    trace::Span sweep(device->trace_track(), "cc.propagate_round", "phase");
    sweep.ArgNum("round", static_cast<uint64_t>(round + 1));
    sweep.ArgNum("frontier_size", static_cast<uint64_t>(frontier_size));
    ADGRAPH_RETURN_NOT_OK(next.Clear(options.block_size));
    ADGRAPH_ASSIGN_OR_RETURN(Direction dir,
                             director.Choose(frontier_size, n, round + 1));
    (void)dir;  // push-only; Choose validates policy and keeps stats

    CcPushOp op{labels.ptr(), next.flags(), {}};
    if (cur.rep() == Frontier::Rep::kDense) {
      FlagSetPred pred{cur.flags()};
      ADGRAPH_RETURN_NOT_OK(
          device
              ->Launch("cc_propagate_dense",
                       rt::CoverThreads(n, options.block_size,
                                        StageSharedBytes()),
                       [&](Ctx& c) {
                         return PushAdvanceDenseKernel(c, view, next.queue(),
                                                       next.count(), pred, op);
                       })
              .status());
    } else if (lb == LoadBalance::kWarpPerVertex) {
      const uint64_t warp_threads =
          static_cast<uint64_t>(frontier_size) * device->arch().warp_width;
      ADGRAPH_RETURN_NOT_OK(
          device
              ->Launch("cc_propagate_warp",
                       rt::CoverThreads(warp_threads, options.block_size,
                                        StageSharedBytes()),
                       [&](Ctx& c) {
                         return PushAdvanceWarpKernel(
                             c, view, cur.queue(), frontier_size, next.queue(),
                             next.count(), op);
                       })
              .status());
    } else {
      ADGRAPH_RETURN_NOT_OK(
          device
              ->Launch("cc_propagate",
                       rt::CoverThreads(frontier_size, options.block_size,
                                        StageSharedBytes()),
                       [&](Ctx& c) {
                         return PushAdvanceSparseKernel(
                             c, view, cur.queue(), frontier_size, next.queue(),
                             next.count(), op);
                       })
              .status());
    }

    result.iterations = round + 1;
    ADGRAPH_RETURN_NOT_OK(next.RefreshCount());
    const uint32_t produced = next.size();
    if (produced == 0) break;

    next.set_rep(Frontier::Rep::kSparse);
    const DirectionHeuristic& h = director.heuristic();
    if (produced > h.min_pull_frontier &&
        static_cast<double>(produced) > n / h.alpha) {
      director.RecordConversion(Frontier::Rep::kSparse, Frontier::Rep::kDense);
      next.set_rep(Frontier::Rep::kDense);
    } else if (cur.rep() == Frontier::Rep::kDense) {
      director.RecordConversion(Frontier::Rep::kDense, Frontier::Rep::kSparse);
    }
    frontier_size = produced;
    swap(cur, next);
  }

  result.time_ms = timer.ElapsedMs();
  ADGRAPH_ASSIGN_OR_RETURN(result.labels, labels.ToHost());
  // At the fixpoint each component is labeled by its smallest member, so
  // the component count is the number of self-labeled vertices.
  for (vid_t v = 0; v < n; ++v) {
    if (result.labels[v] == v) result.num_components += 1;
  }
  algo_span.ArgNum("num_components", result.num_components);
  algo_span.ArgNum("iterations", static_cast<uint64_t>(result.iterations));
  if (report != nullptr) report->direction = director.stats();
  return result;
}

}  // namespace adgraph::engine
