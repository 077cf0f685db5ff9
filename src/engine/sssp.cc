#include <limits>
#include <string>

#include "core/residency.h"
#include "core/sssp.h"
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
using vgpu::LaneMask;
using vgpu::Lanes;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Min-plus relaxation as a push-advance functor.  A destination enters
/// the next frontier when this lane both improved it *and* won the
/// claim-flag exchange — the dedup that keeps the output queue a set.
struct SsspPushOp {
  DevPtr<double> weights;  // null when unweighted (edges count as 1)
  DevPtr<double> dist;
  DevPtr<uint32_t> out_flags;
  Lanes<double> du;

  void LoadSource(Ctx& c, const Lanes<vid_t>& u) { du = c.Load(dist, u); }
  LaneMask Relax(Ctx& c, const Lanes<vid_t>&, const Lanes<eid_t>& e,
                 const Lanes<vid_t>& v) {
    auto w = weights.is_null() ? c.Splat(1.0) : c.Load(weights, e);
    auto candidate = c.Add(du, w);
    auto old = c.AtomicMin(dist, v, candidate);
    auto improved = c.Gt(old, candidate);
    LaneMask fresh = 0;
    c.If(improved, [&](Ctx& c) {
      auto prev = c.AtomicExch(out_flags, v, c.Splat<uint32_t>(1));
      fresh = c.Eq(prev, 0u);
    });
    return fresh;
  }
  void OnEnqueue(Ctx&, const Lanes<vid_t>&, const Lanes<vid_t>&) {}
};

/// Dense-round eligibility: the vertex's frontier flag is set.
struct FlagSetPred {
  DevPtr<uint32_t> flags;
  LaneMask operator()(Ctx& c, const Lanes<vid_t>& v) {
    return c.Eq(c.Load(flags, v), 1u);
  }
};

}  // namespace

Result<core::SsspResult> RunSssp(vgpu::Device* device,
                                 const graph::CsrGraph& g,
                                 const core::SsspOptions& options,
                                 core::GraphResidency* residency,
                                 const EngineOptions& engine,
                                 EngineReport* report) {
  const vid_t n = g.num_vertices();
  if (n == 0) return Status::InvalidArgument("SSSP on empty graph");
  if (options.source >= n) {
    return Status::InvalidArgument("SSSP source out of range");
  }
  if (g.has_weights()) {
    for (double w : g.weights()) {
      if (w < 0) {
        return Status::InvalidArgument(
            "SSSP requires non-negative weights (got " + std::to_string(w) +
            ")");
      }
    }
  }

  trace::Span algo_span(device->trace_track(), "algo:sssp", "algo");
  algo_span.ArgNum("num_vertices", static_cast<uint64_t>(n));
  algo_span.ArgNum("source", static_cast<uint64_t>(options.source));

  ADGRAPH_ASSIGN_OR_RETURN(
      core::ResidentCsr staged,
      core::Stage(residency, device, g, core::GraphVariant::kAsIs));
  const core::DeviceCsr& d = *staged;
  ADGRAPH_ASSIGN_OR_RETURN(auto dist,
                           rt::DeviceBuffer<double>::Create(device, n));
  ADGRAPH_ASSIGN_OR_RETURN(Frontier cur, Frontier::Create(device, n));
  ADGRAPH_ASSIGN_OR_RETURN(Frontier next, Frontier::Create(device, n));

  rt::DeviceTimer timer(device);
  ADGRAPH_RETURN_NOT_OK(
      core::primitives::Fill<double>(device, dist.ptr(), n, kInf));
  ADGRAPH_RETURN_NOT_OK(
      core::primitives::SetElement<double>(device, dist.ptr(), options.source,
                                           0.0));
  ADGRAPH_RETURN_NOT_OK(cur.InitSource(options.source, options.block_size));

  CsrView view = MakeView(d);
  // Relaxation has no pull formulation here; the direction engine still
  // arbitrates (kPullOnly fails fast, kAuto records push rounds).
  DirectionEngine director(device, engine.direction, DirectionHeuristic{},
                           /*can_pull=*/false);
  const LoadBalance lb = ResolveLoadBalance(
      engine.load_balance, d.num_edges, n, device->arch().warp_width);

  core::SsspResult result;
  const uint32_t max_rounds =
      options.max_rounds > 0 ? options.max_rounds : (n > 1 ? n - 1 : 1);
  uint32_t frontier_size = 1;
  for (uint32_t round = 0; round < max_rounds; ++round) {
    trace::Span sweep(device->trace_track(), "sssp.relax_round", "phase");
    sweep.ArgNum("round", static_cast<uint64_t>(round + 1));
    sweep.ArgNum("frontier_size", static_cast<uint64_t>(frontier_size));
    ADGRAPH_RETURN_NOT_OK(next.Clear(options.block_size));
    ADGRAPH_ASSIGN_OR_RETURN(Direction dir,
                             director.Choose(frontier_size, n, round + 1));
    (void)dir;  // always push; Choose validates policy and keeps stats

    SsspPushOp op{view.weights, dist.ptr(), next.flags(), {}};
    if (cur.rep() == Frontier::Rep::kDense) {
      FlagSetPred pred{cur.flags()};
      ADGRAPH_RETURN_NOT_OK(
          device
              ->Launch("sssp_relax_dense",
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
              ->Launch("sssp_relax_warp",
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
              ->Launch("sssp_relax",
                       rt::CoverThreads(frontier_size, options.block_size,
                                        StageSharedBytes()),
                       [&](Ctx& c) {
                         return PushAdvanceSparseKernel(
                             c, view, cur.queue(), frontier_size, next.queue(),
                             next.count(), op);
                       })
              .status());
    }

    result.rounds = round + 1;
    ADGRAPH_RETURN_NOT_OK(next.RefreshCount());
    const uint32_t produced = next.size();
    if (produced == 0) break;

    // Density-based representation choice for the next round's launch
    // shape (the advance maintains queue and flags together, so the
    // "conversion" is a relabel, recorded like one).
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
  ADGRAPH_ASSIGN_OR_RETURN(result.distances, dist.ToHost());
  if (report != nullptr) report->direction = director.stats();
  return result;
}

}  // namespace adgraph::engine
