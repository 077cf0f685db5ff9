#include <utility>
#include <vector>

#include "core/pagerank.h"
#include "core/pagerank_kernels.h"
#include "core/residency.h"
#include "core/spmv.h"
#include "engine/algorithms.h"
#include "engine/operators.h"
#include "trace/trace.h"
#include "vgpu/ctx.h"
#include "vgpu/kernel.h"

namespace adgraph::engine {
namespace {

using graph::eid_t;
using graph::vid_t;
using vgpu::Ctx;

}  // namespace

// PageRank is floating-point-order sensitive, so the engine does not
// re-derive the iteration from advance functors: each round is the fixed
// kernel sequence dangling sum -> pull SpMV over the normalized transpose
// -> damping, run as one dense pull advance.  The golden digests freeze
// ranks, iteration count, l1_delta and every kernel's counters.  Cold runs
// start from 1/n; the incremental path passes the previous ranks as
// `warm_start`, uploaded before the timer starts.
Result<core::PageRankResult> RunPageRank(
    vgpu::Device* device, const graph::CsrGraph& g,
    const core::PageRankOptions& options, core::GraphResidency* residency,
    const EngineOptions& engine, EngineReport* report,
    const std::vector<double>* warm_start) {
  const vid_t n = g.num_vertices();
  if (n == 0) return Status::InvalidArgument("PageRank on empty graph");
  if (options.alpha <= 0 || options.alpha >= 1) {
    return Status::InvalidArgument("damping factor must be in (0,1)");
  }
  if (engine.direction == DirectionPolicy::kPushOnly) {
    return Status::FailedPrecondition(
        "push-only direction policy, but PageRank has no push formulation "
        "(it is a pull/SpMV algorithm)");
  }

  if (warm_start != nullptr && warm_start->size() != n) {
    return Status::InvalidArgument("warm-start ranks do not match the graph");
  }

  trace::Span algo_span(device->trace_track(),
                        warm_start != nullptr ? "algo:pagerank_delta"
                                              : "algo:pagerank",
                        "algo");
  algo_span.ArgNum("num_vertices", static_cast<uint64_t>(n));
  algo_span.ArgNum("max_iterations",
                   static_cast<uint64_t>(options.max_iterations));

  ADGRAPH_ASSIGN_OR_RETURN(
      core::ResidentCsr staged,
      core::Stage(residency, device, g, core::GraphVariant::kPullTranspose));
  const core::DeviceCsr& d_gt = *staged;
  ADGRAPH_ASSIGN_OR_RETURN(
      auto d_row, rt::DeviceBuffer<eid_t>::FromHost(device, g.row_offsets()));
  rt::DeviceBuffer<double> ranks;
  if (warm_start != nullptr) {
    ADGRAPH_ASSIGN_OR_RETURN(
        ranks, rt::DeviceBuffer<double>::FromHost(device, *warm_start));
  } else {
    ADGRAPH_ASSIGN_OR_RETURN(ranks,
                             rt::DeviceBuffer<double>::Create(device, n));
  }
  ADGRAPH_ASSIGN_OR_RETURN(auto next,
                           rt::DeviceBuffer<double>::Create(device, n));
  ADGRAPH_ASSIGN_OR_RETURN(auto scalars,
                           rt::DeviceBuffer<double>::Create(device, 2));

  rt::DeviceTimer timer(device);
  if (warm_start == nullptr) {
    ADGRAPH_RETURN_NOT_OK(
        core::primitives::Fill<double>(device, ranks.ptr(), n, 1.0 / n));
  }

  // Every vertex pulls every round: the frontier is dense and full-width
  // for the entire run, and the direction engine records a pull per round.
  DirectionEngine director(device, engine.direction, /*can_pull=*/true);

  core::PageRankResult result;

  for (uint32_t iter = 0; iter < options.max_iterations; ++iter) {
    trace::Span sweep(device->trace_track(), "pagerank.iteration", "phase");
    sweep.ArgNum("iteration", static_cast<uint64_t>(iter + 1));
    ADGRAPH_ASSIGN_OR_RETURN(Direction dir, director.Choose(n, n, iter + 1));
    (void)dir;  // kPushOnly was rejected above; kAuto/kPullOnly both pull

    ADGRAPH_RETURN_NOT_OK(
        core::primitives::SetElement<double>(device, scalars.ptr(), 0, 0.0));
    ADGRAPH_RETURN_NOT_OK(
        device
            ->Launch("pagerank_dangling", rt::CoverThreads(n),
                     [&](Ctx& c) {
                       return core::detail::DanglingSumKernel(
                           c, d_row.ptr(), ranks.ptr(), scalars.ptr(), n);
                     })
            .status());
    ADGRAPH_ASSIGN_OR_RETURN(
        double dangling,
        core::primitives::GetElement<double>(device, scalars.ptr(), 0));

    ADGRAPH_RETURN_NOT_OK(
        core::RunSpmvOnDevice(device, d_gt, ranks.ptr(), next.ptr()));

    double base = (1.0 - options.alpha) / n +
                  options.alpha * dangling / static_cast<double>(n);
    ADGRAPH_RETURN_NOT_OK(
        core::primitives::SetElement<double>(device, scalars.ptr(), 1, 0.0));
    ADGRAPH_RETURN_NOT_OK(
        device
            ->Launch("pagerank_damping", rt::CoverThreads(n),
                     [&](Ctx& c) {
                       return core::detail::ApplyDampingKernel(
                           c, next.ptr(), ranks.ptr(), scalars.ptr() + 1, base,
                           options.alpha, n);
                     })
            .status());
    ADGRAPH_ASSIGN_OR_RETURN(
        result.l1_delta,
        core::primitives::GetElement<double>(device, scalars.ptr(), 1));
    // Convergence trajectory on the span tree: an inspected warm-start job
    // shows how close the previous ranks already were.
    sweep.ArgNum("l1_delta", result.l1_delta);

    std::swap(ranks, next);
    result.iterations = iter + 1;
    if (options.tolerance > 0 && result.l1_delta < options.tolerance) break;
  }

  result.time_ms = timer.ElapsedMs();
  ADGRAPH_ASSIGN_OR_RETURN(result.ranks, ranks.ToHost());
  algo_span.ArgNum("iterations", static_cast<uint64_t>(result.iterations));
  if (report != nullptr) report->direction = director.stats();
  return result;
}

}  // namespace adgraph::engine
