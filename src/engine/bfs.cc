#include <string>
#include <utility>

#include "core/bfs.h"
#include "core/residency.h"
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
using vgpu::DevPtr;
using vgpu::LaneMask;
using vgpu::Lanes;

/// The BFS visit as a push-advance functor: claim v's level with a CAS;
/// freshly claimed vertices enter the next frontier (and record their
/// parent).
struct BfsPushOp {
  DevPtr<uint32_t> levels;
  DevPtr<vid_t> parents;
  uint32_t level;

  void LoadSource(Ctx&, const Lanes<vid_t>&) {}
  LaneMask Relax(Ctx& c, const Lanes<vid_t>&, const Lanes<eid_t>&,
                 const Lanes<vid_t>& v) {
    auto old = c.AtomicCas(levels, v, c.Splat(core::kUnreachedLevel),
                           c.Splat(level));
    return c.Eq(old, core::kUnreachedLevel);
  }
  void OnEnqueue(Ctx& c, const Lanes<vid_t>& u, const Lanes<vid_t>& v) {
    if (!parents.is_null()) c.Store(parents, v, u);
  }
};

/// The BFS bottom-up step as a pull-advance functor: an unreached vertex
/// adopts the first neighbor found on the previous level.
struct BfsPullOp {
  DevPtr<uint32_t> levels;
  DevPtr<vid_t> parents;
  uint32_t level;

  LaneMask Eligible(Ctx& c, const Lanes<vid_t>& v) {
    auto my_level = c.Load(levels, v);
    return c.Eq(my_level, core::kUnreachedLevel);
  }
  LaneMask Admit(Ctx& c, const Lanes<vid_t>&, const Lanes<vid_t>& nbr) {
    auto nbr_level = c.Load(levels, nbr);
    return c.Eq(nbr_level, level - 1);
  }
  void OnAdmit(Ctx& c, const Lanes<vid_t>& v, const Lanes<vid_t>& nbr) {
    c.Store(levels, v, c.Splat(level));
    if (!parents.is_null()) c.Store(parents, v, nbr);
  }
};

}  // namespace

Result<core::BfsResult> RunBfs(vgpu::Device* device, const graph::CsrGraph& g,
                               const core::BfsOptions& options,
                               core::GraphResidency* residency,
                               const EngineOptions& engine,
                               EngineReport* report) {
  ADGRAPH_ASSIGN_OR_RETURN(
      core::ResidentCsr staged,
      core::Stage(residency, device, g, core::GraphVariant::kAsIs));
  const core::DeviceCsr& d = *staged;
  const vid_t n = d.num_vertices;
  if (n == 0) return Status::InvalidArgument("BFS on empty graph");
  if (options.source >= n) {
    return Status::InvalidArgument("BFS source " +
                                   std::to_string(options.source) +
                                   " out of range");
  }

  trace::Span algo_span(device->trace_track(), "algo:bfs", "algo");
  algo_span.ArgNum("num_vertices", static_cast<uint64_t>(n));
  algo_span.ArgNum("source", static_cast<uint64_t>(options.source));

  // BFS never reads frontier flags, so it keeps bare queues: levels, two
  // n-entry queues and one count cell, then parents.  Allocation order
  // fixes the device addresses and with them every cache counter, which
  // Tables 5/6 are built from.
  ADGRAPH_ASSIGN_OR_RETURN(auto levels,
                           rt::DeviceBuffer<uint32_t>::Create(device, n));
  ADGRAPH_ASSIGN_OR_RETURN(auto cur,
                           rt::DeviceBuffer<vid_t>::Create(device, n));
  ADGRAPH_ASSIGN_OR_RETURN(auto next,
                           rt::DeviceBuffer<vid_t>::Create(device, n));
  ADGRAPH_ASSIGN_OR_RETURN(auto count,
                           rt::DeviceBuffer<uint32_t>::Create(device, 1));
  rt::DeviceBuffer<vid_t> parents;
  if (options.compute_parents) {
    ADGRAPH_ASSIGN_OR_RETURN(parents,
                             rt::DeviceBuffer<vid_t>::Create(device, n));
  }

  rt::DeviceTimer timer(device);

  ADGRAPH_RETURN_NOT_OK(core::primitives::Fill<uint32_t>(
      device, levels.ptr(), n, core::kUnreachedLevel));
  ADGRAPH_RETURN_NOT_OK(core::primitives::SetElement<uint32_t>(
      device, levels.ptr(), options.source, 0));
  ADGRAPH_RETURN_NOT_OK(core::primitives::SetElement<vid_t>(
      device, cur.ptr(), 0, options.source));
  if (options.compute_parents) {
    ADGRAPH_RETURN_NOT_OK(core::primitives::Fill<vid_t>(
        device, parents.ptr(), n, graph::kInvalidVertex));
  }

  CsrView view = MakeView(d);
  DevPtr<vid_t> parents_ptr =
      options.compute_parents ? parents.ptr() : DevPtr<vid_t>{};

  // BFS pins the gather to thread-per-vertex, the codegen the paper tables
  // were frozen with; kAuto resolves there, an explicit kWarpPerVertex is
  // honored.
  const bool warp_gather = engine.load_balance == LoadBalance::kWarpPerVertex;

  DirectionHeuristic heuristic;
  heuristic.alpha = options.alpha;
  const bool can_pull =
      options.direction_optimizing && options.assume_symmetric;
  DirectionEngine director(device, engine.direction, heuristic, can_pull);

  core::BfsResult result;
  uint32_t frontier_size = 1;
  bool frontier_is_queue = true;  // else implicit in levels (pull mode)
  uint32_t level = 1;

  while (frontier_size > 0) {
    ADGRAPH_RETURN_NOT_OK(
        core::primitives::SetElement<uint32_t>(device, count.ptr(), 0, 0));
    ADGRAPH_ASSIGN_OR_RETURN(Direction dir,
                             director.Choose(frontier_size, n, level));

    if (dir == Direction::kPull) {
      trace::Span sweep(device->trace_track(), "bfs.bottom_up", "phase");
      sweep.ArgNum("level", static_cast<uint64_t>(level));
      sweep.ArgNum("frontier_size", static_cast<uint64_t>(frontier_size));
      BfsPullOp op{levels.ptr(), parents_ptr, level};
      ADGRAPH_RETURN_NOT_OK(
          device
              ->Launch("bfs_bottom_up", rt::CoverThreads(n),
                       [&](Ctx& c) {
                         return PullAdvanceKernel(c, view, count.ptr(), op);
                       })
              .status());
      result.bottom_up_iterations += 1;
      frontier_is_queue = false;
    } else {
      trace::Span sweep(device->trace_track(), "bfs.top_down", "phase");
      sweep.ArgNum("level", static_cast<uint64_t>(level));
      sweep.ArgNum("frontier_size", static_cast<uint64_t>(frontier_size));
      if (!frontier_is_queue) {
        // Returning from pull: Filter the level-1 vertices into a queue.
        ADGRAPH_RETURN_NOT_OK(core::primitives::SetElement<uint32_t>(
            device, count.ptr(), 0, 0));
        LevelEqPred pred{levels.ptr(), level - 1};
        ADGRAPH_RETURN_NOT_OK(
            device
                ->Launch("bfs_levels_to_queue", rt::CoverThreads(n),
                         [&](Ctx& c) {
                           return FilterToQueueKernel(c, n, cur.ptr(),
                                                      count.ptr(), pred);
                         })
                .status());
        ADGRAPH_ASSIGN_OR_RETURN(frontier_size,
                                 core::primitives::GetElement<uint32_t>(
                                     device, count.ptr(), 0));
        ADGRAPH_RETURN_NOT_OK(core::primitives::SetElement<uint32_t>(
            device, count.ptr(), 0, 0));
        frontier_is_queue = true;
        director.RecordConversion(Frontier::Rep::kDense,
                                  Frontier::Rep::kSparse);
        if (frontier_size == 0) break;
      }
      BfsPushOp op{levels.ptr(), parents_ptr, level};
      if (warp_gather) {
        const uint64_t warp_threads = static_cast<uint64_t>(frontier_size) *
                                      device->arch().warp_width;
        ADGRAPH_RETURN_NOT_OK(
            device
                ->Launch("bfs_top_down_warp",
                         rt::CoverThreads(warp_threads, rt::kDefaultBlockSize,
                                          StageSharedBytes()),
                         [&](Ctx& c) {
                           return PushAdvanceWarpKernel(c, view, cur.ptr(),
                                                        frontier_size,
                                                        next.ptr(),
                                                        count.ptr(), op);
                         })
                .status());
      } else {
        ADGRAPH_RETURN_NOT_OK(
            device
                ->Launch("bfs_top_down",
                         rt::CoverThreads(frontier_size, rt::kDefaultBlockSize,
                                          StageSharedBytes()),
                         [&](Ctx& c) {
                           return PushAdvanceSparseKernel(c, view, cur.ptr(),
                                                          frontier_size,
                                                          next.ptr(),
                                                          count.ptr(), op);
                         })
                .status());
      }
      result.top_down_iterations += 1;
    }

    ADGRAPH_ASSIGN_OR_RETURN(
        uint32_t produced,
        core::primitives::GetElement<uint32_t>(device, count.ptr(), 0));
    if (dir == Direction::kPull) {
      // Stay implicit; `produced` counts newly visited vertices.
      frontier_size = produced;
    } else {
      std::swap(cur, next);
      frontier_size = produced;
      frontier_is_queue = true;
    }
    if (produced > 0) {
      result.depth = level;
    }
    ++level;
  }

  result.time_ms = timer.ElapsedMs();

  ADGRAPH_ASSIGN_OR_RETURN(result.levels, levels.ToHost());
  if (options.compute_parents) {
    ADGRAPH_ASSIGN_OR_RETURN(result.parents, parents.ToHost());
  }
  for (uint32_t lvl : result.levels) {
    if (lvl != core::kUnreachedLevel) result.vertices_visited += 1;
  }
  algo_span.ArgNum("depth", static_cast<uint64_t>(result.depth));
  algo_span.ArgNum("top_down_iterations",
                   static_cast<uint64_t>(result.top_down_iterations));
  algo_span.ArgNum("bottom_up_iterations",
                   static_cast<uint64_t>(result.bottom_up_iterations));
  if (report != nullptr) report->direction = director.stats();
  return result;
}

}  // namespace adgraph::engine
