// The delta paths of warm-started runs (DESIGN.md §2.12).  core::Run
// decides whether a warm start may take them (engine/run.cc); each lands
// on the fixpoint a cold run reaches.

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "core/bfs.h"
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
using vgpu::LaneMask;
using vgpu::Lanes;

/// Push relaxation of BFS levels: AtomicMin level[u] + 1 into the
/// destination, claim the output flag when it improved.  This converges to
/// shortest-path distances, the unique fixpoint a cold BFS lands on, which
/// is what makes warm-started re-expansion byte-identical.  The engine BFS
/// visits each vertex once instead; levels that can only drop need this
/// relaxation formulation.
struct LevelMinPushOp {
  DevPtr<uint32_t> levels;
  DevPtr<uint32_t> out_flags;
  Lanes<uint32_t> cand;

  void LoadSource(Ctx& c, const Lanes<vid_t>& u) {
    cand = c.Add(c.Load(levels, u), 1u);
  }
  LaneMask Relax(Ctx& c, const Lanes<vid_t>&, const Lanes<eid_t>&,
                 const Lanes<vid_t>& v) {
    auto old = c.AtomicMin(levels, v, cand);
    auto improved = c.Gt(old, cand);
    LaneMask fresh = 0;
    c.If(improved, [&](Ctx& c) {
      auto prev = c.AtomicExch(out_flags, v, c.Splat<uint32_t>(1));
      fresh = c.Eq(prev, 0u);
    });
    return fresh;
  }
  void OnEnqueue(Ctx&, const Lanes<vid_t>&, const Lanes<vid_t>&) {}
};

/// Runs seeded level relaxation to convergence.  `levels` already holds
/// the warm-started levels on the device; `seeds` are the vertices whose
/// outgoing edges may improve a neighbor.  Returns the round count.
Result<uint32_t> RelaxToFixpoint(vgpu::Device* device, const core::DeviceCsr& d,
                                 rt::DeviceBuffer<uint32_t>* levels,
                                 const std::vector<vid_t>& seeds,
                                 uint32_t block_size) {
  const vid_t n = static_cast<vid_t>(levels->size());
  ADGRAPH_ASSIGN_OR_RETURN(Frontier cur, Frontier::Create(device, n));
  ADGRAPH_ASSIGN_OR_RETURN(Frontier next, Frontier::Create(device, n));
  ADGRAPH_RETURN_NOT_OK(cur.InitFromHost(seeds, block_size));

  CsrView view = MakeView(d);
  const LoadBalance lb = ResolveLoadBalance(LoadBalance::kAuto, d.num_edges, n,
                                            device->arch().warp_width);
  uint32_t rounds = 0;
  uint32_t frontier_size = cur.size();
  while (frontier_size > 0 && rounds < n) {
    trace::Span sweep(device->trace_track(), "incremental.relax_round",
                      "phase");
    sweep.ArgNum("round", static_cast<uint64_t>(rounds + 1));
    sweep.ArgNum("frontier_size", static_cast<uint64_t>(frontier_size));
    ADGRAPH_RETURN_NOT_OK(next.Clear(block_size));
    LevelMinPushOp op{levels->ptr(), next.flags(), {}};
    ADGRAPH_RETURN_NOT_OK(LaunchPushAdvance(device, "bfs_delta_relax", view,
                                            lb, cur, frontier_size, next,
                                            block_size, op));
    rounds += 1;
    ADGRAPH_RETURN_NOT_OK(next.RefreshCount());
    frontier_size = next.size();
    next.set_rep(Frontier::Rep::kSparse);
    swap(cur, next);
  }
  return rounds;
}

Result<core::BfsResult> RunBfsDelta(vgpu::Device* device,
                                    const graph::CsrGraph& g,
                                    const core::BfsOptions& options,
                                    const core::BfsResult& previous,
                                    const std::vector<graph::EdgeUpdate>& ups,
                                    core::GraphResidency* residency,
                                    core::IncrementalInfo* info) {
  const vid_t n = g.num_vertices();
  trace::Span algo_span(device->trace_track(), "algo:bfs_delta", "algo");
  algo_span.ArgNum("num_vertices", static_cast<uint64_t>(n));
  algo_span.ArgNum("delta_edges", static_cast<uint64_t>(ups.size()));

  // A new edge (u,v) can only improve distances when its source is reached
  // and relaxing it would shorten v; those sources seed the re-expansion.
  std::set<vid_t> seed_set;
  for (const auto& up : ups) {
    if (previous.levels[up.u] != core::kUnreachedLevel &&
        previous.levels[up.v] > previous.levels[up.u] + 1) {
      seed_set.insert(up.u);
    }
  }
  std::vector<vid_t> seeds(seed_set.begin(), seed_set.end());
  info->seed_vertices = seeds.size();

  ADGRAPH_ASSIGN_OR_RETURN(
      core::ResidentCsr staged,
      core::Stage(residency, device, g, core::GraphVariant::kAsIs));
  ADGRAPH_ASSIGN_OR_RETURN(
      auto levels, rt::DeviceBuffer<uint32_t>::FromHost(device,
                                                        previous.levels));
  rt::DeviceTimer timer(device);
  ADGRAPH_ASSIGN_OR_RETURN(
      uint32_t rounds,
      RelaxToFixpoint(device, *staged, &levels, seeds, options.block_size));

  core::BfsResult result;
  result.time_ms = timer.ElapsedMs();
  ADGRAPH_ASSIGN_OR_RETURN(result.levels, levels.ToHost());
  // Depth and visit count are functions of the (unique) level fixpoint, so
  // recomputing them host-side keeps them equal to a full recompute.
  for (uint32_t level : result.levels) {
    if (level == core::kUnreachedLevel) continue;
    result.vertices_visited += 1;
    result.depth = std::max(result.depth, level);
  }
  result.top_down_iterations = rounds;
  result.bottom_up_iterations = 0;
  algo_span.ArgNum("rounds", static_cast<uint64_t>(rounds));
  return result;
}

}  // namespace

Result<core::AlgoResult> RunWarmStarted(vgpu::Device* device,
                                        core::Algo algo,
                                        const graph::CsrGraph& g,
                                        const core::Params& params,
                                        const core::WarmStart& warm,
                                        core::GraphResidency* residency,
                                        core::IncrementalInfo* info) {
  const std::vector<graph::EdgeUpdate>& ups = *warm.updates;
  switch (algo) {
    case core::Algo::kBfs: {
      ADGRAPH_ASSIGN_OR_RETURN(
          core::BfsResult r,
          RunBfsDelta(device, g, std::get<core::BfsOptions>(params),
                      std::get<core::BfsResult>(*warm.previous), ups,
                      residency, info));
      return core::AlgoResult(std::move(r));
    }
    case core::Algo::kConnectedComponents: {
      // An insert only matters when it bridges two differently-labeled
      // components; both endpoints seed so the smaller label can flow
      // either way across the new (symmetrized) edge.
      const auto& prev = std::get<core::CcResult>(*warm.previous);
      std::set<vid_t> seed_set;
      for (const auto& up : ups) {
        if (prev.labels[up.u] != prev.labels[up.v]) {
          seed_set.insert(up.u);
          seed_set.insert(up.v);
        }
      }
      const std::vector<vid_t> seeds(seed_set.begin(), seed_set.end());
      info->seed_vertices = seeds.size();
      const CcStart start{prev.labels, seeds};
      ADGRAPH_ASSIGN_OR_RETURN(
          core::CcResult r,
          RunConnectedComponents(device, g, std::get<core::CcOptions>(params),
                                 residency, {}, nullptr, &start));
      return core::AlgoResult(std::move(r));
    }
    case core::Algo::kPageRank: {
      // Delta-PageRank: the cold loop warm-started from the previous ranks
      // instead of 1/n.  Small deltas leave those ranks near the new
      // fixpoint, so the tolerance check trips after far fewer iterations
      // (cf. katana's PagerankDelta).
      ADGRAPH_ASSIGN_OR_RETURN(
          core::PageRankResult r,
          RunPageRank(device, g, std::get<core::PageRankOptions>(params),
                      residency, {}, nullptr,
                      &std::get<core::PageRankResult>(*warm.previous).ranks));
      return core::AlgoResult(std::move(r));
    }
    default:
      return Status::Internal("no delta path for " +
                              std::string(core::AlgorithmName(algo)));
  }
}

}  // namespace adgraph::engine
