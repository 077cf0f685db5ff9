// The delta paths of warm-started runs (DESIGN.md §2.12).  core::Run
// decides whether a warm start may take them (engine/run.cc); each lands
// on the fixpoint a cold run reaches.

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "engine/algorithms.h"
#include "engine/relax.h"

namespace adgraph::engine {
namespace {

using graph::vid_t;
using vgpu::Ctx;
using vgpu::Lanes;

/// Min over level + 1 (the warm BFS re-expansion): a source pushes its
/// level plus one, the smaller level wins.  This converges to
/// shortest-path distances, the unique fixpoint a cold BFS lands on, which
/// is what makes warm-started re-expansion byte-identical.  The engine BFS
/// visits each vertex once instead; levels that can only drop need this
/// relaxation formulation.
struct MinLevel : MinSemiring<uint32_t> {
  static Lanes<uint32_t> Push(Ctx& c, const Lanes<uint32_t>& level) {
    return c.Add(level, 1u);
  }
};

Result<core::BfsResult> RunBfsDelta(vgpu::Device* device,
                                    const graph::CsrGraph& g,
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

  auto start = [&](rt::DeviceBuffer<uint32_t>& levels, Frontier& cur) {
    ADGRAPH_RETURN_NOT_OK(levels.Upload(previous.levels.data(), n));
    return cur.InitFromHost(seeds);
  };
  ADGRAPH_ASSIGN_OR_RETURN(
      Fixpoint<uint32_t> fixpoint,
      RelaxToFixpoint<MinLevel>(device, g, residency, core::GraphVariant::kAsIs,
                                "bfs_delta_relax", n, {}, nullptr, start));
  core::BfsResult result;
  result.levels = std::move(fixpoint.values);
  result.time_ms = fixpoint.time_ms;
  // Depth and visit count are functions of the (unique) level fixpoint, so
  // recomputing them host-side keeps them equal to a full recompute.
  for (uint32_t level : result.levels) {
    if (level == core::kUnreachedLevel) continue;
    result.vertices_visited += 1;
    result.depth = std::max(result.depth, level);
  }
  result.top_down_iterations = fixpoint.rounds;
  algo_span.ArgNum("rounds", static_cast<uint64_t>(fixpoint.rounds));
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
          RunBfsDelta(device, g, std::get<core::BfsResult>(*warm.previous),
                      ups, residency, info));
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
