#include "core/incremental.h"

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

/// Push relaxation over a monotone per-vertex value array: AtomicMin the
/// candidate into the destination, claim the output flag when it improved.
/// With values = BFS levels and candidate = level[u] + 1 this converges to
/// shortest-path distances; with values = CC labels and candidate =
/// label[u] it converges to min-label components.  Both are the unique
/// fixpoints the full algorithms land on, which is what makes warm-started
/// re-expansion byte-identical (DESIGN.md §2.12).
struct DeltaMinPushOp {
  DevPtr<uint32_t> values;
  DevPtr<uint32_t> out_flags;
  uint32_t candidate_bump;  ///< 1 for BFS levels, 0 for CC labels
  Lanes<uint32_t> cand;

  void LoadSource(Ctx& c, const Lanes<vid_t>& u) {
    cand = c.Add(c.Load(values, u), candidate_bump);
  }
  LaneMask Relax(Ctx& c, const Lanes<vid_t>&, const Lanes<eid_t>&,
                 const Lanes<vid_t>& v) {
    auto old = c.AtomicMin(values, v, cand);
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

/// Runs seeded min-value push relaxation to convergence.  `values` already
/// holds the warm-started array on the device; `seeds` are the vertices
/// whose outgoing edges may improve a neighbor.  Returns the round count.
Result<uint32_t> RelaxToFixpoint(vgpu::Device* device, const core::DeviceCsr& d,
                                 rt::DeviceBuffer<uint32_t>* values,
                                 const std::vector<vid_t>& seeds,
                                 uint32_t candidate_bump, uint32_t block_size,
                                 const char* kernel_name) {
  const vid_t n = static_cast<vid_t>(values->size());
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
    DeltaMinPushOp op{values->ptr(), next.flags(), candidate_bump, {}};
    if (lb == LoadBalance::kWarpPerVertex) {
      const uint64_t warp_threads =
          static_cast<uint64_t>(frontier_size) * device->arch().warp_width;
      ADGRAPH_RETURN_NOT_OK(
          device
              ->Launch(kernel_name,
                       rt::CoverThreads(warp_threads, block_size,
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
              ->Launch(kernel_name,
                       rt::CoverThreads(frontier_size, block_size,
                                        StageSharedBytes()),
                       [&](Ctx& c) {
                         return PushAdvanceSparseKernel(
                             c, view, cur.queue(), frontier_size, next.queue(),
                             next.count(), op);
                       })
              .status());
    }
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
                                    const core::IncrementalOptions& inc,
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
  if (info != nullptr) info->seed_vertices = seeds.size();

  ADGRAPH_ASSIGN_OR_RETURN(
      core::ResidentCsr staged,
      core::Stage(residency, device, g, core::GraphVariant::kAsIs));
  ADGRAPH_ASSIGN_OR_RETURN(
      auto levels, rt::DeviceBuffer<uint32_t>::FromHost(device,
                                                        previous.levels));
  rt::DeviceTimer timer(device);
  ADGRAPH_ASSIGN_OR_RETURN(
      uint32_t rounds,
      RelaxToFixpoint(device, *staged, &levels, seeds, /*candidate_bump=*/1,
                      inc.block_size, "bfs_delta_relax"));

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
  (void)options;
  return result;
}

Result<core::CcResult> RunCcDelta(vgpu::Device* device,
                                  const graph::CsrGraph& g,
                                  const core::CcOptions& options,
                                  const core::CcResult& previous,
                                  const std::vector<graph::EdgeUpdate>& ups,
                                  const core::IncrementalOptions& inc,
                                  core::GraphResidency* residency,
                                  core::IncrementalInfo* info) {
  const vid_t n = g.num_vertices();
  trace::Span algo_span(device->trace_track(), "algo:cc_delta", "algo");
  algo_span.ArgNum("num_vertices", static_cast<uint64_t>(n));
  algo_span.ArgNum("delta_edges", static_cast<uint64_t>(ups.size()));

  // An insert only matters when it bridges two differently-labeled
  // components; both endpoints seed so the smaller label can flow either
  // way across the new (symmetrized) edge.
  std::set<vid_t> seed_set;
  for (const auto& up : ups) {
    if (previous.labels[up.u] != previous.labels[up.v]) {
      seed_set.insert(up.u);
      seed_set.insert(up.v);
    }
  }
  std::vector<vid_t> seeds(seed_set.begin(), seed_set.end());
  if (info != nullptr) info->seed_vertices = seeds.size();

  ADGRAPH_ASSIGN_OR_RETURN(
      core::ResidentCsr staged,
      core::Stage(residency, device, g, core::GraphVariant::kSymSimple));
  ADGRAPH_ASSIGN_OR_RETURN(
      auto labels, rt::DeviceBuffer<vid_t>::FromHost(device, previous.labels));
  rt::DeviceTimer timer(device);
  ADGRAPH_ASSIGN_OR_RETURN(
      uint32_t rounds,
      RelaxToFixpoint(device, *staged, &labels, seeds, /*candidate_bump=*/0,
                      inc.block_size, "cc_delta_relax"));

  core::CcResult result;
  result.time_ms = timer.ElapsedMs();
  ADGRAPH_ASSIGN_OR_RETURN(result.labels, labels.ToHost());
  for (vid_t v = 0; v < n; ++v) {
    if (result.labels[v] == v) result.num_components += 1;
  }
  result.iterations = rounds;
  algo_span.ArgNum("num_components", result.num_components);
  (void)options;
  return result;
}

bool HasDeletion(const std::vector<graph::EdgeUpdate>& ups) {
  return std::any_of(ups.begin(), ups.end(),
                     [](const graph::EdgeUpdate& up) { return !up.insert; });
}

}  // namespace
}  // namespace adgraph::engine

namespace adgraph::core {

Result<AlgoResult> RunIncremental(vgpu::Device* device, const AlgoSpec& spec,
                                  graph::DeltaGraph& delta,
                                  const Params& params,
                                  const AlgoResult& previous,
                                  uint64_t previous_version,
                                  const IncrementalOptions& options,
                                  GraphResidency* residency,
                                  IncrementalInfo* info) {
  if (device == nullptr) {
    return Status::InvalidArgument("RunIncremental requires a device");
  }
  if (static_cast<size_t>(spec.algo) != params.index()) {
    return Status::InvalidArgument(
        "params variant does not match the requested algorithm");
  }
  ADGRAPH_ASSIGN_OR_RETURN(auto snapshot, delta.Snapshot());
  const graph::CsrGraph& g = *snapshot;

  IncrementalInfo local;
  IncrementalInfo* out = info != nullptr ? info : &local;
  *out = IncrementalInfo{};

  auto fallback = [&](std::string reason) -> Result<AlgoResult> {
    out->incremental = false;
    out->fallback_reason = std::move(reason);
    return Run(device, spec, g, params, residency);
  };

  if (options.force_full) return fallback("forced full recompute");
  if (g.num_vertices() == 0) return fallback("empty graph");
  if (previous.index() != params.index()) {
    return fallback("previous result is from a different algorithm");
  }
  auto updates = delta.UpdatesSince(previous_version);
  if (!updates.has_value()) {
    return fallback("update history unavailable for the previous version");
  }
  out->updates_applied = updates->size();
  const double m =
      static_cast<double>(std::max<graph::eid_t>(1, g.num_edges()));
  if (static_cast<double>(updates->size()) > options.full_threshold * m) {
    return fallback("delta exceeds the full-recompute threshold");
  }

  switch (spec.algo) {
    case Algo::kBfs: {
      const auto& bfs_options = std::get<BfsOptions>(params);
      const auto& prev = std::get<BfsResult>(previous);
      if (bfs_options.compute_parents) {
        return fallback("parents requested (no incremental maintenance)");
      }
      if (prev.levels.size() != g.num_vertices()) {
        return fallback("previous levels do not match the vertex count");
      }
      if (engine::HasDeletion(*updates)) {
        return fallback("deletion in delta (BFS re-expansion is insert-only)");
      }
      out->incremental = true;
      ADGRAPH_ASSIGN_OR_RETURN(
          BfsResult r,
          engine::RunBfsDelta(device, g, bfs_options, prev, *updates, options,
                              residency, out));
      return AlgoResult{std::move(r)};
    }
    case Algo::kConnectedComponents: {
      const auto& cc_options = std::get<CcOptions>(params);
      const auto& prev = std::get<CcResult>(previous);
      if (prev.labels.size() != g.num_vertices()) {
        return fallback("previous labels do not match the vertex count");
      }
      if (engine::HasDeletion(*updates)) {
        return fallback("deletion in delta (CC re-expansion is insert-only)");
      }
      out->incremental = true;
      ADGRAPH_ASSIGN_OR_RETURN(
          CcResult r,
          engine::RunCcDelta(device, g, cc_options, prev, *updates, options,
                             residency, out));
      return AlgoResult{std::move(r)};
    }
    case Algo::kPageRank: {
      const auto& pr_options = std::get<PageRankOptions>(params);
      const auto& prev = std::get<PageRankResult>(previous);
      if (prev.ranks.size() != g.num_vertices()) {
        return fallback("previous ranks do not match the vertex count");
      }
      out->incremental = true;
      // Delta-PageRank: the full-recompute loop warm-started from the
      // previous ranks instead of 1/n.  Small deltas leave those ranks near
      // the new fixpoint, so the tolerance check trips after far fewer
      // iterations (cf. katana's PagerankDelta).
      ADGRAPH_ASSIGN_OR_RETURN(
          PageRankResult r,
          engine::RunPageRank(device, g, pr_options, residency, {}, nullptr,
                              &prev.ranks));
      return AlgoResult{std::move(r)};
    }
    default:
      return fallback("no incremental path for this algorithm");
  }
}

}  // namespace adgraph::core
