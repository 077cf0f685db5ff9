#include <algorithm>
#include <string>
#include <variant>
#include <vector>

#include "core/api.h"
#include "core/residency.h"
#include "engine/algorithms.h"
#include "engine/engine.h"
#include "ooc/ooc_csr.h"
#include "ooc/streamed.h"
#include "part/engine.h"
#include "part/part_bfs.h"
#include "part/part_pagerank.h"
#include "part/partition.h"
#include "prof/metrics.h"

// core::Run lives in the engine library (not adgraph_core) because six of
// the algorithms dispatch into the frontier/operator engine, and the gang
// and streamed placements into part/ and ooc/ (neither links the engine);
// core/api.h documents the layering.

namespace adgraph::core {
namespace {

// Both placement runners below see only requests CheckPlacement admitted,
// so params not holding BfsOptions hold PageRankOptions.

/// A gang of fresh devices like `device` over vertex-range shards.
Result<AlgoResult> RunInGang(vgpu::Device* device, const Placement& placement,
                             const graph::CsrGraph& g, const Params& params,
                             RunReport* report) {
  ADGRAPH_ASSIGN_OR_RETURN(
      auto engine, part::PartitionedEngine::Create(
                       device->arch(),
                       {.num_devices = placement.gang_devices,
                        .device_options = device->options(),
                        .interconnect = placement.interconnect}));
  ADGRAPH_ASSIGN_OR_RETURN(
      part::PartitionPlan plan,
      part::MakePartitionPlan(g, placement.gang_devices, placement.strategy));
  AlgoResult result;
  if (const auto* bfs = std::get_if<BfsOptions>(&params)) {
    ADGRAPH_ASSIGN_OR_RETURN(
        result, part::RunPartitionedBfs(engine.get(), g, plan, *bfs,
                                        &report->exchange));
  } else {
    ADGRAPH_ASSIGN_OR_RETURN(
        result, part::RunPartitionedPageRank(engine.get(), g, plan,
                                             std::get<PageRankOptions>(params),
                                             &report->exchange));
  }
  std::vector<vgpu::KernelStats> log;
  for (uint32_t d = 0; d < engine->num_devices(); ++d) {
    const std::vector<vgpu::KernelStats>& device_log =
        engine->device(d)->kernel_log();
    log.insert(log.end(), device_log.begin(), device_log.end());
  }
  report->gang_profile = prof::ProfileWindow(log, 0);
  return result;
}

/// `device` streaming shards of the host-resident `g` (for PageRank, of its
/// pull transpose) through the double buffer.
Result<AlgoResult> RunThroughStream(vgpu::Device* device,
                                    const Placement& placement,
                                    const graph::CsrGraph& g,
                                    const Params& params,
                                    StagingStats* stats) {
  ooc::OocOptions options;
  options.shard_bytes = placement.slot_bytes;
  if (const auto* bfs = std::get_if<BfsOptions>(&params)) {
    ADGRAPH_ASSIGN_OR_RETURN(ooc::OocCsr base,
                             ooc::OocCsr::FromMemory(g, options.shard_bytes));
    ADGRAPH_ASSIGN_OR_RETURN(
        BfsResult r, ooc::RunStreamedBfs(device, base, *bfs, options, stats));
    return AlgoResult(std::move(r));
  }
  ADGRAPH_ASSIGN_OR_RETURN(graph::CsrGraph pull,
                           BuildHostVariant(g, GraphVariant::kPullTranspose));
  ADGRAPH_ASSIGN_OR_RETURN(ooc::OocCsr pull_csr,
                           ooc::OocCsr::FromMemory(pull, options.shard_bytes));
  ADGRAPH_ASSIGN_OR_RETURN(
      PageRankResult r,
      ooc::RunStreamedPageRank(device, pull_csr, g.row_offsets(),
                               std::get<PageRankOptions>(params), options,
                               stats));
  return AlgoResult(std::move(r));
}

/// The one list of reasons a warm start recomputes in full; "" when
/// engine::RunWarmStarted may run it.
std::string WarmStartFallback(const AlgoSpec& spec, const graph::CsrGraph& g,
                              const Params& params) {
  const WarmStart& warm = *spec.warm_start;
  if (warm.previous == nullptr) return "no previous result to warm-start from";
  if (spec.placement.kind == Placement::Kind::kGang) {
    return "gang placement, which recomputes in full";
  }
  if (spec.placement.kind == Placement::Kind::kStreamed) {
    return "admitted to the streamed tier, which recomputes in full";
  }
  if (g.num_vertices() == 0) return "empty graph";
  if (warm.previous->index() != params.index()) {
    return "previous result is from a different algorithm";
  }
  if (!warm.updates.has_value()) {
    return "update history unavailable for the previous version";
  }
  const auto& ups = *warm.updates;
  const double m =
      static_cast<double>(std::max<graph::eid_t>(1, g.num_edges()));
  if (static_cast<double>(ups.size()) > warm.full_threshold * m) {
    return "delta exceeds the full-recompute threshold";
  }
  const graph::vid_t n = g.num_vertices();
  if (std::any_of(ups.begin(), ups.end(), [n](const graph::EdgeUpdate& up) {
        return up.u >= n || up.v >= n;
      })) {
    return "delta names vertices outside the graph";
  }
  const bool deletion =
      std::any_of(ups.begin(), ups.end(),
                  [](const graph::EdgeUpdate& up) { return !up.insert; });
  switch (spec.algo) {
    case Algo::kBfs:
      if (std::get<BfsOptions>(params).compute_parents) {
        return "parents requested (no incremental maintenance)";
      }
      if (std::get<BfsResult>(*warm.previous).levels.size() != n) {
        return "previous levels do not match the vertex count";
      }
      if (deletion) {
        return "deletion in delta (BFS re-expansion is insert-only)";
      }
      return "";
    case Algo::kConnectedComponents:
      if (std::get<CcResult>(*warm.previous).labels.size() != n) {
        return "previous labels do not match the vertex count";
      }
      if (deletion) return "deletion in delta (CC re-expansion is insert-only)";
      return "";
    case Algo::kPageRank:
      if (std::get<PageRankResult>(*warm.previous).ranks.size() != n) {
        return "previous ranks do not match the vertex count";
      }
      return "";
    default:
      return "no incremental path for this algorithm";
  }
}

}  // namespace

Result<AlgoResult> Run(vgpu::Device* device, const AlgoSpec& spec,
                       const graph::CsrGraph& g, const Params& params,
                       GraphResidency* residency, RunReport* report) {
  if (static_cast<size_t>(spec.algo) != params.index()) {
    return Status::InvalidArgument(
        "algorithm/params mismatch: spec selects " +
        std::string(AlgorithmName(spec.algo)) + " but params carry " +
        std::string(AlgorithmName(static_cast<Algo>(params.index()))) +
        " options");
  }
  ADGRAPH_RETURN_NOT_OK(CheckPlacement(spec.placement, params));
  RunReport local;
  if (report == nullptr) report = &local;
  *report = RunReport{};
  if (spec.warm_start != nullptr) {
    IncrementalInfo& info = report->incremental;
    info.fallback_reason = WarmStartFallback(spec, g, params);
    if (info.fallback_reason.empty()) {
      info.incremental = true;
      return engine::RunWarmStarted(device, spec.algo, g, params,
                                    *spec.warm_start, residency, &info);
    }
  }
  switch (spec.placement.kind) {
    case Placement::Kind::kGang:
      return RunInGang(device, spec.placement, g, params, report);
    case Placement::Kind::kStreamed:
      return RunThroughStream(device, spec.placement, g, params,
                              &report->staging);
    case Placement::Kind::kDevice:
      break;
  }

  switch (spec.algo) {
    case Algo::kBfs: {
      ADGRAPH_ASSIGN_OR_RETURN(
          auto r, engine::RunBfs(device, g, std::get<BfsOptions>(params),
                                 residency));
      return AlgoResult(std::move(r));
    }
    case Algo::kSssp: {
      ADGRAPH_ASSIGN_OR_RETURN(
          auto r, engine::RunSssp(device, g, std::get<SsspOptions>(params),
                                  residency));
      return AlgoResult(std::move(r));
    }
    case Algo::kPageRank: {
      ADGRAPH_ASSIGN_OR_RETURN(
          auto r, engine::RunPageRank(device, g,
                                      std::get<PageRankOptions>(params),
                                      residency));
      return AlgoResult(std::move(r));
    }
    case Algo::kTriangleCount: {
      ADGRAPH_ASSIGN_OR_RETURN(
          auto r,
          RunTriangleCount(device, g, std::get<TcOptions>(params), residency));
      return AlgoResult(std::move(r));
    }
    case Algo::kConnectedComponents: {
      ADGRAPH_ASSIGN_OR_RETURN(
          auto r, engine::RunConnectedComponents(
                      device, g, std::get<CcOptions>(params), residency));
      return AlgoResult(std::move(r));
    }
    case Algo::kKCore: {
      ADGRAPH_ASSIGN_OR_RETURN(
          auto r, RunKCore(device, g, std::get<KCoreOptions>(params),
                           residency));
      return AlgoResult(std::move(r));
    }
    case Algo::kJaccard: {
      ADGRAPH_ASSIGN_OR_RETURN(
          auto r, RunJaccard(device, g, std::get<JaccardOptions>(params),
                             residency));
      return AlgoResult(std::move(r));
    }
    case Algo::kWidestPath: {
      ADGRAPH_ASSIGN_OR_RETURN(
          auto r, engine::RunWidestPath(device, g,
                                        std::get<WidestPathOptions>(params),
                                        residency));
      return AlgoResult(std::move(r));
    }
    case Algo::kColoring: {
      ADGRAPH_ASSIGN_OR_RETURN(
          auto r, RunGraphColoring(device, g, std::get<ColoringOptions>(params),
                                   residency));
      return AlgoResult(std::move(r));
    }
    case Algo::kEsbv: {
      ADGRAPH_ASSIGN_OR_RETURN(
          auto r, ExtractSubgraphByVertex(device, g,
                                          std::get<EsbvOptions>(params),
                                          residency));
      return AlgoResult(std::move(r));
    }
    case Algo::kBetweenness: {
      ADGRAPH_ASSIGN_OR_RETURN(
          auto r, engine::RunBetweenness(device, g, std::get<BcOptions>(params),
                                         residency));
      return AlgoResult(std::move(r));
    }
  }
  return Status::InvalidArgument("unknown algorithm id " +
                                 std::to_string(static_cast<int>(spec.algo)));
}

}  // namespace adgraph::core
