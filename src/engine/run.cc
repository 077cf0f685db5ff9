#include <string>
#include <variant>

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
                             ExchangeStats* stats) {
  ADGRAPH_ASSIGN_OR_RETURN(
      auto engine, part::PartitionedEngine::Create(
                       device->arch(),
                       {.num_devices = placement.gang_devices,
                        .device_options = device->options(),
                        .interconnect = placement.interconnect}));
  ADGRAPH_ASSIGN_OR_RETURN(
      part::PartitionPlan plan,
      part::MakePartitionPlan(g, placement.gang_devices, placement.strategy));
  if (const auto* bfs = std::get_if<BfsOptions>(&params)) {
    ADGRAPH_ASSIGN_OR_RETURN(
        BfsResult r,
        part::RunPartitionedBfs(engine.get(), g, plan, *bfs, stats));
    return AlgoResult(std::move(r));
  }
  ADGRAPH_ASSIGN_OR_RETURN(
      PageRankResult r,
      part::RunPartitionedPageRank(engine.get(), g, plan,
                                   std::get<PageRankOptions>(params), stats));
  return AlgoResult(std::move(r));
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
  if (report != nullptr) *report = RunReport{};
  switch (spec.placement.kind) {
    case Placement::Kind::kGang:
      return RunInGang(device, spec.placement, g, params,
                       report != nullptr ? &report->exchange : nullptr);
    case Placement::Kind::kStreamed:
      return RunThroughStream(device, spec.placement, g, params,
                              report != nullptr ? &report->staging : nullptr);
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
