// Tests of src/part/: the interconnect model, 1-D partition plans, shard
// graph materialization, the partitioned engine's validation, and the
// partitioned BFS / PageRank drivers — including the load-bearing property
// that partitioned BFS levels are byte-identical to the single-device run
// and partitioned PageRank matches within floating-point re-association
// error, across shard counts (2 / 3 / 8) and with empty shards.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/api.h"
#include "graph/csr.h"
#include "graph/generate.h"
#include "part/engine.h"
#include "part/part_bfs.h"
#include "part/part_pagerank.h"
#include "part/partition.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"
#include "vgpu/interconnect.h"

namespace adgraph::part {
namespace {

using graph::CsrGraph;
using graph::vid_t;

CsrGraph TestGraph(uint32_t scale = 9, uint64_t seed = 42) {
  auto coo = graph::GenerateRmat(
                 {.scale = scale, .edge_factor = 8.0, .seed = seed})
                 .value();
  graph::CsrBuildOptions options;
  options.remove_duplicates = true;
  options.remove_self_loops = true;
  options.make_undirected = true;
  return CsrGraph::FromCoo(coo, options).value();
}

/// Hub 0 connected to everyone else — maximal degree skew for the
/// degree-balanced strategy to chew on.
CsrGraph StarGraph(vid_t n) {
  graph::CooGraph coo;
  coo.num_vertices = n;
  for (vid_t v = 1; v < n; ++v) {
    coo.AddEdge(0, v);
    coo.AddEdge(v, 0);
  }
  return CsrGraph::FromCoo(coo, {}).value();
}

// ---------------------------------------------------------------------------
// Interconnect model
// ---------------------------------------------------------------------------

TEST(InterconnectTest, PresetsParseByName) {
  auto pcie = vgpu::InterconnectPresetByName("pcie");
  ASSERT_TRUE(pcie.ok());
  EXPECT_EQ(pcie->name, "pcie");
  auto nvlink = vgpu::InterconnectPresetByName("nvlink");
  ASSERT_TRUE(nvlink.ok());
  EXPECT_GT(nvlink->link_gbps, pcie->link_gbps);
  EXPECT_LT(nvlink->latency_us, pcie->latency_us);
  EXPECT_FALSE(vgpu::InterconnectPresetByName("infiniband").ok());
}

TEST(InterconnectTest, ValidateRejectsDegenerateConfigs) {
  vgpu::InterconnectConfig config = vgpu::NvlinkPreset();
  EXPECT_TRUE(vgpu::ValidateInterconnectConfig(config).ok());
  config.link_gbps = 0;
  EXPECT_EQ(vgpu::ValidateInterconnectConfig(config).code(),
            StatusCode::kInvalidArgument);
  config = vgpu::NvlinkPreset();
  config.link_gbps = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(vgpu::ValidateInterconnectConfig(config).ok());
  config = vgpu::NvlinkPreset();
  config.latency_us = -1;
  EXPECT_FALSE(vgpu::ValidateInterconnectConfig(config).ok());
  config = vgpu::NvlinkPreset();
  config.latency_us = std::nan("");
  EXPECT_FALSE(vgpu::ValidateInterconnectConfig(config).ok());
}

TEST(InterconnectTest, RoundTimingIsLatencyPlusBusiestLink) {
  vgpu::InterconnectConfig config;
  config.name = "test";
  config.link_gbps = 1.0;   // 1e9 B/s: 1e6 bytes == 1 ms
  config.latency_us = 10.0;
  vgpu::Interconnect ic(3, config);

  ic.AccountTransfer(0, 1, 1'000'000);  // busiest link
  ic.AccountTransfer(0, 2, 250'000);
  ic.AccountTransfer(2, 1, 500'000);
  auto round = ic.EndRound("test-round");
  EXPECT_EQ(round.bytes, 1'750'000u);
  EXPECT_NEAR(round.modeled_ms, 0.01 + 1.0, 1e-9);

  EXPECT_EQ(ic.total_bytes(), 1'750'000u);
  EXPECT_EQ(ic.total_rounds(), 1u);
  EXPECT_EQ(ic.pair_bytes()[0 * 3 + 1], 1'000'000u);
  EXPECT_EQ(ic.pair_bytes()[2 * 3 + 1], 500'000u);
}

TEST(InterconnectTest, EmptyRoundCostsNothingAndLocalTrafficIsFree) {
  vgpu::Interconnect ic(2, vgpu::NvlinkPreset());
  ic.AccountTransfer(1, 1, 12345);  // src == dst: never crosses a link
  auto round = ic.EndRound("empty");
  EXPECT_EQ(round.bytes, 0u);
  EXPECT_EQ(round.modeled_ms, 0.0);
  EXPECT_EQ(ic.total_bytes(), 0u);
}

TEST(InterconnectTest, CounterRecordMirrorsTotals) {
  vgpu::Interconnect ic(2, vgpu::NvlinkPreset());
  ic.AccountTransfer(0, 1, 4096);
  ic.EndRound("r1");
  ic.AccountTransfer(1, 0, 1024);
  ic.EndRound("r2");
  auto record = ic.CounterRecord();
  EXPECT_EQ(record.peer_bytes_sent, 5120u);
  EXPECT_EQ(record.peer_bytes_received, 5120u);
  EXPECT_EQ(record.peer_exchanges, 2u);
}

// ---------------------------------------------------------------------------
// Partition plans and shard graphs
// ---------------------------------------------------------------------------

TEST(PartitionPlanTest, UniformCoversRangeEvenly) {
  CsrGraph g = TestGraph();
  auto plan = MakePartitionPlan(g, 3, PartitionStrategy::kUniform);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->num_shards(), 3u);
  EXPECT_EQ(plan->boundaries.front(), 0u);
  EXPECT_EQ(plan->boundaries.back(), g.num_vertices());
  vid_t min_size = g.num_vertices();
  vid_t max_size = 0;
  for (uint32_t s = 0; s < 3; ++s) {
    min_size = std::min(min_size, plan->shard_size(s));
    max_size = std::max(max_size, plan->shard_size(s));
  }
  EXPECT_LE(max_size - min_size, 1u);
}

TEST(PartitionPlanTest, DegreeBalancedTamesSkew) {
  CsrGraph star = StarGraph(1000);
  auto uniform = MakePartitionPlan(star, 4, PartitionStrategy::kUniform);
  auto degree = MakePartitionPlan(star, 4, PartitionStrategy::kDegreeBalanced);
  ASSERT_TRUE(uniform.ok());
  ASSERT_TRUE(degree.ok());
  auto shard_edges = [&](const PartitionPlan& plan, uint32_t s) {
    uint64_t edges = 0;
    for (vid_t v = plan.lo(s); v < plan.hi(s); ++v) edges += star.degree(v);
    return edges;
  };
  auto max_edges = [&](const PartitionPlan& plan) {
    uint64_t most = 0;
    for (uint32_t s = 0; s < plan.num_shards(); ++s) {
      most = std::max(most, shard_edges(plan, s));
    }
    return most;
  };
  // Uniform parks the hub plus a quarter of the spokes on shard 0; the
  // degree-balanced split must do strictly better on the busiest shard.
  EXPECT_LT(max_edges(*degree), max_edges(*uniform));
}

TEST(PartitionPlanTest, OwnerOfMatchesBoundaries) {
  CsrGraph g = TestGraph();
  auto plan = MakePartitionPlan(g, 5, PartitionStrategy::kDegreeBalanced);
  ASSERT_TRUE(plan.ok());
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    const uint32_t owner = plan->OwnerOf(v);
    EXPECT_GE(v, plan->lo(owner));
    EXPECT_LT(v, plan->hi(owner));
  }
}

TEST(PartitionPlanTest, MoreShardsThanVerticesLeavesEmptyShards) {
  CsrGraph tiny = StarGraph(5);
  auto plan = MakePartitionPlan(tiny, 8, PartitionStrategy::kUniform);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->num_shards(), 8u);
  uint32_t empty = 0;
  vid_t covered = 0;
  for (uint32_t s = 0; s < 8; ++s) {
    covered += plan->shard_size(s);
    if (plan->shard_size(s) == 0) ++empty;
  }
  EXPECT_EQ(covered, 5u);
  EXPECT_GE(empty, 3u);
}

TEST(PartitionPlanTest, ZeroShardsRejected) {
  CsrGraph g = StarGraph(5);
  EXPECT_FALSE(MakePartitionPlan(g, 0, PartitionStrategy::kUniform).ok());
}

TEST(BuildShardGraphTest, OwnedRowsKeepGlobalAdjacency) {
  CsrGraph g = TestGraph(8);
  auto plan = MakePartitionPlan(g, 3, PartitionStrategy::kUniform);
  ASSERT_TRUE(plan.ok());
  for (uint32_t s = 0; s < 3; ++s) {
    auto shard = BuildShardGraph(g, *plan, s);
    ASSERT_TRUE(shard.ok());
    ASSERT_EQ(shard->num_vertices(), g.num_vertices());
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      if (v >= plan->lo(s) && v < plan->hi(s)) {
        ASSERT_EQ(shard->degree(v), g.degree(v)) << "owned row " << v;
        auto mine = shard->neighbors(v);
        auto theirs = g.neighbors(v);
        EXPECT_TRUE(std::equal(mine.begin(), mine.end(), theirs.begin()));
      } else {
        EXPECT_EQ(shard->degree(v), 0u) << "foreign row " << v;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Engine validation
// ---------------------------------------------------------------------------

TEST(EngineTest, CreateValidatesDeviceCount) {
  PartitionedEngine::Options options;
  options.num_devices = 0;
  EXPECT_FALSE(PartitionedEngine::Create(vgpu::A100Config(), options).ok());
}

TEST(EngineTest, CreateRejectsPathologicalArch) {
  PartitionedEngine::Options options;
  vgpu::ArchConfig broken = vgpu::A100Config();
  broken.num_sms = 0;
  auto engine = PartitionedEngine::Create(broken, options);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);

  broken = vgpu::A100Config();
  broken.clock_ghz = 0;
  EXPECT_FALSE(PartitionedEngine::Create(broken, options).ok());
}

TEST(EngineTest, CreateRejectsDegenerateInterconnect) {
  PartitionedEngine::Options options;
  options.interconnect.link_gbps = 0;
  EXPECT_FALSE(PartitionedEngine::Create(vgpu::A100Config(), options).ok());
}

TEST(EngineTest, CreateBuildsPool) {
  PartitionedEngine::Options options;
  options.num_devices = 4;
  auto engine = PartitionedEngine::Create(vgpu::A100Config(), options);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->num_devices(), 4u);
  for (uint32_t d = 0; d < 4; ++d) {
    EXPECT_NE((*engine)->device(d), nullptr);
  }
  EXPECT_EQ((*engine)->interconnect().num_devices(), 4u);
  EXPECT_EQ((*engine)->ElapsedSnapshot().size(), 4u);
}

// ---------------------------------------------------------------------------
// Partitioned BFS: byte-identity property
// ---------------------------------------------------------------------------

core::BfsResult ReferenceBfs(const CsrGraph& g, vid_t source) {
  vgpu::Device device(vgpu::A100Config());
  core::BfsOptions options;
  options.source = source;
  options.direction_optimizing = false;
  return core::Run<core::Algo::kBfs>(&device, g, options).value();
}

TEST(PartBfsTest, ByteIdenticalAcrossShardCountsAndStrategies) {
  CsrGraph g = TestGraph(9);
  const vid_t source = 3;
  core::BfsResult reference = ReferenceBfs(g, source);

  for (uint32_t num_devices : {2u, 3u, 8u}) {
    for (auto strategy : {PartitionStrategy::kUniform,
                          PartitionStrategy::kDegreeBalanced}) {
      PartitionedEngine::Options options;
      options.num_devices = num_devices;
      auto engine = PartitionedEngine::Create(vgpu::A100Config(), options);
      ASSERT_TRUE(engine.ok());
      auto plan = MakePartitionPlan(g, num_devices, strategy);
      ASSERT_TRUE(plan.ok());

      core::BfsOptions bfs_options;
      bfs_options.source = source;
      core::ExchangeStats exchange;
      auto bfs = RunPartitionedBfs(engine->get(), g, *plan, bfs_options,
                                   &exchange);
      ASSERT_TRUE(bfs.ok()) << bfs.status().ToString();

      ASSERT_EQ(bfs->levels.size(), reference.levels.size());
      EXPECT_EQ(std::memcmp(bfs->levels.data(), reference.levels.data(),
                            bfs->levels.size() * sizeof(uint32_t)),
                0)
          << num_devices << " devices, "
          << PartitionStrategyName(strategy);
      EXPECT_EQ(bfs->depth, reference.depth);
      EXPECT_EQ(bfs->vertices_visited, reference.vertices_visited);
      EXPECT_EQ(bfs->top_down_iterations, exchange.rounds)
          << "one exchange round per level";
      EXPECT_GT(exchange.bytes, 0u) << "cut edges must move bytes";
      EXPECT_GT(bfs->time_ms, 0.0);
      EXPECT_NEAR(bfs->time_ms, exchange.compute_ms + exchange.exchange_ms,
                  1e-12);
    }
  }
}

TEST(PartBfsTest, EmptyShardsAndUnreachableVertices) {
  // 5-vertex star plus two isolated vertices, split 8 ways: most shards are
  // empty and vertices 5/6 stay unreached.
  graph::CooGraph coo;
  coo.num_vertices = 7;
  for (vid_t v = 1; v < 5; ++v) {
    coo.AddEdge(0, v);
    coo.AddEdge(v, 0);
  }
  CsrGraph g = CsrGraph::FromCoo(coo, {}).value();
  core::BfsResult reference = ReferenceBfs(g, 0);

  PartitionedEngine::Options options;
  options.num_devices = 8;
  auto engine = PartitionedEngine::Create(vgpu::A100Config(), options);
  ASSERT_TRUE(engine.ok());
  auto plan = MakePartitionPlan(g, 8, PartitionStrategy::kUniform);
  ASSERT_TRUE(plan.ok());

  core::BfsOptions bfs_options;
  bfs_options.source = 0;
  auto bfs = RunPartitionedBfs(engine->get(), g, *plan, bfs_options);
  ASSERT_TRUE(bfs.ok()) << bfs.status().ToString();
  EXPECT_EQ(bfs->levels, reference.levels);
  EXPECT_EQ(bfs->vertices_visited, 5u);
  EXPECT_EQ(bfs->levels[5], core::kUnreachedLevel);
  EXPECT_EQ(bfs->levels[6], core::kUnreachedLevel);
}

TEST(PartBfsTest, ValidatesInputs) {
  CsrGraph g = StarGraph(10);
  PartitionedEngine::Options options;
  options.num_devices = 2;
  auto engine = PartitionedEngine::Create(vgpu::A100Config(), options);
  ASSERT_TRUE(engine.ok());
  auto plan = MakePartitionPlan(g, 2, PartitionStrategy::kUniform);
  ASSERT_TRUE(plan.ok());

  core::BfsOptions bfs_options;
  bfs_options.source = 10;  // out of range
  EXPECT_FALSE(RunPartitionedBfs(engine->get(), g, *plan, bfs_options).ok());

  auto wrong_plan = MakePartitionPlan(g, 3, PartitionStrategy::kUniform);
  ASSERT_TRUE(wrong_plan.ok());
  bfs_options.source = 0;
  EXPECT_FALSE(
      RunPartitionedBfs(engine->get(), g, *wrong_plan, bfs_options).ok())
      << "plan shard count must match the engine";
}

// ---------------------------------------------------------------------------
// Partitioned PageRank: numeric equivalence property
// ---------------------------------------------------------------------------

TEST(PartPageRankTest, MatchesSingleDeviceWithinReassociationError) {
  CsrGraph g = TestGraph(9);

  core::PageRankOptions ref_options;
  ref_options.max_iterations = 20;
  ref_options.tolerance = 0;  // fixed iteration count on both sides
  vgpu::Device reference_device(vgpu::A100Config());
  auto reference = core::Run<core::Algo::kPageRank>(&reference_device, g,
                                                    ref_options);
  ASSERT_TRUE(reference.ok());

  for (uint32_t num_devices : {2u, 3u, 8u}) {
    PartitionedEngine::Options options;
    options.num_devices = num_devices;
    auto engine = PartitionedEngine::Create(vgpu::A100Config(), options);
    ASSERT_TRUE(engine.ok());
    auto plan =
        MakePartitionPlan(g, num_devices, PartitionStrategy::kDegreeBalanced);
    ASSERT_TRUE(plan.ok());

    core::ExchangeStats exchange;
    auto pr = RunPartitionedPageRank(engine->get(), g, *plan, ref_options,
                                     &exchange);
    ASSERT_TRUE(pr.ok()) << pr.status().ToString();
    ASSERT_EQ(pr->iterations, reference->iterations);
    ASSERT_EQ(pr->ranks.size(), reference->ranks.size());

    double max_diff = 0;
    double sum = 0;
    for (size_t v = 0; v < pr->ranks.size(); ++v) {
      max_diff = std::max(max_diff,
                          std::abs(pr->ranks[v] - reference->ranks[v]));
      sum += pr->ranks[v];
    }
    EXPECT_LT(max_diff, 1e-10) << num_devices << " devices";
    EXPECT_NEAR(sum, 1.0, 1e-6) << "rank mass must be conserved";
    EXPECT_GT(exchange.bytes, 0u);
    EXPECT_EQ(exchange.rounds, pr->iterations);
  }
}

TEST(PartPageRankTest, EmptyShardsAreHarmless) {
  CsrGraph g = StarGraph(5);

  core::PageRankOptions ref_options;
  ref_options.max_iterations = 10;
  ref_options.tolerance = 0;
  vgpu::Device reference_device(vgpu::A100Config());
  auto reference = core::Run<core::Algo::kPageRank>(&reference_device, g,
                                                    ref_options);
  ASSERT_TRUE(reference.ok());

  PartitionedEngine::Options options;
  options.num_devices = 8;
  auto engine = PartitionedEngine::Create(vgpu::A100Config(), options);
  ASSERT_TRUE(engine.ok());
  auto plan = MakePartitionPlan(g, 8, PartitionStrategy::kUniform);
  ASSERT_TRUE(plan.ok());

  auto pr = RunPartitionedPageRank(engine->get(), g, *plan, ref_options);
  ASSERT_TRUE(pr.ok()) << pr.status().ToString();
  for (size_t v = 0; v < pr->ranks.size(); ++v) {
    EXPECT_NEAR(pr->ranks[v], reference->ranks[v], 1e-10);
  }
}

TEST(PartPageRankTest, ValidatesAlpha) {
  CsrGraph g = StarGraph(10);
  PartitionedEngine::Options options;
  auto engine = PartitionedEngine::Create(vgpu::A100Config(), options);
  ASSERT_TRUE(engine.ok());
  auto plan = MakePartitionPlan(g, 2, PartitionStrategy::kUniform);
  ASSERT_TRUE(plan.ok());
  core::PageRankOptions pr_options;
  pr_options.alpha = 1.5;
  EXPECT_FALSE(
      RunPartitionedPageRank(engine->get(), g, *plan, pr_options).ok());
}

// ---------------------------------------------------------------------------
// The gang placement of core::Run
// ---------------------------------------------------------------------------

TEST(GangPlacementTest, CoreRunIsTheDriverOnFreshDevicesLikeTheCaller) {
  CsrGraph g = TestGraph(9);
  vgpu::Device::Options device_options;
  device_options.memory_scale = 4;  // the gang's devices must inherit it
  const vgpu::InterconnectConfig pcie =
      vgpu::InterconnectPresetByName("pcie").value();
  const core::Placement gang =
      core::Placement::Gang(3, pcie, PartitionStrategy::kDegreeBalanced);

  PartitionedEngine::Options options;
  options.num_devices = 3;
  options.device_options = device_options;
  options.interconnect = pcie;
  auto plan =
      MakePartitionPlan(g, 3, PartitionStrategy::kDegreeBalanced).value();

  core::BfsOptions bfs;
  bfs.source = 3;
  core::PageRankOptions pr;
  pr.max_iterations = 8;
  for (const core::Params& params : {core::Params(bfs), core::Params(pr)}) {
    const auto algo = static_cast<core::Algo>(params.index());
    vgpu::Device caller(vgpu::A100Config(), device_options);
    core::RunReport report;
    auto run = core::Run(&caller, {algo, gang}, g, params,
                         /*residency=*/nullptr, &report);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(caller.elapsed_ms(), 0.0) << "the caller's device runs nothing";

    auto engine = PartitionedEngine::Create(vgpu::A100Config(), options);
    ASSERT_TRUE(engine.ok());
    core::ExchangeStats direct_exchange;
    core::AlgoResult direct;
    if (algo == core::Algo::kBfs) {
      direct = RunPartitionedBfs(engine->get(), g, plan, bfs,
                                 &direct_exchange)
                   .value();
    } else {
      direct = RunPartitionedPageRank(engine->get(), g, plan, pr,
                                      &direct_exchange)
                   .value();
    }
    EXPECT_EQ(core::ResultTimeMs(*run), core::ResultTimeMs(direct))
        << core::AlgorithmName(algo);
    if (algo == core::Algo::kBfs) {
      EXPECT_EQ(std::get<core::BfsResult>(*run).levels,
                std::get<core::BfsResult>(direct).levels);
    } else {
      EXPECT_EQ(std::get<core::PageRankResult>(*run).ranks,
                std::get<core::PageRankResult>(direct).ranks);
    }
    EXPECT_EQ(report.exchange.bytes, direct_exchange.bytes);
    EXPECT_EQ(report.exchange.rounds, direct_exchange.rounds);
    EXPECT_EQ(report.exchange.exchange_ms, direct_exchange.exchange_ms);
    EXPECT_EQ(report.staging.num_shards, 0u) << "a gang stages nothing";
  }
}

}  // namespace
}  // namespace adgraph::part
