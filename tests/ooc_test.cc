// Tests of src/ooc/: byte-bounded partition plans, the OocCsr wrapper over
// in-memory and memory-mapped backings, and the streamed BFS / PageRank
// drivers — including the load-bearing acceptance property that a graph too
// large for the device completes out-of-core with results byte-identical to
// the in-memory path, and the fault-injection contract (a failed staged
// copy or a truncated shard file yields a structured error, no partial
// results, no leaked device bytes, and a still-usable device).

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/api.h"
#include "core/residency.h"
#include "graph/csr.h"
#include "graph/datasets.h"
#include "graph/generate.h"
#include "graph/io.h"
#include "ooc/ooc_csr.h"
#include "ooc/streamed.h"
#include "part/partition.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"

namespace adgraph::ooc {
namespace {

using graph::CsrGraph;
using graph::eid_t;
using graph::vid_t;

CsrGraph TestGraph(uint32_t scale = 9, uint64_t seed = 42) {
  auto coo = graph::GenerateRmat(
                 {.scale = scale, .edge_factor = 8.0, .seed = seed})
                 .value();
  graph::CsrBuildOptions options;
  options.remove_duplicates = true;
  options.remove_self_loops = true;
  return CsrGraph::FromCoo(coo, options).value();
}

std::shared_ptr<const CsrGraph> Shared(CsrGraph g) {
  return std::make_shared<const CsrGraph>(std::move(g));
}

/// Device bytes of the whole-graph in-memory PageRank working set: the
/// pull-transpose (rows + cols + weights) dominates.
uint64_t FullPageRankBytes(const CsrGraph& g) {
  const uint64_t n = g.num_vertices();
  const uint64_t m = g.num_edges();
  return 2 * (n + 1) * sizeof(eid_t) + m * sizeof(vid_t) +
         m * sizeof(double) + 3 * n * sizeof(double);
}

/// A device too small for the whole graph but big enough for the streamed
/// working set (O(n) state + two slots of `shard_bytes`).
vgpu::Device SmallDevice(const CsrGraph& g, uint64_t shard_bytes) {
  const uint64_t full = FullPageRankBytes(g);
  const uint64_t streamed =
      EstimateStreamedBytes(core::PageRankOptions{}, g, shard_bytes).value();
  // Cap capacity at 60% of the whole-graph footprint, with at least 1.25x
  // the streamed estimate of headroom so staging slack never trips the test.
  const uint64_t capacity =
      std::max<uint64_t>(full * 3 / 5, streamed + streamed / 4);
  vgpu::Device probe(vgpu::A100Config());
  vgpu::Device::Options options;
  // memory_scale divides capacity (scaled experiments): scale of base/target
  // leaves exactly `capacity` bytes.
  options.memory_scale = static_cast<double>(probe.memory_capacity_bytes()) /
                         static_cast<double>(capacity);
  return vgpu::Device(vgpu::A100Config(), options);
}

// ---------------------------------------------------------------------------
// Byte-bounded plans

TEST(ByteBoundedPlanTest, ShardsRespectBudgetAndCoverAllVertices) {
  CsrGraph g = TestGraph();
  const uint64_t budget = 16 << 10;
  auto plan =
      part::MakeByteBoundedPlan(g.row_offsets(), g.has_weights(), budget)
          .value();
  ASSERT_GE(plan.num_shards(), 2u);
  EXPECT_EQ(plan.lo(0), 0u);
  EXPECT_EQ(plan.hi(plan.num_shards() - 1), g.num_vertices());
  for (uint32_t s = 0; s < plan.num_shards(); ++s) {
    EXPECT_EQ(plan.hi(s), s + 1 < plan.num_shards() ? plan.lo(s + 1)
                                                    : g.num_vertices());
    ASSERT_GT(plan.hi(s), plan.lo(s));
    const uint64_t bytes = part::ShardDeviceBytes(
        g.row_offsets(), plan.lo(s), plan.hi(s), g.has_weights());
    // A multi-row shard must fit; only a single hub row may exceed.
    if (plan.hi(s) - plan.lo(s) > 1) {
      EXPECT_LE(bytes, budget);
    }
  }
}

TEST(ByteBoundedPlanTest, HubRowLargerThanBudgetGetsItsOwnShard) {
  // Star: vertex 0 points at everyone; its row alone exceeds the budget.
  const vid_t n = 1000;
  std::vector<eid_t> rows(n + 1, n - 1);
  rows[0] = 0;
  std::vector<vid_t> cols(n - 1);
  for (vid_t v = 1; v < n; ++v) cols[v - 1] = v;
  CsrGraph g = CsrGraph::FromArrays(n, rows, cols, {}).value();
  auto plan = part::MakeByteBoundedPlan(g.row_offsets(), false, 256).value();
  EXPECT_EQ(plan.lo(0), 0u);
  EXPECT_EQ(plan.hi(0), 1u);  // the hub is alone, over budget but legal
  EXPECT_GT(part::ShardDeviceBytes(g.row_offsets(), 0, 1, false), 256u);
}

TEST(ByteBoundedPlanTest, RejectsZeroBudgetAndEmptyOffsets) {
  CsrGraph g = TestGraph(6);
  EXPECT_FALSE(
      part::MakeByteBoundedPlan(g.row_offsets(), false, 0).ok());
  EXPECT_FALSE(part::MakeByteBoundedPlan({}, false, 1024).ok());
}

// ---------------------------------------------------------------------------
// OocCsr

TEST(OocCsrTest, FromMemoryExposesShardsAndMaxima) {
  auto g = Shared(TestGraph());
  OocCsr ooc = OocCsr::FromMemory(*g, 4 << 10).value();
  EXPECT_FALSE(ooc.disk_backed());
  EXPECT_EQ(ooc.num_vertices(), g->num_vertices());
  EXPECT_EQ(ooc.num_edges(), g->num_edges());
  ASSERT_GE(ooc.num_shards(), 2u);
  uint64_t edges = 0;
  for (uint32_t s = 0; s < ooc.num_shards(); ++s) {
    const ShardView v = ooc.shard(s);
    EXPECT_LE(v.num_rows(), ooc.max_shard_rows());
    EXPECT_LE(v.num_edges(), ooc.max_shard_edges());
    edges += v.num_edges();
  }
  EXPECT_EQ(edges, g->num_edges());
  EXPECT_GT(ooc.slot_bytes(), 0u);
}

TEST(OocCsrTest, SpillRoundTripsThroughDisk) {
  CsrGraph g = TestGraph(8);
  const std::string path = testing::TempDir() + "/ooc_spill.bin";
  OocCsr ooc = OocCsr::Spill(g, path, 32 << 10).value();
  EXPECT_TRUE(ooc.disk_backed());
  ASSERT_EQ(ooc.num_vertices(), g.num_vertices());
  ASSERT_EQ(ooc.num_edges(), g.num_edges());
  EXPECT_EQ(0, std::memcmp(ooc.row_offsets().data(), g.row_offsets().data(),
                           (g.num_vertices() + 1) * sizeof(eid_t)));
  EXPECT_EQ(0, std::memcmp(ooc.col_indices().data(), g.col_indices().data(),
                           g.num_edges() * sizeof(vid_t)));
  ::unlink(path.c_str());
}

TEST(OocCsrTest, TruncatedShardFileFailsStructured) {
  CsrGraph g = TestGraph(8);
  const std::string path = testing::TempDir() + "/ooc_truncated.bin";
  ASSERT_TRUE(graph::WriteBinaryCsr(g, path).ok());
  struct stat st;
  ASSERT_EQ(0, ::stat(path.c_str(), &st));
  ASSERT_EQ(0, ::truncate(path.c_str(), st.st_size - 7));
  auto opened = OocCsr::Open(path, 32 << 10);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kIOError);
  ::unlink(path.c_str());
}

TEST(EstimateStreamedBytesTest, OnlyBfsAndPageRankStream) {
  const CsrGraph g = TestGraph(8);
  EXPECT_TRUE(EstimateStreamedBytes(core::BfsOptions{}, g, 0).ok());
  EXPECT_TRUE(EstimateStreamedBytes(core::PageRankOptions{}, g, 0).ok());
  auto tc = EstimateStreamedBytes(core::TcOptions{}, g, 0);
  ASSERT_FALSE(tc.ok());
  EXPECT_EQ(tc.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EstimateStreamedBytesTest, BoundsTheStreamedPeakOnGoldenProxies) {
  // Admission charges a streamed job this estimate, so it must bound the
  // peak device bytes of the streamed run on a fresh device.  It used to
  // miss the allocator's 256-byte rounding and slots grown for hub rows:
  // 14 of these 24 cases ran past it (web-Google PageRank, 64 KB slots:
  // 180,248 vs 189,952 B).
  const auto& datasets = graph::PaperDatasets();
  for (size_t d = 0; d < 3; ++d) {
    const CsrGraph directed = graph::Materialize(datasets[d], 32.0).value();
    auto coo = directed.ToCoo();
    graph::AttachRandomWeights(&coo, 0.1, 1.0, 1000 + d);
    const CsrGraph weighted = CsrGraph::FromCoo(coo).value();
    for (const CsrGraph* g : {&directed, &weighted}) {
      for (uint64_t slot : {uint64_t{4} << 10, uint64_t{64} << 10}) {
        for (const core::Params& params :
             {core::Params(core::BfsOptions{}),
              core::Params(core::PageRankOptions{.max_iterations = 5})}) {
          vgpu::Device dev(vgpu::A100Config());
          const core::Algo algo = static_cast<core::Algo>(params.index());
          ASSERT_TRUE(core::Run(&dev,
                                {algo, core::Placement::Streamed(slot)}, *g,
                                params)
                          .ok());
          EXPECT_GE(EstimateStreamedBytes(params, *g, slot).value(),
                    dev.memory_peak_bytes())
              << datasets[d].name << " " << core::AlgorithmName(algo)
              << (g->has_weights() ? " weighted" : "") << ", " << slot
              << "-byte slots";
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Byte-identity on over-budget devices (the acceptance property), across
// three bundled dataset proxies.

class StreamedIdentityTest : public testing::TestWithParam<const char*> {};

TEST_P(StreamedIdentityTest, OverBudgetGraphMatchesInMemoryByteForByte) {
  auto spec = graph::FindDataset(GetParam()).value();
  auto g = Shared(graph::Materialize(spec, /*extra_divisor=*/64.0).value());
  const uint64_t shard_bytes = FullPageRankBytes(*g) / 8;

  // Reference results from a device roomy enough for the in-memory path.
  vgpu::Device roomy(vgpu::A100Config());
  core::BfsOptions bfs_options;
  auto ref_bfs = core::Run(&roomy, {core::Algo::kBfs}, *g, bfs_options);
  ASSERT_TRUE(ref_bfs.ok()) << ref_bfs.status().message();
  core::PageRankOptions pr_options;
  auto ref_pr = core::Run(&roomy, {core::Algo::kPageRank}, *g, pr_options);
  ASSERT_TRUE(ref_pr.ok()) << ref_pr.status().message();

  // The small device cannot run the in-memory paths at all...
  vgpu::Device small = SmallDevice(*g, shard_bytes);
  EXPECT_FALSE(core::Run(&small, {core::Algo::kPageRank}, *g, pr_options).ok())
      << "device unexpectedly fit the whole graph; shrink memory_scale"
      << " n=" << g->num_vertices() << " m=" << g->num_edges()
      << " full=" << FullPageRankBytes(*g)
      << " capacity=" << small.memory_capacity_bytes();

  // ...but the streamed placement completes, byte-identical.
  const core::Placement streamed = core::Placement::Streamed(shard_bytes);
  core::RunReport bfs_report;
  auto got_bfs = core::Run(&small, {core::Algo::kBfs, streamed}, *g,
                           bfs_options, /*residency=*/nullptr, &bfs_report);
  ASSERT_TRUE(got_bfs.ok()) << got_bfs.status().message();
  const auto& want_bfs = std::get<core::BfsResult>(*ref_bfs);
  const auto& have_bfs = std::get<core::BfsResult>(*got_bfs);
  ASSERT_EQ(have_bfs.levels.size(), want_bfs.levels.size());
  EXPECT_EQ(0, std::memcmp(have_bfs.levels.data(), want_bfs.levels.data(),
                           want_bfs.levels.size() * sizeof(uint32_t)));
  EXPECT_EQ(have_bfs.depth, want_bfs.depth);
  EXPECT_EQ(have_bfs.vertices_visited, want_bfs.vertices_visited);
  EXPECT_EQ(have_bfs.top_down_iterations, want_bfs.top_down_iterations);
  EXPECT_GE(bfs_report.staging.num_shards, 2u);

  core::RunReport pr_report;
  auto got_pr = core::Run(&small, {core::Algo::kPageRank, streamed}, *g,
                          pr_options, /*residency=*/nullptr, &pr_report);
  ASSERT_TRUE(got_pr.ok()) << got_pr.status().message();
  const auto& want_pr = std::get<core::PageRankResult>(*ref_pr);
  const auto& have_pr = std::get<core::PageRankResult>(*got_pr);
  ASSERT_EQ(have_pr.ranks.size(), want_pr.ranks.size());
  EXPECT_EQ(0, std::memcmp(have_pr.ranks.data(), want_pr.ranks.data(),
                           want_pr.ranks.size() * sizeof(double)));
  EXPECT_EQ(have_pr.iterations, want_pr.iterations);
  EXPECT_EQ(have_pr.l1_delta, want_pr.l1_delta);

  // Overlap model sanity: the pipeline can only help, and every PageRank
  // iteration re-streams the shards.
  const core::StagingStats& pr_stats = pr_report.staging;
  EXPECT_GT(pr_stats.shards_staged,
            static_cast<uint64_t>(pr_stats.num_shards));
  EXPECT_LE(pr_stats.overlapped_ms, pr_stats.serialized_ms * (1 + 1e-9));
  EXPECT_GE(pr_stats.overlap_speedup(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Proxies, StreamedIdentityTest,
                         testing::Values("web-Google", "soc-liveJournal1",
                                         "cit-Patents"));

TEST(StreamedTest, DiskBackedRunMatchesInMemory) {
  auto g = Shared(TestGraph());
  const std::string path = testing::TempDir() + "/ooc_disk_run.bin";
  CsrGraph pull =
      core::BuildHostVariant(*g, core::GraphVariant::kPullTranspose).value();
  OocCsr disk_pull = OocCsr::Spill(pull, path, 24 << 10).value();
  ASSERT_TRUE(disk_pull.disk_backed());

  vgpu::Device roomy(vgpu::A100Config());
  core::PageRankOptions options;
  auto want = core::Run<core::Algo::kPageRank>(&roomy, *g, options).value();

  vgpu::Device small = SmallDevice(*g, 24 << 10);
  auto got = RunStreamedPageRank(&small, disk_pull, g->row_offsets(), options,
                                 {});
  ASSERT_TRUE(got.ok()) << got.status().message();
  ASSERT_EQ(got->ranks.size(), want.ranks.size());
  EXPECT_EQ(0, std::memcmp(got->ranks.data(), want.ranks.data(),
                           want.ranks.size() * sizeof(double)));
  EXPECT_EQ(got->iterations, want.iterations);
  ::unlink(path.c_str());
}

TEST(StreamedTest, ZeroEdgeShardsStillWriteIdentity) {
  // Star graph: after the hub's shard, every shard is pure zero-edge rows;
  // PageRank must still launch the SpMV over them so next[u] gets the
  // semiring identity instead of stale bytes.
  const vid_t n = 256;
  std::vector<eid_t> rows(n + 1, n - 1);
  rows[0] = 0;
  std::vector<vid_t> cols(n - 1);
  for (vid_t v = 1; v < n; ++v) cols[v - 1] = v;
  auto g = Shared(CsrGraph::FromArrays(n, rows, cols, {}).value());

  vgpu::Device roomy(vgpu::A100Config());
  core::PageRankOptions options;
  auto want = core::Run<core::Algo::kPageRank>(&roomy, *g, options).value();

  vgpu::Device device(vgpu::A100Config());
  // 512-byte slots force many zero-edge shards.
  auto got = core::Run(&device,
                       {core::Algo::kPageRank, core::Placement::Streamed(512)},
                       *g, options);
  ASSERT_TRUE(got.ok()) << got.status().message();
  const auto& have = std::get<core::PageRankResult>(*got);
  EXPECT_EQ(0, std::memcmp(have.ranks.data(), want.ranks.data(),
                           want.ranks.size() * sizeof(double)));
  EXPECT_EQ(have.iterations, want.iterations);
}

TEST(StreamedTest, ComputeParentsIsRejected) {
  auto g = Shared(TestGraph(7));
  vgpu::Device device(vgpu::A100Config());
  core::BfsOptions options;
  options.compute_parents = true;
  auto r = core::Run(&device, {core::Algo::kBfs, core::Placement::Streamed()},
                     *g, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(StreamedTest, UnsupportedAlgorithmIsRejected) {
  auto g = Shared(TestGraph(7));
  vgpu::Device device(vgpu::A100Config());
  auto r = core::Run(&device,
                     {core::Algo::kTriangleCount, core::Placement::Streamed()},
                     *g, core::TcOptions{});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Fault injection

TEST(StreamedFaultTest, CopyFaultMidStreamAbortsCleanlyAndDeviceSurvives) {
  auto g = Shared(TestGraph());
  vgpu::Device device(vgpu::A100Config());
  const uint64_t used_before = device.memory_used_bytes();

  OocOptions ooc;
  ooc.shard_bytes = FullPageRankBytes(*g) / 8;
  uint64_t calls = 0;
  ooc.copy_fault = [&calls](uint64_t stage, uint32_t) -> Status {
    calls += 1;
    if (stage == 3) return Status::Internal("injected staged-copy fault");
    return Status::OK();
  };
  core::PageRankOptions options;
  CsrGraph transpose =
      core::BuildHostVariant(*g, core::GraphVariant::kPullTranspose).value();
  OocCsr pull = OocCsr::FromMemory(transpose, ooc.shard_bytes).value();
  auto r = RunStreamedPageRank(&device, pull, g->row_offsets(), options, ooc);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_NE(r.status().message().find("injected"), std::string::npos);
  EXPECT_GE(calls, 4u);  // it got as far as stage 3, then stopped
  // RAII unwound every device allocation: nothing leaked.
  EXPECT_EQ(device.memory_used_bytes(), used_before);

  // The device remains usable: the same run without the fault completes.
  ooc.copy_fault = nullptr;
  auto ok = RunStreamedPageRank(&device, pull, g->row_offsets(), options, ooc);
  ASSERT_TRUE(ok.ok()) << ok.status().message();
  EXPECT_EQ(device.memory_used_bytes(), used_before);
}

TEST(StreamedFaultTest, BfsCopyFaultLeavesNoPartialResult) {
  auto g = Shared(TestGraph());
  vgpu::Device device(vgpu::A100Config());
  const uint64_t used_before = device.memory_used_bytes();
  OocOptions ooc;
  ooc.shard_bytes = 16 << 10;
  ooc.copy_fault = [](uint64_t stage, uint32_t) {
    return stage == 0 ? Status::IOError("shard backing store went away")
                      : Status::OK();
  };
  OocCsr base = OocCsr::FromMemory(*g, ooc.shard_bytes).value();
  auto r = RunStreamedBfs(&device, base, core::BfsOptions{}, ooc);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_EQ(device.memory_used_bytes(), used_before);
}

}  // namespace
}  // namespace adgraph::ooc
