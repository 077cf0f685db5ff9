// Parameterized property sweeps: algorithm results must match the host
// reference on every (architecture x generator x seed) combination, and
// substrate invariants must hold across randomized inputs.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <tuple>

#include "core/api.h"
#include "core/host_ref.h"
#include "core/spmv.h"
#include "core/subgraph.h"
#include "core/triangle_count.h"
#include "graph/csr.h"
#include "graph/generate.h"
#include "graph/stats.h"
#include "util/random.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"
#include "vgpu/mem/coalescer.h"

namespace adgraph {
namespace {

using core::kUnreachedLevel;
using graph::CsrGraph;

const vgpu::ArchConfig& ArchByName(const std::string& name) {
  for (const auto* gpu : vgpu::PaperGpus()) {
    if (gpu->name == name) return *gpu;
  }
  ADGRAPH_CHECK(false);
  return vgpu::A100Config();
}

CsrGraph MakeGraph(const std::string& flavor, uint64_t seed) {
  graph::CooGraph coo;
  if (flavor == "rmat") {
    coo = graph::GenerateRmat({.scale = 9, .edge_factor = 8, .seed = seed})
              .value();
  } else if (flavor == "er") {
    coo = graph::GenerateErdosRenyi(500, 4000, seed).value();
  } else {
    coo = graph::GenerateWattsStrogatz(400, 6, 0.2, seed).value();
  }
  graph::CsrBuildOptions options;
  options.remove_duplicates = true;
  options.remove_self_loops = true;
  return CsrGraph::FromCoo(coo, options).value();
}

// ------------------------------------------------ algorithm consistency

using AlgoParam = std::tuple<std::string, std::string, uint64_t>;

class AlgoConsistencyTest : public ::testing::TestWithParam<AlgoParam> {};

TEST_P(AlgoConsistencyTest, BfsMatchesHostReference) {
  auto [arch_name, flavor, seed] = GetParam();
  CsrGraph g = MakeGraph(flavor, seed);
  vgpu::Device dev(ArchByName(arch_name));
  core::BfsOptions options;
  options.source = static_cast<graph::vid_t>(seed % g.num_vertices());
  auto result = core::Run<core::Algo::kBfs>(&dev, g, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->levels, core::host_ref::BfsLevels(g, options.source));
}

TEST_P(AlgoConsistencyTest, TriangleCountBothModesMatchReference) {
  auto [arch_name, flavor, seed] = GetParam();
  CsrGraph g = MakeGraph(flavor, seed);
  vgpu::Device dev(ArchByName(arch_name));
  uint64_t expected = core::host_ref::TriangleCount(g);
  core::TcOptions oriented;
  auto a = core::RunTriangleCount(&dev, g, oriented);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a->triangles, expected);
  core::TcOptions unoriented;
  unoriented.orient = false;
  auto b = core::RunTriangleCount(&dev, g, unoriented);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(b->triangles, expected);
}

TEST_P(AlgoConsistencyTest, EsbvEdgeAndVertexCountsMatchReference) {
  auto [arch_name, flavor, seed] = GetParam();
  CsrGraph g = MakeGraph(flavor, seed).WithUniformWeights(1.0);
  vgpu::Device dev(ArchByName(arch_name));
  core::EsbvOptions options;
  options.vertices =
      core::SelectPseudoCluster(g.num_vertices(), 0.5, seed);
  auto result = core::ExtractSubgraphByVertex(&dev, g, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto expected = core::host_ref::ExtractSubgraph(g, options.vertices);
  EXPECT_EQ(result->subgraph_vertices, expected.num_vertices());
  EXPECT_EQ(result->subgraph_edges, expected.num_edges());
}

INSTANTIATE_TEST_SUITE_P(
    ArchGeneratorSeedSweep, AlgoConsistencyTest,
    ::testing::Combine(::testing::Values("Z100", "V100", "Z100L", "A100"),
                       ::testing::Values("rmat", "er", "ws"),
                       ::testing::Values(1u, 7u)),
    [](const ::testing::TestParamInfo<AlgoParam>& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param) +
             "_seed" + std::to_string(std::get<2>(info.param));
    });

// ------------------------------------------------- determinism property

class DeterminismTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(DeterminismTest, RepeatedRunsAreBitIdentical) {
  const auto& arch = ArchByName(GetParam());
  CsrGraph g = MakeGraph("rmat", 3);
  auto run = [&]() {
    vgpu::Device dev(arch);
    auto r = core::Run<core::Algo::kBfs>(&dev, g, {.source = 0}).value();
    const auto& k = dev.kernel_log().back();
    return std::make_tuple(r.levels, r.time_ms,
                           k.counters.warp_inst_issued, k.counters.l1_hits);
  };
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(AllGpus, DeterminismTest,
                         ::testing::Values("Z100", "V100", "Z100L", "A100"));

// ----------------------------------------------- graph-structure sweeps

class RmatSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RmatSweepTest, CsrInvariantsHold) {
  uint64_t seed = GetParam();
  auto coo = graph::GenerateRmat({.scale = 10, .edge_factor = 6, .seed = seed})
                 .value();
  graph::CsrBuildOptions options;
  options.remove_duplicates = true;
  options.remove_self_loops = true;
  auto g = CsrGraph::FromCoo(coo, options).value();
  // Row offsets monotone and consistent with degrees.
  const auto& row = g.row_offsets();
  ASSERT_EQ(row.size(), g.num_vertices() + 1u);
  EXPECT_EQ(row.front(), 0u);
  EXPECT_EQ(row.back(), g.num_edges());
  uint64_t degree_sum = 0;
  for (graph::vid_t v = 0; v < g.num_vertices(); ++v) {
    ASSERT_LE(row[v], row[v + 1]);
    degree_sum += g.degree(v);
    auto adj = g.neighbors(v);
    EXPECT_TRUE(std::is_sorted(adj.begin(), adj.end()));
    EXPECT_TRUE(std::adjacent_find(adj.begin(), adj.end()) == adj.end())
        << "duplicates survived";
    for (graph::vid_t w : adj) {
      EXPECT_NE(w, v) << "self loop survived";
      EXPECT_LT(w, g.num_vertices());
    }
  }
  EXPECT_EQ(degree_sum, g.num_edges());
}

TEST_P(RmatSweepTest, TransposePreservesEdgeMultiset) {
  uint64_t seed = GetParam();
  auto coo = graph::GenerateRmat({.scale = 9, .edge_factor = 5, .seed = seed})
                 .value();
  auto g = CsrGraph::FromCoo(coo).value();
  auto t = g.Transpose();
  EXPECT_EQ(t.num_edges(), g.num_edges());
  // Every edge (u,v) of g appears as (v,u) in t.
  uint64_t matched = 0;
  for (graph::vid_t u = 0; u < g.num_vertices(); ++u) {
    for (graph::vid_t v : g.neighbors(u)) {
      auto adj = t.neighbors(v);
      matched += std::count(adj.begin(), adj.end(), u) > 0;
    }
  }
  EXPECT_EQ(matched, g.num_edges());
}

TEST_P(RmatSweepTest, SymmetrizeIsInvolutionFixedPoint) {
  uint64_t seed = GetParam();
  auto g = MakeGraph("rmat", seed);
  auto sym1 = core::SymmetrizeForTc(g).value();
  auto sym2 = core::SymmetrizeForTc(sym1).value();
  EXPECT_EQ(sym1.row_offsets(), sym2.row_offsets());
  EXPECT_EQ(sym1.col_indices(), sym2.col_indices());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RmatSweepTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

// ------------------------------------------------- coalescer properties

class CoalescerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoalescerPropertyTest, TransferredCoversRequestedAndIsMinimal) {
  Rng rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    vgpu::Lanes<uint64_t> addrs;
    uint32_t width = rng.Bernoulli(0.5) ? 32 : 64;
    for (uint32_t i = 0; i < width; ++i) {
      addrs[i] = rng.Uniform(1 << 16) * 4;
    }
    uint32_t access = rng.Bernoulli(0.5) ? 4 : 8;
    auto result = vgpu::Coalesce(addrs, vgpu::FullMask(width), access, 32);
    // Transferred bytes cover the requested bytes.
    EXPECT_GE(result.bytes_transferred, (result.bytes_requested + 31) / 32 * 32 / 32);
    EXPECT_EQ(result.bytes_requested, uint64_t{width} * access);
    // Segments sorted, unique, aligned.
    for (uint32_t i = 0; i < result.size(); ++i) {
      EXPECT_EQ(result[i] % 32, 0u);
      if (i > 0) EXPECT_LT(result[i - 1], result[i]);
    }
    // Every lane's access is covered by some segment.
    for (uint32_t lane = 0; lane < width; ++lane) {
      for (uint64_t b = addrs[lane] / 32; b <= (addrs[lane] + access - 1) / 32;
           ++b) {
        bool covered = false;
        for (uint32_t s = 0; s < result.size(); ++s) {
          covered |= result[s] == b * 32;
        }
        EXPECT_TRUE(covered);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoalescerPropertyTest,
                         ::testing::Values(101u, 202u, 303u));

// --------------------------------------------------- SpMV linearity

class SpmvPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SpmvPropertyTest, PlusTimesIsLinear) {
  uint64_t seed = GetParam();
  auto coo = graph::GenerateRmat({.scale = 8, .edge_factor = 6, .seed = seed})
                 .value();
  graph::AttachRandomWeights(&coo, 0.0, 1.0, seed + 1);
  auto g = CsrGraph::FromCoo(coo).value();
  Rng rng(seed + 2);
  std::vector<double> x(g.num_vertices()), y(g.num_vertices());
  for (auto& v : x) v = rng.NextDouble();
  for (auto& v : y) v = rng.NextDouble();
  vgpu::Device dev(vgpu::A100Config());
  auto ax = core::RunSpmv(&dev, g, x).value();
  auto ay = core::RunSpmv(&dev, g, y).value();
  std::vector<double> xy(g.num_vertices());
  for (size_t i = 0; i < xy.size(); ++i) xy[i] = 2 * x[i] + 3 * y[i];
  auto axy = core::RunSpmv(&dev, g, xy).value();
  for (size_t i = 0; i < xy.size(); ++i) {
    EXPECT_NEAR(axy[i], 2 * ax[i] + 3 * ay[i], 1e-8) << "row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpmvPropertyTest,
                         ::testing::Values(5u, 6u, 8u));

}  // namespace
}  // namespace adgraph
