#include <gtest/gtest.h>

#include "core/api.h"
#include "core/host_ref.h"
#include "core/subgraph.h"
#include "core/triangle_count.h"
#include "graph/datasets.h"
#include "prof/metrics.h"
#include "prof/session.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"

namespace adgraph {
namespace {

using core::BfsOptions;
using core::EsbvOptions;
using core::RunTriangleCount;
using graph::CsrGraph;
using vgpu::Device;

// Shared fixture: one small proxy dataset, reused across all cases.
class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto spec = graph::FindDataset("web-Google").value();
    auto g = graph::Materialize(spec, /*extra_divisor=*/8).value();
    graph_ = new CsrGraph(std::move(g));
    graph::CsrBuildOptions sym;
    sym.make_undirected = true;
    sym.remove_duplicates = true;
    sym.remove_self_loops = true;
    sym_graph_ =
        new CsrGraph(CsrGraph::FromCoo(graph_->ToCoo(), sym).value());
  }
  static void TearDownTestSuite() {
    delete graph_;
    delete sym_graph_;
    graph_ = nullptr;
    sym_graph_ = nullptr;
  }

  /// Direction-optimizing BFS from vertex 0 over the symmetric proxy.
  static Result<core::BfsResult> SymBfs(Device* dev) {
    return core::Run<core::Algo::kBfs>(
        dev, *sym_graph_, {.source = 0, .assume_symmetric = true});
  }

  static CsrGraph* graph_;
  static CsrGraph* sym_graph_;
};

CsrGraph* IntegrationTest::graph_ = nullptr;
CsrGraph* IntegrationTest::sym_graph_ = nullptr;

// The paper's core methodological claim: one code base, four GPUs, same
// answers — architecture changes performance, never results.
TEST_F(IntegrationTest, AllFourGpusAgreeOnBfs) {
  auto expected = core::host_ref::BfsLevels(*sym_graph_, 0);
  for (const auto* arch : vgpu::PaperGpus()) {
    Device dev(*arch);
    auto result = SymBfs(&dev);
    ASSERT_TRUE(result.ok()) << arch->name;
    EXPECT_EQ(result->levels, expected) << arch->name;
    EXPECT_GT(result->time_ms, 0.0) << arch->name;
  }
}

TEST_F(IntegrationTest, AllFourGpusAgreeOnTriangles) {
  uint64_t expected = core::host_ref::TriangleCount(*graph_);
  ASSERT_GT(expected, 0u);
  for (const auto* arch : vgpu::PaperGpus()) {
    Device dev(*arch);
    auto result = RunTriangleCount(&dev, *graph_, {});
    ASSERT_TRUE(result.ok()) << arch->name;
    EXPECT_EQ(result->triangles, expected) << arch->name;
  }
}

TEST_F(IntegrationTest, AllFourGpusAgreeOnEsbv) {
  auto weighted = graph_->WithUniformWeights(1.0);
  EsbvOptions options;
  options.vertices =
      core::SelectPseudoCluster(weighted.num_vertices(), 0.6, 77);
  auto expected = core::host_ref::ExtractSubgraph(weighted, options.vertices);
  for (const auto* arch : vgpu::PaperGpus()) {
    Device dev(*arch);
    auto result = core::ExtractSubgraphByVertex(&dev, weighted, options);
    ASSERT_TRUE(result.ok()) << arch->name;
    EXPECT_EQ(result->subgraph_vertices, expected.num_vertices());
    EXPECT_EQ(result->subgraph_edges, expected.num_edges());
  }
}

// Profiling sessions must produce the paper's metric surfaces on both
// platforms from one run.
TEST_F(IntegrationTest, ProfilingSessionsYieldBothMetricViews) {
  Device a100(vgpu::A100Config());
  Device z100l(vgpu::Z100LConfig());
  for (Device* dev : {&a100, &z100l}) {
    prof::Session session(dev);
    ASSERT_TRUE(SymBfs(dev).ok());
    auto profile = session.Finish();
    EXPECT_GT(profile.num_kernels, 0u);
    EXPECT_GT(profile.total_ms, 0.0);
    auto platform = rt::PlatformOf(*dev);
    auto fine = prof::ComputeFineGrained(profile, platform);
    EXPECT_GT(fine.type1, 0u);
    EXPECT_GT(fine.type2, 0u) << "BFS stages frontiers in shared memory";
    EXPECT_GT(fine.type3, 0u);
    EXPECT_GT(fine.type4, 0u);
    auto coarse = prof::ComputeCoarse(profile, platform, dev->arch(),
                                      vgpu::DefaultTimingParams());
    EXPECT_GT(coarse.warp_utilization, 0.0);
    EXPECT_LE(coarse.warp_utilization, 1.0);
    EXPECT_GT(coarse.l2_hit, 0.0);
    EXPECT_LT(coarse.l2_hit, 1.0);
    EXPECT_GT(coarse.global_memory, 0.0);
    EXPECT_GT(coarse.shared_memory, 0.0);
    EXPECT_LE(coarse.shared_memory, 1.0);
  }
}

// Directional sanity of the architecture model at small scale: the
// LDS-independence mechanism must make shared-memory efficiency higher on
// the AMD-like GPU than the NVIDIA one for the same BFS (paper Fig 7 vs 8).
TEST_F(IntegrationTest, SharedMemoryMetricFavorsIndependentLds) {
  Device a100(vgpu::A100Config());
  Device z100l(vgpu::Z100LConfig());
  prof::Session sa(&a100);
  ASSERT_TRUE(SymBfs(&a100).ok());
  auto pa = sa.Finish();
  prof::Session sz(&z100l);
  ASSERT_TRUE(SymBfs(&z100l).ok());
  auto pz = sz.Finish();
  auto ca = prof::ComputeCoarse(pa, rt::Platform::kCuda, a100.arch(),
                                vgpu::DefaultTimingParams());
  auto cz = prof::ComputeCoarse(pz, rt::Platform::kRocmLike, z100l.arch(),
                                vgpu::DefaultTimingParams());
  EXPECT_GT(cz.shared_memory, ca.shared_memory);
}

// Generational scaling (paper Fig 6): Z100L must beat Z100 on every
// algorithm thanks to clock + bandwidth.
TEST_F(IntegrationTest, Z100LFasterThanZ100) {
  Device z100(vgpu::Z100Config());
  Device z100l(vgpu::Z100LConfig());
  auto t_old = SymBfs(&z100).value().time_ms;
  auto t_new = SymBfs(&z100l).value().time_ms;
  EXPECT_LT(t_new, t_old);
}

// Memory accounting ties the stack together: uploads + working buffers are
// freed when results go out of scope.
TEST_F(IntegrationTest, NoDeviceMemoryLeakAcrossRuns) {
  Device dev(vgpu::A100Config());
  uint64_t baseline = dev.memory_used_bytes();
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(SymBfs(&dev).ok());
    ASSERT_TRUE(RunTriangleCount(&dev, *graph_, {}).ok());
    EXPECT_EQ(dev.memory_used_bytes(), baseline) << "round " << round;
  }
}

}  // namespace
}  // namespace adgraph
