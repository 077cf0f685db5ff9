#include <gtest/gtest.h>

#include <variant>

#include "core/api.h"
#include "graph/datasets.h"
#include "prof/metrics.h"
#include "prof/session.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"

namespace adgraph {
namespace {

using graph::CsrGraph;
using vgpu::Device;

/// Table 6 regression guard (ISSUE 7 acceptance): the engine rewiring must
/// not wash out the paper's SIMT-divergence phenomena.  Triangle counting
/// (irregular per-vertex intersection work) diverges far more than BFS
/// (regular frontier expansion); the ordering has to survive on both the
/// CUDA-like and the ROCm-like architectures, measured through the exact
/// entry point the serving stack uses — core::Run.

class DivergenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto spec = graph::FindDataset("web-Google").value();
    graph_ = new CsrGraph(graph::Materialize(spec, /*extra_divisor=*/8).value());
  }
  static void TearDownTestSuite() {
    delete graph_;
    graph_ = nullptr;
  }

  static CsrGraph* graph_;
};

CsrGraph* DivergenceTest::graph_ = nullptr;

TEST_F(DivergenceTest, TcDivergesMoreThanBfsOnBothVendorArchs) {
  for (const vgpu::ArchConfig* arch :
       {&vgpu::A100Config(), &vgpu::Z100LConfig()}) {
    Device dev(*arch);

    prof::Session bfs_session(&dev);
    auto bfs = core::Run(&dev, {core::Algo::kBfs}, *graph_,
                         core::Params(core::BfsOptions{.source = 0}));
    ASSERT_TRUE(bfs.ok()) << arch->name;
    prof::JobProfile bfs_profile = bfs_session.Finish();

    prof::Session tc_session(&dev);
    auto tc = core::Run(&dev, {core::Algo::kTriangleCount}, *graph_,
                        core::Params(core::TcOptions{}));
    ASSERT_TRUE(tc.ok()) << arch->name;
    prof::JobProfile tc_profile = tc_session.Finish();

    EXPECT_GT(tc_profile.counters.divergent_branches, 0u) << arch->name;
    EXPECT_GT(tc_profile.divergent_branch_ratio,
              bfs_profile.divergent_branch_ratio)
        << arch->name
        << ": Table 6 ordering (TC branch divergence >> BFS) regressed";
  }
}

TEST_F(DivergenceTest, EngineBfsKeepsSeedDivergenceProfile) {
  // The engine's BFS replays the seed kernels, so its counter profile —
  // not just its output — must stay in the seed's regime: mostly-uniform
  // branching with a small divergent tail from ragged frontier edges.
  Device dev(vgpu::A100Config());
  prof::Session session(&dev);
  auto r = core::Run(&dev, {core::Algo::kBfs}, *graph_,
                     core::Params(core::BfsOptions{.source = 0}));
  ASSERT_TRUE(r.ok());
  prof::JobProfile p = session.Finish();
  EXPECT_GT(p.counters.branches, 0u);
  EXPECT_LT(p.divergent_branch_ratio, 0.5)
      << "BFS through the engine became divergence-dominated";
}

}  // namespace
}  // namespace adgraph
