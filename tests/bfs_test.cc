#include <gtest/gtest.h>

#include <algorithm>

#include "core/api.h"
#include "core/host_ref.h"
#include "graph/builder.h"
#include "graph/datasets.h"
#include "graph/generate.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"

namespace adgraph::core {
namespace {

using graph::CsrGraph;
using graph::GraphBuilder;
using vgpu::A100Config;
using vgpu::Device;
using vgpu::Z100LConfig;

CsrGraph Symmetrize(const CsrGraph& g) {
  graph::CsrBuildOptions options;
  options.make_undirected = true;
  options.remove_duplicates = true;
  options.remove_self_loops = true;
  return CsrGraph::FromCoo(g.ToCoo(), options).value();
}

void ExpectBfsMatchesReference(Device* dev, const CsrGraph& g,
                               graph::vid_t source,
                               bool assume_symmetric = false) {
  BfsOptions options;
  options.source = source;
  options.assume_symmetric = assume_symmetric;
  auto result = core::Run<Algo::kBfs>(dev, g, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto expected = host_ref::BfsLevels(g, source);
  ASSERT_EQ(result->levels.size(), expected.size());
  for (size_t v = 0; v < expected.size(); ++v) {
    EXPECT_EQ(result->levels[v], expected[v]) << "vertex " << v;
  }
}

TEST(BfsTest, ChainGraphLevels) {
  GraphBuilder b;
  for (graph::vid_t v = 0; v + 1 < 10; ++v) b.AddEdge(v, v + 1);
  Device dev(A100Config());
  auto g = b.Build().value();
  BfsOptions options;
  options.source = 0;
  auto result = core::Run<Algo::kBfs>(&dev, g, options).value();
  for (uint32_t v = 0; v < 10; ++v) EXPECT_EQ(result.levels[v], v);
  EXPECT_EQ(result.depth, 9u);
  EXPECT_EQ(result.vertices_visited, 10u);
}

TEST(BfsTest, DisconnectedVerticesUnreached) {
  GraphBuilder b(6);
  b.AddEdge(0, 1).AddEdge(1, 2);
  Device dev(A100Config());
  auto result = core::Run<Algo::kBfs>(
      &dev, b.Build().value(), {.source = 0}).value();
  EXPECT_EQ(result.levels[3], kUnreachedLevel);
  EXPECT_EQ(result.levels[5], kUnreachedLevel);
  EXPECT_EQ(result.vertices_visited, 3u);
}

TEST(BfsTest, StarGraphOneLevel) {
  GraphBuilder b;
  for (graph::vid_t v = 1; v <= 100; ++v) b.AddEdge(0, v);
  Device dev(A100Config());
  auto result = core::Run<Algo::kBfs>(
      &dev, b.Build().value(), {.source = 0}).value();
  EXPECT_EQ(result.depth, 1u);
  EXPECT_EQ(result.vertices_visited, 101u);
}

TEST(BfsTest, SourceValidation) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  Device dev(A100Config());
  auto result = core::Run<Algo::kBfs>(&dev, b.Build().value(), {.source = 99});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(BfsTest, MatchesReferenceOnRmatDirected) {
  Device dev(A100Config());
  auto coo = graph::GenerateRmat({.scale = 10, .edge_factor = 8, .seed = 21})
                 .value();
  auto g = CsrGraph::FromCoo(coo).value();
  ExpectBfsMatchesReference(&dev, g, 0);
  ExpectBfsMatchesReference(&dev, g, 123);
}

TEST(BfsTest, MatchesReferenceOnSymmetrizedRmat) {
  Device dev(A100Config());
  auto coo = graph::GenerateRmat({.scale = 11, .edge_factor = 6, .seed = 22})
                 .value();
  auto g = Symmetrize(CsrGraph::FromCoo(coo).value());
  ExpectBfsMatchesReference(&dev, g, 7, /*assume_symmetric=*/true);
}

TEST(BfsTest, MatchesReferenceOnAmdLikeDevice) {
  Device dev(Z100LConfig());
  auto coo = graph::GenerateRmat({.scale = 10, .edge_factor = 8, .seed = 23})
                 .value();
  auto g = Symmetrize(CsrGraph::FromCoo(coo).value());
  ExpectBfsMatchesReference(&dev, g, 0, /*assume_symmetric=*/true);
}

TEST(BfsTest, TopDownOnlyAgreesWithDirectionOptimizing) {
  Device dev(A100Config());
  auto coo = graph::GenerateRmat({.scale = 10, .edge_factor = 10, .seed = 24})
                 .value();
  auto g = Symmetrize(CsrGraph::FromCoo(coo).value());
  // Start from the max-degree vertex so the frontier grows dense quickly.
  graph::vid_t source = 0;
  for (graph::vid_t v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) > g.degree(source)) source = v;
  }
  BfsOptions td_only;
  td_only.source = source;
  td_only.direction_optimizing = false;
  auto a = core::Run<Algo::kBfs>(&dev, g, td_only).value();
  BfsOptions dir_opt;
  dir_opt.source = source;
  dir_opt.assume_symmetric = true;
  auto b = core::Run<Algo::kBfs>(&dev, g, dir_opt).value();
  EXPECT_EQ(a.levels, b.levels);
  EXPECT_EQ(a.bottom_up_iterations, 0u);
  EXPECT_GT(b.bottom_up_iterations, 0u)
      << "a dense symmetrized R-MAT should trigger bottom-up sweeps";
}

TEST(BfsTest, BottomUpUsedOnDenseFrontiers) {
  // Star + clique: the frontier after level 0 is nearly the whole graph.
  GraphBuilder b;
  for (graph::vid_t v = 1; v < 600; ++v) {
    b.AddEdge(0, v);
    b.AddEdge(v, 0);
  }
  Device dev(A100Config());
  auto g = b.Build().value();
  BfsOptions options;
  options.source = 0;
  options.assume_symmetric = true;
  auto result = core::Run<Algo::kBfs>(&dev, g, options).value();
  EXPECT_GT(result.bottom_up_iterations, 0u);
  EXPECT_EQ(result.vertices_visited, 600u);
}


TEST(BfsTest, ParentsFormValidShortestPathTree) {
  Device dev(A100Config());
  auto coo = graph::GenerateRmat({.scale = 10, .edge_factor = 8, .seed = 25})
                 .value();
  auto g = Symmetrize(CsrGraph::FromCoo(coo).value());
  BfsOptions options;
  options.source = 0;
  options.assume_symmetric = true;
  options.compute_parents = true;
  auto result = core::Run<Algo::kBfs>(&dev, g, options).value();
  ASSERT_EQ(result.parents.size(), g.num_vertices());
  EXPECT_EQ(result.parents[0], graph::kInvalidVertex) << "source";
  for (graph::vid_t v = 0; v < g.num_vertices(); ++v) {
    if (v == 0) continue;
    if (result.levels[v] == kUnreachedLevel) {
      EXPECT_EQ(result.parents[v], graph::kInvalidVertex);
      continue;
    }
    graph::vid_t p = result.parents[v];
    ASSERT_LT(p, g.num_vertices()) << "vertex " << v;
    // Parent is one level closer and actually adjacent.
    EXPECT_EQ(result.levels[p] + 1, result.levels[v]) << "vertex " << v;
    auto adj = g.neighbors(p);
    EXPECT_TRUE(std::binary_search(adj.begin(), adj.end(), v))
        << "parent " << p << " not adjacent to " << v;
  }
}

TEST(BfsTest, ParentsOffByDefault) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  Device dev(A100Config());
  auto result = core::Run<Algo::kBfs>(
      &dev, b.Build().value(), {.source = 0}).value();
  EXPECT_TRUE(result.parents.empty());
}

TEST(BfsTest, DeviceTimeNonzeroAndOrdered) {
  Device dev(A100Config());
  auto small = graph::GenerateRmat({.scale = 8, .edge_factor = 4, .seed = 1})
                   .value();
  auto large = graph::GenerateRmat({.scale = 12, .edge_factor = 8, .seed = 1})
                   .value();
  auto gs = Symmetrize(CsrGraph::FromCoo(small).value());
  auto gl = Symmetrize(CsrGraph::FromCoo(large).value());
  auto rs = core::Run<Algo::kBfs>(&dev, gs, {.source = 0}).value();
  auto rl = core::Run<Algo::kBfs>(&dev, gl, {.source = 0}).value();
  EXPECT_GT(rs.time_ms, 0.0);
  EXPECT_GT(rl.time_ms, rs.time_ms) << "16x more edges must cost more time";
}

TEST(BfsTest, WorksOnProxyDataset) {
  Device dev(Z100LConfig());
  auto spec = graph::FindDataset("web-Stanford").value();
  auto g = Symmetrize(graph::Materialize(spec, 8).value());
  ExpectBfsMatchesReference(&dev, g, 1, /*assume_symmetric=*/true);
}

}  // namespace
}  // namespace adgraph::core
