#include <gtest/gtest.h>

#include <algorithm>

#include "core/host_ref.h"
#include "core/subgraph.h"
#include "graph/builder.h"
#include "graph/generate.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"

namespace adgraph::core {
namespace {

using graph::CsrGraph;
using graph::GraphBuilder;
using graph::vid_t;
using vgpu::A100Config;
using vgpu::Device;
using vgpu::Z100LConfig;

// Canonical form for comparing graphs whose adjacency order may differ.
struct CanonicalEdges {
  std::vector<std::tuple<vid_t, vid_t, double>> edges;
};

CanonicalEdges Canonicalize(const CsrGraph& g) {
  CanonicalEdges out;
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    auto adj = g.neighbors(u);
    for (size_t i = 0; i < adj.size(); ++i) {
      double w = g.has_weights() ? g.edge_weights(u)[i] : 1.0;
      out.edges.emplace_back(u, adj[i], w);
    }
  }
  std::sort(out.edges.begin(), out.edges.end());
  return out;
}

CsrGraph WeightedTestGraph(uint32_t scale, uint64_t seed) {
  auto coo = graph::GenerateRmat({.scale = scale, .edge_factor = 8,
                                  .seed = seed})
                 .value();
  graph::AttachRandomWeights(&coo, 0.5, 2.0, seed + 1);
  graph::CsrBuildOptions options;
  options.remove_duplicates = true;
  return CsrGraph::FromCoo(coo, options).value();
}

TEST(EsbvTest, RequiresWeights) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  Device dev(A100Config());
  EsbvOptions options;
  options.vertices = {0, 1};
  auto result = ExtractSubgraphByVertex(&dev, b.Build().value(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(EsbvTest, TinyGraphByHand) {
  GraphBuilder b(5);
  b.AddEdge(0, 1, 1.0).AddEdge(1, 2, 2.0).AddEdge(2, 3, 3.0)
      .AddEdge(3, 0, 4.0).AddEdge(1, 4, 5.0);
  Device dev(A100Config());
  EsbvOptions options;
  options.vertices = {0, 1, 2};
  auto result = ExtractSubgraphByVertex(&dev, b.Build().value(), options)
                    .value();
  EXPECT_EQ(result.subgraph_vertices, 3u);
  EXPECT_EQ(result.subgraph_edges, 2u);  // (0,1) and (1,2) survive
  auto canon = Canonicalize(result.subgraph);
  ASSERT_EQ(canon.edges.size(), 2u);
  EXPECT_EQ(canon.edges[0], std::make_tuple(0u, 1u, 1.0));
  EXPECT_EQ(canon.edges[1], std::make_tuple(1u, 2u, 2.0));
}

TEST(EsbvTest, EmptySelectionYieldsEmptyGraph) {
  Device dev(A100Config());
  auto g = WeightedTestGraph(8, 41);
  EsbvOptions options;  // no vertices
  auto result = ExtractSubgraphByVertex(&dev, g, options).value();
  EXPECT_EQ(result.subgraph_vertices, 0u);
  EXPECT_EQ(result.subgraph_edges, 0u);
}

TEST(EsbvTest, FullSelectionReproducesGraph) {
  Device dev(A100Config());
  auto g = WeightedTestGraph(8, 42);
  EsbvOptions options;
  for (vid_t v = 0; v < g.num_vertices(); ++v) options.vertices.push_back(v);
  auto result = ExtractSubgraphByVertex(&dev, g, options).value();
  EXPECT_EQ(result.subgraph_vertices, g.num_vertices());
  EXPECT_EQ(result.subgraph_edges, g.num_edges());
  EXPECT_EQ(Canonicalize(result.subgraph).edges, Canonicalize(g).edges);
}

TEST(EsbvTest, MatchesHostReferenceOnRmat) {
  Device dev(A100Config());
  auto g = WeightedTestGraph(10, 43);
  EsbvOptions options;
  options.vertices = SelectPseudoCluster(g.num_vertices(), 0.6, 7);
  auto result = ExtractSubgraphByVertex(&dev, g, options).value();
  auto expected = host_ref::ExtractSubgraph(g, options.vertices);
  EXPECT_EQ(result.subgraph_vertices, expected.num_vertices());
  EXPECT_EQ(result.subgraph_edges, expected.num_edges());
  EXPECT_EQ(Canonicalize(result.subgraph).edges,
            Canonicalize(expected).edges);
}

TEST(EsbvTest, MatchesHostReferenceOnAmdLikeDevice) {
  Device dev(Z100LConfig());
  auto g = WeightedTestGraph(9, 44);
  EsbvOptions options;
  options.vertices = SelectPseudoCluster(g.num_vertices(), 0.4, 9);
  auto result = ExtractSubgraphByVertex(&dev, g, options).value();
  auto expected = host_ref::ExtractSubgraph(g, options.vertices);
  EXPECT_EQ(Canonicalize(result.subgraph).edges,
            Canonicalize(expected).edges);
}

TEST(EsbvTest, DuplicateSelectionsAreIdempotent) {
  Device dev(A100Config());
  auto g = WeightedTestGraph(8, 45);
  EsbvOptions once;
  once.vertices = {1, 2, 3};
  EsbvOptions twice;
  twice.vertices = {1, 2, 3, 3, 2, 1};
  auto a = ExtractSubgraphByVertex(&dev, g, once).value();
  auto b = ExtractSubgraphByVertex(&dev, g, twice).value();
  EXPECT_EQ(a.subgraph_vertices, b.subgraph_vertices);
  EXPECT_EQ(Canonicalize(a.subgraph).edges, Canonicalize(b.subgraph).edges);
}

TEST(EsbvTest, OutOfRangeVertexRejected) {
  Device dev(A100Config());
  auto g = WeightedTestGraph(8, 46);
  EsbvOptions options;
  options.vertices = {0, g.num_vertices()};
  EXPECT_FALSE(ExtractSubgraphByVertex(&dev, g, options).ok());
}

TEST(EsbvTest, OomOnTightDevice) {
  // The working set is ~44 bytes/edge; a device whose capacity is close to
  // the raw graph size must fail with OOM, like twitter-mpi in Table 5.
  auto g = WeightedTestGraph(12, 47);
  uint64_t graph_bytes = g.DeviceFootprintBytes();
  vgpu::Device::Options options;
  options.memory_scale =
      static_cast<double>(A100Config().dram_capacity_bytes) /
      (static_cast<double>(graph_bytes) * 2.0);
  Device dev(A100Config(), options);
  EsbvOptions esbv;
  esbv.vertices = SelectPseudoCluster(g.num_vertices(), 0.6, 11);
  auto result = ExtractSubgraphByVertex(&dev, g, esbv);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsOutOfMemory());
}

TEST(SelectPseudoClusterTest, FractionRoughlyHonored) {
  auto sel = SelectPseudoCluster(100000, 0.6, 3);
  EXPECT_NEAR(static_cast<double>(sel.size()) / 100000, 0.6, 0.02);
  EXPECT_TRUE(std::is_sorted(sel.begin(), sel.end()));
  auto none = SelectPseudoCluster(1000, 0.0, 3);
  EXPECT_TRUE(none.empty());
  auto all = SelectPseudoCluster(1000, 1.0, 3);
  EXPECT_EQ(all.size(), 1000u);
}

}  // namespace
}  // namespace adgraph::core
