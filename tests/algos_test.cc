#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/api.h"
#include "core/host_ref.h"
#include "core/spmv.h"
#include "graph/builder.h"
#include "graph/generate.h"
#include "util/random.h"
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

CsrGraph RandomGraph(uint32_t scale, double edge_factor, uint64_t seed,
                     bool weighted = false) {
  auto coo =
      graph::GenerateRmat({.scale = scale, .edge_factor = edge_factor,
                           .seed = seed})
          .value();
  if (weighted) graph::AttachRandomWeights(&coo, 0.1, 1.0, seed + 7);
  graph::CsrBuildOptions options;
  options.remove_duplicates = true;
  options.remove_self_loops = true;
  return CsrGraph::FromCoo(coo, options).value();
}

// ---------------------------------------------------------------- SpMV

TEST(SpmvTest, PlusTimesMatchesReference) {
  Device dev(A100Config());
  auto g = RandomGraph(9, 8, 51, /*weighted=*/true);
  std::vector<double> x(g.num_vertices());
  Rng rng(52);
  for (auto& v : x) v = rng.NextDouble();
  auto y = RunSpmv(&dev, g, x).value();
  auto expected = host_ref::SpmvPlusTimes(g, x);
  ASSERT_EQ(y.size(), expected.size());
  for (size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y[i], expected[i], 1e-9) << "row " << i;
  }
}

TEST(SpmvTest, UnweightedActsAsAdjacencySum) {
  Device dev(A100Config());
  GraphBuilder b(3);
  b.AddEdge(0, 1).AddEdge(0, 2).AddEdge(2, 1);
  std::vector<double> x{1.0, 2.0, 4.0};
  auto y = RunSpmv(&dev, b.Build().value(), x).value();
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
  EXPECT_DOUBLE_EQ(y[2], 2.0);
}

TEST(SpmvTest, RejectsBadInputs) {
  Device dev(A100Config());
  auto g = RandomGraph(8, 4, 55);
  std::vector<double> wrong_size(3);
  EXPECT_FALSE(RunSpmv(&dev, g, wrong_size).ok());
}

// ------------------------------------------------------------- PageRank

TEST(PageRankTest, UniformOnRegularRing) {
  GraphBuilder b;
  const vid_t n = 64;
  for (vid_t v = 0; v < n; ++v) b.AddEdge(v, (v + 1) % n);
  Device dev(A100Config());
  auto result = core::Run<Algo::kPageRank>(&dev, b.Build().value(), {}).value();
  for (double r : result.ranks) EXPECT_NEAR(r, 1.0 / n, 1e-9);
}

TEST(PageRankTest, MatchesHostReference) {
  Device dev(A100Config());
  auto g = RandomGraph(9, 6, 56);
  PageRankOptions options;
  options.max_iterations = 25;
  options.tolerance = 0;  // fixed iteration count, same as the reference
  auto result = core::Run<Algo::kPageRank>(&dev, g, options).value();
  auto expected = host_ref::PageRank(g, options.alpha, options.max_iterations);
  ASSERT_EQ(result.ranks.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(result.ranks[i], expected[i], 1e-8);
  }
}

TEST(PageRankTest, RanksSumToOneWithDanglingVertices) {
  GraphBuilder b(50);  // vertices 40..49 are dangling
  for (vid_t v = 0; v < 40; ++v) b.AddEdge(v, (v * 7 + 1) % 50);
  Device dev(A100Config());
  auto result = core::Run<Algo::kPageRank>(&dev, b.Build().value(), {}).value();
  double sum = 0;
  for (double r : result.ranks) sum += r;
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(PageRankTest, ConvergesEarlyWithTolerance) {
  Device dev(A100Config());
  auto g = RandomGraph(8, 8, 57);
  PageRankOptions options;
  options.max_iterations = 200;
  options.tolerance = 1e-6;
  auto result = core::Run<Algo::kPageRank>(&dev, g, options).value();
  EXPECT_LT(result.iterations, 200u);
  EXPECT_LT(result.l1_delta, 1e-6);
}

TEST(PageRankTest, HubOutranksLeaves) {
  GraphBuilder b;
  for (vid_t v = 1; v <= 30; ++v) b.AddEdge(v, 0);  // everyone points at 0
  b.AddEdge(0, 1);
  Device dev(A100Config());
  auto result = core::Run<Algo::kPageRank>(&dev, b.Build().value(), {}).value();
  for (vid_t v = 2; v <= 30; ++v) {
    EXPECT_GT(result.ranks[0], result.ranks[v]);
  }
}

TEST(PageRankTest, ValidatesAlpha) {
  Device dev(A100Config());
  auto g = RandomGraph(8, 4, 58);
  PageRankOptions options;
  options.alpha = 1.5;
  EXPECT_FALSE(core::Run<Algo::kPageRank>(&dev, g, options).ok());
}

// ----------------------------------------------------------------- SSSP

TEST(SsspTest, MatchesHostReferenceWeighted) {
  Device dev(A100Config());
  auto g = RandomGraph(9, 6, 59, /*weighted=*/true);
  SsspOptions options;
  options.source = 0;
  auto result = core::Run<Algo::kSssp>(&dev, g, options).value();
  auto expected = host_ref::Sssp(g, 0);
  ASSERT_EQ(result.distances.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    if (std::isinf(expected[i])) {
      EXPECT_TRUE(std::isinf(result.distances[i]));
    } else {
      EXPECT_NEAR(result.distances[i], expected[i], 1e-9);
    }
  }
}

TEST(SsspTest, UnweightedDistancesEqualBfsLevels) {
  Device dev(Z100LConfig());
  auto g = RandomGraph(9, 8, 60);
  auto result = core::Run<Algo::kSssp>(&dev, g, {.source = 5}).value();
  auto levels = host_ref::BfsLevels(g, 5);
  for (size_t v = 0; v < levels.size(); ++v) {
    if (levels[v] == kUnreachedLevel) {
      EXPECT_TRUE(std::isinf(result.distances[v]));
    } else {
      EXPECT_DOUBLE_EQ(result.distances[v], levels[v]);
    }
  }
}

TEST(SsspTest, RejectsNegativeWeights) {
  GraphBuilder b;
  b.AddEdge(0, 1, -2.0);
  Device dev(A100Config());
  EXPECT_FALSE(core::Run<Algo::kSssp>(
      &dev, b.Build().value(), {.source = 0}).ok());
}

TEST(SsspTest, ChainDistancesAccumulateWeights) {
  GraphBuilder b;
  b.AddEdge(0, 1, 1.5).AddEdge(1, 2, 2.5).AddEdge(2, 3, 3.0);
  Device dev(A100Config());
  auto result = core::Run<Algo::kSssp>(
      &dev, b.Build().value(), {.source = 0}).value();
  EXPECT_DOUBLE_EQ(result.distances[3], 7.0);
  EXPECT_LE(result.rounds, 4u);
}

// ------------------------------------------------------------------- CC

TEST(CcTest, CountsComponents) {
  GraphBuilder b(10);
  b.AddEdge(0, 1).AddEdge(1, 2);   // component {0,1,2}
  b.AddEdge(4, 5);                 // component {4,5}
  Device dev(A100Config());
  auto result = core::Run<Algo::kConnectedComponents>(
      &dev, b.Build().value(), {}).value();
  // {0,1,2}, {4,5}, and singletons 3,6,7,8,9.
  EXPECT_EQ(result.num_components, 7u);
  EXPECT_EQ(result.labels[0], result.labels[2]);
  EXPECT_EQ(result.labels[4], result.labels[5]);
  EXPECT_NE(result.labels[0], result.labels[4]);
}

TEST(CcTest, MatchesHostReference) {
  Device dev(A100Config());
  // Sparse graph so multiple components exist.
  auto coo = graph::GenerateErdosRenyi(2000, 1500, 61).value();
  auto g = CsrGraph::FromCoo(coo).value();
  auto result = core::Run<Algo::kConnectedComponents>(&dev, g, {}).value();
  auto expected = host_ref::ConnectedComponents(g);
  EXPECT_EQ(result.labels, expected);
}

TEST(CcTest, DirectionIgnored) {
  GraphBuilder b(4);
  b.AddEdge(1, 0).AddEdge(2, 3);  // only "incoming" edges for 0 and 3
  Device dev(A100Config());
  auto result = core::Run<Algo::kConnectedComponents>(
      &dev, b.Build().value(), {}).value();
  EXPECT_EQ(result.labels[0], result.labels[1]);
  EXPECT_EQ(result.labels[2], result.labels[3]);
  EXPECT_EQ(result.num_components, 2u);
}

// -------------------------------------------------------------- Jaccard

TEST(JaccardTest, MatchesHostReference) {
  Device dev(A100Config());
  auto g = RandomGraph(8, 8, 62);
  auto result = RunJaccard(&dev, g, {}).value();
  auto expected = host_ref::JaccardPerEdge(g);
  ASSERT_EQ(result.coefficients.size(), expected.size());
  for (size_t e = 0; e < expected.size(); ++e) {
    EXPECT_NEAR(result.coefficients[e], expected[e], 1e-9) << "edge " << e;
  }
}

TEST(JaccardTest, KnownTinyValues) {
  // 0 -> {1,2}; 1 -> {2}; 2 -> {}.
  GraphBuilder b(3);
  b.AddEdge(0, 1).AddEdge(0, 2).AddEdge(1, 2);
  Device dev(A100Config());
  auto result = RunJaccard(&dev, b.Build().value(), {}).value();
  // Edge (0,1): N(0)={1,2}, N(1)={2}: inter {2} (1), union {1,2} (2) = 0.5.
  EXPECT_DOUBLE_EQ(result.coefficients[0], 0.5);
  // Edge (0,2): N(2)={} -> 0/2 = 0.
  EXPECT_DOUBLE_EQ(result.coefficients[1], 0.0);
  // Edge (1,2): 0/1 = 0.
  EXPECT_DOUBLE_EQ(result.coefficients[2], 0.0);
}


// ----------------------------------------------------------- widest path

TEST(WidestPathTest, MatchesHostReferenceWeighted) {
  Device dev(A100Config());
  auto g = RandomGraph(9, 6, 71, /*weighted=*/true);
  WidestPathOptions options;
  options.source = 0;
  auto result = core::Run<Algo::kWidestPath>(&dev, g, options).value();
  auto expected = host_ref::WidestPath(g, 0);
  ASSERT_EQ(result.widths.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    if (std::isinf(expected[i])) {
      EXPECT_TRUE(std::isinf(result.widths[i]));
    } else {
      EXPECT_NEAR(result.widths[i], expected[i], 1e-12) << "vertex " << i;
    }
  }
}

TEST(WidestPathTest, BottleneckOnHandGraph) {
  // Two routes 0 -> 3: capacities min(5, 1) = 1 and min(2, 4) = 2.
  GraphBuilder b;
  b.AddEdge(0, 1, 5.0).AddEdge(1, 3, 1.0);
  b.AddEdge(0, 2, 2.0).AddEdge(2, 3, 4.0);
  Device dev(A100Config());
  auto result = core::Run<Algo::kWidestPath>(
      &dev, b.Build().value(), {.source = 0}).value();
  EXPECT_TRUE(std::isinf(result.widths[0]));
  EXPECT_DOUBLE_EQ(result.widths[1], 5.0);
  EXPECT_DOUBLE_EQ(result.widths[2], 2.0);
  EXPECT_DOUBLE_EQ(result.widths[3], 2.0) << "wider route wins";
}

TEST(WidestPathTest, UnreachableIsZeroAndNegativeRejected) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 3.0);
  Device dev(A100Config());
  auto result = core::Run<Algo::kWidestPath>(
      &dev, b.Build().value(), {.source = 0}).value();
  EXPECT_DOUBLE_EQ(result.widths[2], 0.0);
  GraphBuilder bad;
  bad.AddEdge(0, 1, -1.0);
  EXPECT_FALSE(core::Run<Algo::kWidestPath>(
      &dev, bad.Build().value(), {.source = 0}).ok());
}

// ------------------------------------------------------------- coloring

void ExpectProperColoring(const CsrGraph& g,
                          const std::vector<uint32_t>& colors) {
  graph::CsrBuildOptions sym_options;
  sym_options.make_undirected = true;
  sym_options.remove_duplicates = true;
  sym_options.remove_self_loops = true;
  auto sym = CsrGraph::FromCoo(g.ToCoo(), sym_options).value();
  for (vid_t u = 0; u < sym.num_vertices(); ++u) {
    for (vid_t v : sym.neighbors(u)) {
      EXPECT_NE(colors[u], colors[v]) << "edge (" << u << "," << v << ")";
    }
  }
}

TEST(ColoringTest, ProperOnRmat) {
  Device dev(A100Config());
  auto g = RandomGraph(9, 8, 91);
  auto result = RunGraphColoring(&dev, g, {}).value();
  ASSERT_EQ(result.colors.size(), g.num_vertices());
  ExpectProperColoring(g, result.colors);
  EXPECT_GT(result.num_colors, 1u);
}

TEST(ColoringTest, CompleteGraphNeedsNColors) {
  GraphBuilder b;
  const vid_t n = 9;
  for (vid_t u = 0; u < n; ++u) {
    for (vid_t v = u + 1; v < n; ++v) b.AddEdge(u, v);
  }
  Device dev(A100Config());
  auto result = RunGraphColoring(&dev, b.Build().value(), {}).value();
  EXPECT_EQ(result.num_colors, n);
  ExpectProperColoring(b.Build().value(), result.colors);
}

TEST(ColoringTest, BipartiteUsesFewColors) {
  GraphBuilder b;
  for (vid_t u = 0; u < 16; ++u) {
    for (vid_t v = 16; v < 32; ++v) b.AddEdge(u, v);
  }
  Device dev(A100Config());
  auto result = RunGraphColoring(&dev, b.Build().value(), {}).value();
  EXPECT_LE(result.num_colors, 3u);
  ExpectProperColoring(b.Build().value(), result.colors);
}

TEST(ColoringTest, DeterministicPerSeedAndProperAcrossSeeds) {
  Device dev(Z100LConfig());
  auto g = RandomGraph(8, 6, 92);
  ColoringOptions a;
  a.seed = 5;
  auto r1 = RunGraphColoring(&dev, g, a).value();
  auto r2 = RunGraphColoring(&dev, g, a).value();
  EXPECT_EQ(r1.colors, r2.colors);
  ColoringOptions b;
  b.seed = 6;
  auto r3 = RunGraphColoring(&dev, g, b).value();
  ExpectProperColoring(g, r3.colors);
}

TEST(ColoringTest, WideColorWindowsWork) {
  // A 70-clique forces colors past the first 64-color window.
  GraphBuilder b;
  const vid_t n = 70;
  for (vid_t u = 0; u < n; ++u) {
    for (vid_t v = u + 1; v < n; ++v) b.AddEdge(u, v);
  }
  Device dev(A100Config());
  auto result = RunGraphColoring(&dev, b.Build().value(), {}).value();
  EXPECT_EQ(result.num_colors, n);
  ExpectProperColoring(b.Build().value(), result.colors);
}

// ----------------------------------------------------------------- kcore

TEST(KCoreTest, MembershipMatchesCoreNumbers) {
  Device dev(A100Config());
  auto g = RandomGraph(8, 6, 63);
  auto cores = host_ref::CoreNumbers(g);
  for (uint32_t k : {1u, 2u, 3u, 5u}) {
    KCoreOptions options;
    options.k = k;
    auto result = RunKCore(&dev, g, options).value();
    ASSERT_EQ(result.in_core.size(), cores.size());
    for (size_t v = 0; v < cores.size(); ++v) {
      EXPECT_EQ(result.in_core[v], cores[v] >= k ? 1u : 0u)
          << "vertex " << v << " at k=" << k;
    }
  }
}

TEST(KCoreTest, CliquePlusTailPeelsTail) {
  GraphBuilder b;
  // 5-clique (core 4) with a path hanging off it.
  for (vid_t u = 0; u < 5; ++u) {
    for (vid_t v = u + 1; v < 5; ++v) b.AddEdge(u, v);
  }
  b.AddEdge(4, 5).AddEdge(5, 6);
  Device dev(A100Config());
  KCoreOptions options;
  options.k = 3;
  auto result = RunKCore(&dev, b.Build().value(), options).value();
  EXPECT_EQ(result.core_size, 5u);
  EXPECT_EQ(result.in_core[5], 0u);
  EXPECT_EQ(result.in_core[6], 0u);
}

TEST(KCoreTest, K1KeepsEverythingConnected) {
  GraphBuilder b(5);
  b.AddEdge(0, 1).AddEdge(2, 3);
  Device dev(A100Config());
  KCoreOptions options;
  options.k = 1;
  auto result = RunKCore(&dev, b.Build().value(), options).value();
  EXPECT_EQ(result.core_size, 4u);  // vertex 4 is isolated
}

}  // namespace
}  // namespace adgraph::core
