#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <vector>

#include "core/device_graph.h"
#include "engine/algorithms.h"
#include "engine/engine.h"
#include "engine/frontier.h"
#include "graph/builder.h"
#include "graph/datasets.h"
#include "graph/generate.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"

namespace adgraph::engine {
namespace {

using graph::CsrGraph;
using graph::vid_t;
using vgpu::A100Config;
using vgpu::Device;

CsrGraph SymmetricRmat(uint32_t scale, double edge_factor, uint64_t seed) {
  auto coo = graph::GenerateRmat({.scale = scale, .edge_factor = edge_factor,
                                  .seed = seed})
                 .value();
  graph::CsrBuildOptions options;
  options.make_undirected = true;
  options.remove_duplicates = true;
  options.remove_self_loops = true;
  return CsrGraph::FromCoo(coo, options).value();
}

// ---------------------------------------------------------------- Frontier

TEST(FrontierTest, InitSourceIsSparseSingleton) {
  Device dev(A100Config());
  auto f = Frontier::Create(&dev, 100).value();
  ASSERT_TRUE(f.InitSource(7).ok());
  EXPECT_EQ(f.rep(), Frontier::Rep::kSparse);
  EXPECT_EQ(f.size(), 1u);
  EXPECT_FALSE(f.empty());
  EXPECT_DOUBLE_EQ(f.density(), 0.01);
  EXPECT_EQ(core::primitives::GetElement(&dev, f.queue(), 0).value(), 7u);
  // The flags mirror is kept in sync by InitSource.
  EXPECT_EQ(core::primitives::GetElement(&dev, f.flags(), 7).value(), 1u);
  EXPECT_EQ(core::primitives::GetElement(&dev, f.flags(), 6).value(), 0u);
}

TEST(FrontierTest, InitAllVerticesIsDenseFullSet) {
  Device dev(A100Config());
  auto f = Frontier::Create(&dev, 64).value();
  ASSERT_TRUE(f.InitAllVertices().ok());
  EXPECT_EQ(f.rep(), Frontier::Rep::kDense);
  EXPECT_EQ(f.size(), 64u);
  EXPECT_DOUBLE_EQ(f.density(), 1.0);
  for (vid_t v : {0u, 31u, 63u}) {
    EXPECT_EQ(core::primitives::GetElement(&dev, f.flags(), v).value(), 1u) << v;
  }
}

TEST(FrontierTest, ClearEmptiesBothRepresentations) {
  Device dev(A100Config());
  auto f = Frontier::Create(&dev, 50).value();
  ASSERT_TRUE(f.InitAllVertices().ok());
  ASSERT_TRUE(f.Clear().ok());
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.rep(), Frontier::Rep::kSparse);
  EXPECT_DOUBLE_EQ(f.density(), 0.0);
  for (vid_t v = 0; v < 50; ++v) {
    ASSERT_EQ(core::primitives::GetElement(&dev, f.flags(), v).value(), 0u) << v;
  }
}

TEST(FrontierTest, SwapExchangesBuffersAndState) {
  Device dev(A100Config());
  auto a = Frontier::Create(&dev, 40).value();
  auto b = Frontier::Create(&dev, 40).value();
  ASSERT_TRUE(a.InitSource(5).ok());
  ASSERT_TRUE(b.InitAllVertices().ok());
  swap(a, b);
  EXPECT_EQ(a.size(), 40u);
  EXPECT_EQ(a.rep(), Frontier::Rep::kDense);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(b.rep(), Frontier::Rep::kSparse);
  EXPECT_EQ(core::primitives::GetElement(&dev, b.queue(), 0).value(), 5u);
}

// -------------------------------------------------------- DirectionEngine

TEST(DirectionEngineTest, PullOnlyWithoutPullFormulationFails) {
  Device dev(A100Config());
  DirectionEngine director(&dev, DirectionPolicy::kPullOnly,
                           /*can_pull=*/false);
  auto d = director.Choose(10, 1000, 0);
  ASSERT_FALSE(d.ok());
  EXPECT_TRUE(d.status().IsFailedPrecondition());
}

TEST(DirectionEngineTest, AutoMatchesSeedHeuristicThresholds) {
  Device dev(A100Config());
  DirectionEngine director(&dev, DirectionPolicy::kAuto, /*can_pull=*/true);
  // Seed BFS condition: frontier > 64 AND frontier > n / 16.
  // n=1000 => n/16 = 62.5.
  EXPECT_EQ(director.Choose(64, 1000, 0).value(), Direction::kPush)
      << "64 is not above the 64-vertex floor";
  EXPECT_EQ(director.Choose(65, 1000, 1).value(), Direction::kPull);
  // n=2000 => n/16 = 125: 65 clears the floor but not the density bar.
  EXPECT_EQ(director.Choose(65, 2000, 2).value(), Direction::kPush);
  EXPECT_EQ(director.Choose(126, 2000, 3).value(), Direction::kPull);
}

TEST(DirectionEngineTest, PushOnlyNeverPulls) {
  Device dev(A100Config());
  DirectionEngine director(&dev, DirectionPolicy::kPushOnly,
                           /*can_pull=*/true);
  EXPECT_EQ(director.Choose(900, 1000, 0).value(), Direction::kPush);
  EXPECT_EQ(director.Choose(1000, 1000, 1).value(), Direction::kPush);
  EXPECT_EQ(director.stats().push_rounds, 2u);
  EXPECT_EQ(director.stats().pull_rounds, 0u);
}

TEST(DirectionEngineTest, AutoWithoutPullFallsBackToPush) {
  Device dev(A100Config());
  DirectionEngine director(&dev, DirectionPolicy::kAuto, /*can_pull=*/false);
  EXPECT_EQ(director.Choose(999, 1000, 0).value(), Direction::kPush);
}

TEST(DirectionEngineTest, StatsCountRoundsFlipsAndConversions) {
  Device dev(A100Config());
  DirectionEngine director(&dev, DirectionPolicy::kAuto, /*can_pull=*/true);
  // push, pull, pull, push: two flips.
  ASSERT_EQ(director.Choose(10, 1000, 0).value(), Direction::kPush);
  ASSERT_EQ(director.Choose(500, 1000, 1).value(), Direction::kPull);
  ASSERT_EQ(director.Choose(400, 1000, 2).value(), Direction::kPull);
  ASSERT_EQ(director.Choose(10, 1000, 3).value(), Direction::kPush);
  const DirectionStats& s = director.stats();
  EXPECT_EQ(s.push_rounds, 2u);
  EXPECT_EQ(s.pull_rounds, 2u);
  EXPECT_EQ(s.direction_flips, 2u);
  director.RecordConversion(Frontier::Rep::kSparse, Frontier::Rep::kDense);
  director.RecordConversion(Frontier::Rep::kDense, Frontier::Rep::kSparse);
  director.RecordConversion(Frontier::Rep::kSparse, Frontier::Rep::kDense);
  EXPECT_EQ(director.stats().sparse_to_dense, 2u);
  EXPECT_EQ(director.stats().dense_to_sparse, 1u);
}

// ------------------------------------------------- Advance on tiny graphs

TEST(EngineAdvanceTest, BfsOnPathGraph) {
  // 0 - 1 - 2 - 3 - 4 (undirected path).
  graph::GraphBuilder b(5);
  for (vid_t v = 0; v + 1 < 5; ++v) b.AddEdge(v, v + 1);
  graph::CsrBuildOptions options;
  options.make_undirected = true;
  auto g = b.Build(options).value();
  Device dev(A100Config());
  auto r =
      RunBfs(&dev, g, {.source = 0, .assume_symmetric = true}).value();
  EXPECT_EQ(r.levels, (std::vector<uint32_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(r.depth, 4u);
  EXPECT_EQ(r.vertices_visited, 5u);
}

TEST(EngineAdvanceTest, SsspRelaxesAcrossRounds) {
  // 0->1 (w=5), 0->2 (w=1), 2->1 (w=1): the two-hop path wins.
  graph::GraphBuilder b(3);
  b.AddEdge(0, 1, 5.0);
  b.AddEdge(0, 2, 1.0);
  b.AddEdge(2, 1, 1.0);
  auto g = b.Build().value();
  Device dev(A100Config());
  auto r = RunSssp(&dev, g, {.source = 0}).value();
  EXPECT_DOUBLE_EQ(r.distances[0], 0.0);
  EXPECT_DOUBLE_EQ(r.distances[1], 2.0);
  EXPECT_DOUBLE_EQ(r.distances[2], 1.0);
}

TEST(EngineAdvanceTest, WidestPathPicksBottleneckMax) {
  // 0->1 cap 3, 0->2 cap 10, 2->1 cap 4: widest path to 1 is min(10,4)=4.
  graph::GraphBuilder b(3);
  b.AddEdge(0, 1, 3.0);
  b.AddEdge(0, 2, 10.0);
  b.AddEdge(2, 1, 4.0);
  auto g = b.Build().value();
  Device dev(A100Config());
  auto r = RunWidestPath(&dev, g, {.source = 0}).value();
  EXPECT_DOUBLE_EQ(r.widths[1], 4.0);
  EXPECT_DOUBLE_EQ(r.widths[2], 10.0);
  EXPECT_TRUE(std::isinf(r.widths[0]));
}

TEST(EngineAdvanceTest, CcLabelsTwoComponents) {
  // {0,1,2} a triangle, {3,4} an edge.
  graph::GraphBuilder b(5);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  b.AddEdge(3, 4);
  auto g = b.Build().value();
  Device dev(A100Config());
  auto r = RunConnectedComponents(&dev, g, {}).value();
  EXPECT_EQ(r.num_components, 2u);
  EXPECT_EQ(r.labels, (std::vector<vid_t>{0, 0, 0, 3, 3}));
}

// --------------------------------------------- Direction-optimizing runs

TEST(EngineDirectionTest, AutoBfsPullsOnSkewedSymmetricGraph) {
  // A bundled paper proxy (not a bare RMAT draw): its hub structure makes
  // the frontier blow past n/alpha within a couple of rounds.
  auto spec = graph::FindDataset("web-Google").value();
  auto directed = graph::Materialize(spec, /*extra_divisor=*/8).value();
  graph::CsrBuildOptions sym;
  sym.make_undirected = true;
  sym.remove_duplicates = true;
  sym.remove_self_loops = true;
  auto g = CsrGraph::FromCoo(directed.ToCoo(), sym).value();
  Device dev(A100Config());
  EngineReport report;
  auto r = RunBfs(&dev, g, {.source = 0, .assume_symmetric = true}, nullptr,
                  {.direction = DirectionPolicy::kAuto}, &report)
               .value();
  EXPECT_GT(report.direction.pull_rounds, 0u)
      << "a dense RMAT frontier must trip the pull switch";
  EXPECT_GT(report.direction.push_rounds, 0u)
      << "round 1 (singleton frontier) must stay push";
  EXPECT_GT(report.direction.direction_flips, 0u);
}

TEST(EngineDirectionTest, PushOnlyAndAutoAgreeOnLevels) {
  auto g = SymmetricRmat(10, 10, 92);
  Device dev(A100Config());
  EngineReport push_report, auto_report;
  auto push = RunBfs(&dev, g, {.source = 0, .assume_symmetric = true},
                     nullptr, {.direction = DirectionPolicy::kPushOnly},
                     &push_report)
                  .value();
  auto opt = RunBfs(&dev, g, {.source = 0, .assume_symmetric = true},
                    nullptr, {.direction = DirectionPolicy::kAuto},
                    &auto_report)
                 .value();
  EXPECT_EQ(push_report.direction.pull_rounds, 0u);
  EXPECT_EQ(push.levels, opt.levels);
  EXPECT_EQ(push.depth, opt.depth);
  EXPECT_EQ(push.vertices_visited, opt.vertices_visited);
}

TEST(EngineDirectionTest, PageRankRejectsPushOnlyPolicy) {
  auto g = SymmetricRmat(8, 8, 93);
  Device dev(A100Config());
  auto r = RunPageRank(&dev, g, {}, nullptr,
                       {.direction = DirectionPolicy::kPushOnly});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsFailedPrecondition());
}

TEST(EngineDirectionTest, SsspRejectsPullOnlyPolicy) {
  auto g = SymmetricRmat(8, 8, 94);
  Device dev(A100Config());
  auto r = RunSssp(&dev, g, {.source = 0}, nullptr,
                   {.direction = DirectionPolicy::kPullOnly});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsFailedPrecondition());
}

TEST(EngineDirectionTest, BfsPullOnlyWithoutSymmetryFails) {
  auto coo = graph::GenerateRmat({.scale = 8, .edge_factor = 8, .seed = 95})
                 .value();
  auto g = CsrGraph::FromCoo(coo).value();
  Device dev(A100Config());
  auto r = RunBfs(&dev, g, {.source = 0, .assume_symmetric = false}, nullptr,
                  {.direction = DirectionPolicy::kPullOnly});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsFailedPrecondition());
}

// --------------------------------------------------- Betweenness (Brandes)

/// Host single-source Brandes reference: forward BFS with path counting,
/// then the backward dependency accumulation.
struct HostBrandes {
  std::vector<double> sigma;
  std::vector<double> delta;
  uint32_t depth = 0;
};

HostBrandes BrandesReference(const CsrGraph& g, vid_t source) {
  const vid_t n = g.num_vertices();
  HostBrandes out;
  out.sigma.assign(n, 0.0);
  out.delta.assign(n, 0.0);
  std::vector<int64_t> dist(n, -1);
  std::vector<std::vector<vid_t>> order;  // vertices by level
  dist[source] = 0;
  out.sigma[source] = 1.0;
  order.push_back({source});
  std::queue<vid_t> q;
  q.push(source);
  while (!q.empty()) {
    vid_t u = q.front();
    q.pop();
    for (auto e = g.row_offsets()[u]; e < g.row_offsets()[u + 1]; ++e) {
      vid_t v = g.col_indices()[e];
      if (dist[v] < 0) {
        dist[v] = dist[u] + 1;
        if (order.size() <= static_cast<size_t>(dist[v])) order.push_back({});
        order[dist[v]].push_back(v);
        q.push(v);
      }
      if (dist[v] == dist[u] + 1) out.sigma[v] += out.sigma[u];
    }
  }
  out.depth = static_cast<uint32_t>(order.size() - 1);
  for (size_t lvl = order.size(); lvl-- > 0;) {
    for (vid_t u : order[lvl]) {
      for (auto e = g.row_offsets()[u]; e < g.row_offsets()[u + 1]; ++e) {
        vid_t v = g.col_indices()[e];
        if (dist[v] == dist[u] + 1) {
          out.delta[u] += out.sigma[u] / out.sigma[v] * (1.0 + out.delta[v]);
        }
      }
    }
  }
  return out;
}

TEST(BetweennessTest, DiamondGraphCountsBothShortestPaths) {
  // 0-1, 0-2, 1-3, 2-3 (undirected diamond): sigma[3] = 2, and both 1 and
  // 2 carry dependency 0.5 from 3.
  graph::GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(1, 3);
  b.AddEdge(2, 3);
  graph::CsrBuildOptions options;
  options.make_undirected = true;
  auto g = b.Build(options).value();
  Device dev(A100Config());
  auto r = RunBetweenness(&dev, g, {.source = 0}).value();
  EXPECT_EQ(r.depth, 2u);
  EXPECT_DOUBLE_EQ(r.sigma[0], 1.0);
  EXPECT_DOUBLE_EQ(r.sigma[1], 1.0);
  EXPECT_DOUBLE_EQ(r.sigma[2], 1.0);
  EXPECT_DOUBLE_EQ(r.sigma[3], 2.0);
  EXPECT_DOUBLE_EQ(r.centrality[1], 0.5);
  EXPECT_DOUBLE_EQ(r.centrality[2], 0.5);
  EXPECT_DOUBLE_EQ(r.centrality[3], 0.0);
}

TEST(BetweennessTest, MatchesHostBrandesOnRmat) {
  auto g = SymmetricRmat(10, 8, 96);
  Device dev(A100Config());
  auto r = RunBetweenness(&dev, g, {.source = 1}).value();
  // The engine stages kSymSimple, which symmetrizes + dedups; our input is
  // already symmetric simple, so the reference sees the same adjacency.
  auto ref = BrandesReference(g, 1);
  EXPECT_EQ(r.depth, ref.depth);
  ASSERT_EQ(r.sigma.size(), ref.sigma.size());
  for (size_t v = 0; v < ref.sigma.size(); ++v) {
    // Path counts are integer-valued (exact in doubles below 2^53).
    ASSERT_EQ(r.sigma[v], ref.sigma[v]) << "sigma of " << v;
  }
  for (size_t v = 0; v < ref.delta.size(); ++v) {
    // Brandes excludes the source from its own centrality sum; the engine
    // leaves centrality[source] at 0.
    if (v == 1) continue;
    ASSERT_NEAR(r.centrality[v], ref.delta[v],
                1e-9 * std::max(1.0, std::fabs(ref.delta[v])))
        << "delta of " << v;
  }
  EXPECT_DOUBLE_EQ(r.centrality[1], 0.0);
}

TEST(BetweennessTest, SourceOutOfRangeFails) {
  auto g = SymmetricRmat(6, 4, 97);
  Device dev(A100Config());
  auto r = RunBetweenness(&dev, g, {.source = g.num_vertices()});
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace adgraph::engine
