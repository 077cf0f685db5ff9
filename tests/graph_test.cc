#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <utility>

#include "graph/builder.h"
#include "graph/csr.h"
#include "graph/generate.h"
#include "graph/io.h"
#include "graph/stats.h"
#include "util/random.h"

namespace adgraph::graph {
namespace {

// ------------------------------------------------------------ CSR build

TEST(CsrTest, FromCooBasic) {
  CooGraph coo;
  coo.num_vertices = 4;
  coo.AddEdge(0, 1);
  coo.AddEdge(0, 2);
  coo.AddEdge(2, 3);
  coo.AddEdge(1, 0);
  auto g = CsrGraph::FromCoo(coo).value();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.degree(3), 0u);
  auto n0 = g.neighbors(0);
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0], 1u);
  EXPECT_EQ(n0[1], 2u);
}

TEST(CsrTest, NeighborsSortedByDefault) {
  CooGraph coo;
  coo.num_vertices = 3;
  coo.AddEdge(0, 2);
  coo.AddEdge(0, 1);
  coo.AddEdge(0, 0);
  auto g = CsrGraph::FromCoo(coo).value();
  auto n = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(n.begin(), n.end()));
}

TEST(CsrTest, RemoveDuplicatesAndSelfLoops) {
  CooGraph coo;
  coo.num_vertices = 3;
  coo.AddEdge(0, 1);
  coo.AddEdge(0, 1);
  coo.AddEdge(1, 1);
  coo.AddEdge(1, 2);
  CsrBuildOptions options;
  options.remove_duplicates = true;
  options.remove_self_loops = true;
  auto g = CsrGraph::FromCoo(coo, options).value();
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
}

TEST(CsrTest, MakeUndirectedMirrorsEdges) {
  CooGraph coo;
  coo.num_vertices = 3;
  coo.AddEdge(0, 1);
  coo.AddEdge(1, 2);
  CsrBuildOptions options;
  options.make_undirected = true;
  auto g = CsrGraph::FromCoo(coo, options).value();
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.degree(1), 2u);
  auto n1 = g.neighbors(1);
  EXPECT_EQ(n1[0], 0u);
  EXPECT_EQ(n1[1], 2u);
}

TEST(CsrTest, WeightsFollowEdgesThroughSort) {
  CooGraph coo;
  coo.num_vertices = 2;
  coo.AddEdge(0, 1, 2.5);
  coo.AddEdge(0, 0, 1.5);
  auto g = CsrGraph::FromCoo(coo).value();
  ASSERT_TRUE(g.has_weights());
  auto n = g.neighbors(0);
  auto w = g.edge_weights(0);
  ASSERT_EQ(n.size(), 2u);
  EXPECT_EQ(n[0], 0u);
  EXPECT_EQ(w[0], 1.5);
  EXPECT_EQ(n[1], 1u);
  EXPECT_EQ(w[1], 2.5);
}

/// CSR arrays built the comparison-sort way: std::stable_sort by (u, v),
/// or by u alone when neighbors stay unsorted, then adjacent duplicates
/// dropped.  The reference FromCoo's counting sorts must match.
struct ReferenceCsr {
  std::vector<eid_t> row_offsets;
  std::vector<vid_t> col_indices;
  std::vector<weight_t> weights;
};

ReferenceCsr StableSortCsr(const CooGraph& coo,
                           const CsrBuildOptions& options) {
  struct Edge {
    vid_t u, v;
    weight_t w;
  };
  std::vector<Edge> edges;
  for (eid_t e = 0; e < coo.num_edges(); ++e) {
    const vid_t u = coo.src[e];
    const vid_t v = coo.dst[e];
    if (options.remove_self_loops && u == v) continue;
    const weight_t w = coo.has_weights() ? coo.weights[e] : weight_t{1};
    edges.push_back({u, v, w});
    if (options.make_undirected && u != v) edges.push_back({v, u, w});
  }
  std::stable_sort(edges.begin(), edges.end(),
                   [&](const Edge& a, const Edge& b) {
                     if (a.u != b.u) return a.u < b.u;
                     return options.sort_neighbors && a.v < b.v;
                   });
  if (options.remove_duplicates) {
    edges.erase(std::unique(edges.begin(), edges.end(),
                            [](const Edge& a, const Edge& b) {
                              return a.u == b.u && a.v == b.v;
                            }),
                edges.end());
  }
  ReferenceCsr out;
  out.row_offsets.assign(coo.num_vertices + 1, 0);
  for (const Edge& e : edges) {
    ++out.row_offsets[e.u + 1];
    out.col_indices.push_back(e.v);
    if (coo.has_weights()) out.weights.push_back(e.w);
  }
  for (vid_t v = 0; v < coo.num_vertices; ++v) {
    out.row_offsets[v + 1] += out.row_offsets[v];
  }
  return out;
}

TEST(CsrTest, FromCooMatchesStableSortReference) {
  Rng rng(61);
  for (int round = 0; round < 40; ++round) {
    CooGraph coo;
    coo.num_vertices = 1 + static_cast<vid_t>(rng.Uniform(200));
    const bool weighted = rng.Bernoulli(0.5);
    const uint64_t m = rng.Uniform(2000);
    for (uint64_t e = 0; e < m; ++e) {
      vid_t u = static_cast<vid_t>(rng.Uniform(coo.num_vertices));
      vid_t v = rng.Bernoulli(0.1)
                    ? u
                    : static_cast<vid_t>(rng.Uniform(coo.num_vertices));
      if (e > 0 && rng.Bernoulli(0.2)) {  // a duplicate, maybe reweighted
        const uint64_t copy = rng.Uniform(e);
        u = coo.src[copy];
        v = coo.dst[copy];
      }
      if (weighted) {
        coo.AddEdge(u, v, rng.NextDouble());
      } else {
        coo.AddEdge(u, v);
      }
    }
    for (int bits = 0; bits < 16; ++bits) {
      CsrBuildOptions options;
      options.sort_neighbors = bits & 1;
      options.remove_duplicates = bits & 2;
      options.remove_self_loops = bits & 4;
      options.make_undirected = bits & 8;
      const CsrGraph g = CsrGraph::FromCoo(coo, options).value();
      const ReferenceCsr want = StableSortCsr(coo, options);
      ASSERT_EQ(g.row_offsets(), want.row_offsets) << round << "/" << bits;
      ASSERT_EQ(g.col_indices(), want.col_indices) << round << "/" << bits;
      ASSERT_EQ(g.weights(), want.weights) << round << "/" << bits;
    }
  }
}

TEST(CsrTest, RejectsOutOfRangeVertices) {
  CooGraph coo;
  coo.num_vertices = 2;
  coo.AddEdge(0, 5);
  EXPECT_FALSE(CsrGraph::FromCoo(coo).ok());
}

TEST(CsrTest, RejectsMismatchedArrays) {
  CooGraph coo;
  coo.num_vertices = 2;
  coo.src = {0};
  coo.dst = {1, 0};
  EXPECT_FALSE(CsrGraph::FromCoo(coo).ok());
  coo.dst = {1};
  coo.weights = {1.0, 2.0};
  EXPECT_FALSE(CsrGraph::FromCoo(coo).ok());
}

TEST(CsrTest, FromArraysValidates) {
  EXPECT_TRUE(CsrGraph::FromArrays(2, {0, 1, 2}, {1, 0}).ok());
  EXPECT_FALSE(CsrGraph::FromArrays(2, {0, 1}, {1, 0}).ok());      // short
  EXPECT_FALSE(CsrGraph::FromArrays(2, {0, 2, 1}, {1, 0}).ok());   // non-monotone
  EXPECT_FALSE(CsrGraph::FromArrays(2, {0, 1, 2}, {1, 9}).ok());   // col range
  EXPECT_TRUE(CsrGraph::FromArrays(2, {0, 1, 1}, {1}).ok());  // empty row ok
  EXPECT_FALSE(CsrGraph::FromArrays(2, {0, 1, 0}, {1}).ok()); // bad endpoint
  EXPECT_FALSE(CsrGraph::FromArrays(2, {0, 1, 2}, {1, 0}, {1.0}).ok());
}

TEST(CsrTest, TransposeReversesEdges) {
  CooGraph coo;
  coo.num_vertices = 3;
  coo.AddEdge(0, 1, 1.0);
  coo.AddEdge(0, 2, 2.0);
  coo.AddEdge(2, 1, 3.0);
  auto g = CsrGraph::FromCoo(coo).value();
  auto t = g.Transpose();
  EXPECT_EQ(t.num_edges(), 3u);
  EXPECT_EQ(t.degree(1), 2u);
  EXPECT_EQ(t.degree(0), 0u);
  // Weight of (2->1) must follow to (1<-2).
  auto n1 = t.neighbors(1);
  auto w1 = t.edge_weights(1);
  for (size_t i = 0; i < n1.size(); ++i) {
    if (n1[i] == 2) EXPECT_EQ(w1[i], 3.0);
    if (n1[i] == 0) EXPECT_EQ(w1[i], 1.0);
  }
}

TEST(CsrTest, TransposeTwiceIsIdentity) {
  auto coo = GenerateRmat({.scale = 8, .edge_factor = 4, .seed = 5}).value();
  auto g = CsrGraph::FromCoo(coo).value();
  auto tt = g.Transpose().Transpose();
  EXPECT_EQ(tt.row_offsets(), g.row_offsets());
  EXPECT_EQ(tt.col_indices(), g.col_indices());
}

TEST(CsrTest, ToCooRoundTrips) {
  CooGraph coo;
  coo.num_vertices = 3;
  coo.AddEdge(0, 1, 4.0);
  coo.AddEdge(2, 0, 5.0);
  auto g = CsrGraph::FromCoo(coo).value();
  auto back = g.ToCoo();
  auto g2 = CsrGraph::FromCoo(back).value();
  EXPECT_EQ(g2.row_offsets(), g.row_offsets());
  EXPECT_EQ(g2.col_indices(), g.col_indices());
  EXPECT_EQ(g2.weights(), g.weights());
}

TEST(CsrTest, WithUniformWeights) {
  CooGraph coo;
  coo.num_vertices = 2;
  coo.AddEdge(0, 1);
  auto g = CsrGraph::FromCoo(coo).value();
  EXPECT_FALSE(g.has_weights());
  auto w = g.WithUniformWeights(3.0);
  ASSERT_TRUE(w.has_weights());
  EXPECT_EQ(w.weights()[0], 3.0);
}

TEST(CsrTest, DeviceFootprintCountsArrays) {
  CooGraph coo;
  coo.num_vertices = 2;
  coo.AddEdge(0, 1, 1.0);
  auto g = CsrGraph::FromCoo(coo).value();
  EXPECT_EQ(g.DeviceFootprintBytes(),
            3 * sizeof(eid_t) + 1 * sizeof(vid_t) + 1 * sizeof(weight_t));
}

// -------------------------------------------------------------- builder

TEST(BuilderTest, GrowsVertexCount) {
  GraphBuilder b;
  b.AddEdge(0, 5).AddEdge(2, 1);
  EXPECT_EQ(b.num_vertices(), 6u);
  EXPECT_EQ(b.num_edges(), 2u);
  auto g = b.Build().value();
  EXPECT_EQ(g.num_vertices(), 6u);
}

TEST(BuilderTest, MixedWeightBackfill) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2, 9.0);
  b.AddEdge(2, 0);
  auto g = b.Build().value();
  ASSERT_TRUE(g.has_weights());
  EXPECT_EQ(g.edge_weights(0)[0], 1.0);   // backfilled default
  EXPECT_EQ(g.edge_weights(1)[0], 9.0);
  EXPECT_EQ(g.edge_weights(2)[0], 1.0);
}

// ------------------------------------------------------------ generators

TEST(GenerateTest, RmatShapeAndDeterminism) {
  RmatParams params{.scale = 10, .edge_factor = 8, .seed = 42};
  auto a = GenerateRmat(params).value();
  auto b = GenerateRmat(params).value();
  EXPECT_EQ(a.num_vertices, 1024u);
  EXPECT_EQ(a.num_edges(), 8192u);
  EXPECT_EQ(a.src, b.src);
  EXPECT_EQ(a.dst, b.dst);
}

TEST(GenerateTest, RmatIsSkewed) {
  RmatParams params{.scale = 12, .edge_factor = 16, .seed = 1};
  params.a = 0.57;
  auto coo = GenerateRmat(params).value();
  auto g = CsrGraph::FromCoo(coo).value();
  auto stats = ComputeDegreeStats(g);
  EXPECT_GT(stats.skew(), 10.0) << "R-MAT 0.57 should be heavy-tailed";
}

TEST(GenerateTest, RmatValidatesParams) {
  RmatParams params;
  params.scale = 0;
  EXPECT_FALSE(GenerateRmat(params).ok());
  params.scale = 8;
  params.a = 0.9;  // sum > 1
  EXPECT_FALSE(GenerateRmat(params).ok());
}

TEST(GenerateTest, ErdosRenyiUniformish) {
  auto coo = GenerateErdosRenyi(1000, 10000, 3).value();
  EXPECT_EQ(coo.num_edges(), 10000u);
  auto g = CsrGraph::FromCoo(coo).value();
  auto stats = ComputeDegreeStats(g);
  EXPECT_LT(stats.skew(), 4.0) << "ER should not be heavy-tailed";
}

TEST(GenerateTest, WattsStrogatzDegreeSum) {
  auto coo = GenerateWattsStrogatz(100, 4, 0.1, 7).value();
  // 100 * 4/2 undirected edges, each emitted twice.
  EXPECT_EQ(coo.num_edges(), 400u);
  EXPECT_FALSE(GenerateWattsStrogatz(100, 3, 0.1, 7).ok()) << "odd k";
  EXPECT_FALSE(GenerateWattsStrogatz(100, 4, 1.5, 7).ok()) << "bad beta";
}

TEST(GenerateTest, WattsStrogatzIsDeterministicPerSeed) {
  // Partition tests feed on generated proxies, so generation must be
  // bit-reproducible for a fixed seed and differ across seeds.
  auto a = GenerateWattsStrogatz(500, 6, 0.3, 11).value();
  auto b = GenerateWattsStrogatz(500, 6, 0.3, 11).value();
  EXPECT_EQ(a.src, b.src);
  EXPECT_EQ(a.dst, b.dst);
  auto c = GenerateWattsStrogatz(500, 6, 0.3, 12).value();
  EXPECT_TRUE(a.src != c.src || a.dst != c.dst);
}

TEST(GenerateTest, WattsStrogatzRewireNeverDuplicatesEdges) {
  // Regression: the rewire loop used to accept targets already adjacent to
  // u (and lattice fallbacks an earlier rewire had landed on), emitting
  // duplicate undirected edges that CSR dedup silently collapsed —
  // skewing the degree distribution the model is supposed to preserve.
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    for (double beta : {0.0, 0.3, 1.0}) {
      auto coo = GenerateWattsStrogatz(200, 8, beta, seed).value();
      std::set<std::pair<vid_t, vid_t>> seen;
      for (size_t e = 0; e < coo.src.size(); ++e) {
        vid_t u = coo.src[e];
        vid_t v = coo.dst[e];
        EXPECT_NE(u, v) << "self loop at seed " << seed;
        EXPECT_TRUE(seen.insert({u, v}).second)
            << "duplicate edge " << u << "->" << v << " at seed " << seed
            << " beta " << beta;
      }
    }
  }
}

TEST(GenerateTest, WattsStrogatzBetaZeroIsTheRingLattice) {
  auto coo = GenerateWattsStrogatz(50, 4, 0.0, 9).value();
  EXPECT_EQ(coo.num_edges(), 200u);
  auto g = CsrGraph::FromCoo(coo).value();
  for (vid_t v = 0; v < 50; ++v) {
    EXPECT_EQ(g.degree(v), 4u) << "lattice vertex " << v;
  }
}

TEST(GenerateTest, BarabasiAlbertGrowsHubs) {
  auto coo = GenerateBarabasiAlbert(500, 3, 11).value();
  auto g = CsrGraph::FromCoo(coo).value();
  auto stats = ComputeDegreeStats(g);
  EXPECT_GT(stats.max_degree, 20u);
  EXPECT_FALSE(GenerateBarabasiAlbert(3, 3, 1).ok());
}

TEST(GenerateTest, AttachRandomWeightsInRange) {
  auto coo = GenerateErdosRenyi(100, 500, 3).value();
  AttachRandomWeights(&coo, 2.0, 5.0, 99);
  ASSERT_EQ(coo.weights.size(), 500u);
  for (double w : coo.weights) {
    EXPECT_GE(w, 2.0);
    EXPECT_LT(w, 5.0);
  }
}

// ---------------------------------------------------------------- stats

TEST(StatsTest, ComputesDegreeSummary) {
  GraphBuilder b(5);
  b.AddEdge(0, 1).AddEdge(0, 2).AddEdge(0, 3).AddEdge(1, 2);
  auto g = b.Build().value();
  auto stats = ComputeDegreeStats(g);
  EXPECT_EQ(stats.num_vertices, 5u);
  EXPECT_EQ(stats.num_edges, 4u);
  EXPECT_EQ(stats.max_degree, 3u);
  EXPECT_EQ(stats.isolated_vertices, 3u);  // 2,3,4 have out-degree 0
  EXPECT_DOUBLE_EQ(stats.avg_degree, 0.8);
}


TEST(StatsTest, DegreeDistributionPercentiles) {
  GraphBuilder b(10);
  // Degrees: 0,0,0,0,0,1,2,3,4,10 (vertex 9 has 10 out-edges).
  b.AddEdge(5, 0);
  for (vid_t i = 0; i < 2; ++i) b.AddEdge(6, i);
  for (vid_t i = 0; i < 3; ++i) b.AddEdge(7, i);
  for (vid_t i = 0; i < 4; ++i) b.AddEdge(8, i);
  for (vid_t i = 0; i < 10 - 1; ++i) b.AddEdge(9, i);
  b.AddEdge(9, 9);
  auto g = b.Build().value();
  auto dist = ComputeDegreeDistribution(g);
  EXPECT_EQ(dist.p0, 0u);
  EXPECT_EQ(dist.p100, 10u);
  EXPECT_LE(dist.p50, dist.p90);
  EXPECT_LE(dist.p90, dist.p99);
  // Histogram buckets sum to the vertex count.
  uint64_t total = 0;
  for (uint64_t c : dist.log2_bins) total += c;
  EXPECT_EQ(total, 10u);
}

TEST(StatsTest, PowerLawAlphaDetectsSkew) {
  auto skewed = GenerateRmat({.scale = 13, .edge_factor = 16, .seed = 44});
  auto g = CsrGraph::FromCoo(skewed.value()).value();
  auto dist = ComputeDegreeDistribution(g);
  EXPECT_GT(dist.powerlaw_alpha, 1.0);
  EXPECT_LT(dist.powerlaw_alpha, 6.0);
  // Uniform ER has a much thinner tail -> larger alpha estimate.
  auto er = GenerateErdosRenyi(1 << 13, 16u << 13, 45).value();
  auto ger = CsrGraph::FromCoo(er).value();
  auto dist_er = ComputeDegreeDistribution(ger);
  EXPECT_GT(dist_er.powerlaw_alpha, dist.powerlaw_alpha);
}

TEST(StatsTest, EmptyGraphDistribution) {
  CooGraph coo;
  coo.num_vertices = 0;
  auto g = CsrGraph::FromCoo(coo).value();
  auto dist = ComputeDegreeDistribution(g);
  EXPECT_EQ(dist.p100, 0u);
  EXPECT_TRUE(dist.log2_bins.empty());
}

// ------------------------------------------------------------------- IO

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

TEST(IoTest, EdgeListRoundTrip) {
  CooGraph coo;
  coo.num_vertices = 4;
  coo.AddEdge(0, 1, 1.5);
  coo.AddEdge(3, 2, 2.5);
  std::string path = TempPath("adgraph_el.txt");
  ASSERT_TRUE(WriteEdgeList(coo, path).ok());
  auto back = ReadEdgeList(path).value();
  EXPECT_EQ(back.num_vertices, 4u);
  EXPECT_EQ(back.src, coo.src);
  EXPECT_EQ(back.dst, coo.dst);
  EXPECT_EQ(back.weights, coo.weights);
  std::remove(path.c_str());
}

TEST(IoTest, EdgeListSkipsComments) {
  std::string path = TempPath("adgraph_el2.txt");
  {
    std::ofstream out(path);
    out << "# comment\n% other comment\n1 2\n\n0 1 3.5\n";
  }
  auto coo = ReadEdgeList(path).value();
  EXPECT_EQ(coo.num_edges(), 2u);
  EXPECT_EQ(coo.num_vertices, 3u);
  ASSERT_TRUE(coo.has_weights());
  EXPECT_EQ(coo.weights[0], 1.0) << "unweighted line backfilled";
  EXPECT_EQ(coo.weights[1], 3.5);
  std::remove(path.c_str());
}

TEST(IoTest, EdgeListMissingFileFails) {
  EXPECT_FALSE(ReadEdgeList("/nonexistent/path/graph.txt").ok());
}

TEST(IoTest, MatrixMarketRoundTrip) {
  CooGraph coo;
  coo.num_vertices = 3;
  coo.AddEdge(0, 1, 0.5);
  coo.AddEdge(2, 2, 1.5);
  std::string path = TempPath("adgraph_mm.mtx");
  ASSERT_TRUE(WriteMatrixMarket(coo, path).ok());
  auto back = ReadMatrixMarket(path).value();
  EXPECT_EQ(back.num_vertices, 3u);
  EXPECT_EQ(back.src, coo.src);
  EXPECT_EQ(back.dst, coo.dst);
  EXPECT_EQ(back.weights, coo.weights);
  std::remove(path.c_str());
}

TEST(IoTest, MatrixMarketSymmetricMirrors) {
  std::string path = TempPath("adgraph_mm2.mtx");
  {
    std::ofstream out(path);
    out << "%%MatrixMarket matrix coordinate pattern symmetric\n"
        << "% a comment\n"
        << "3 3 2\n"
        << "2 1\n"
        << "3 3\n";
  }
  auto coo = ReadMatrixMarket(path).value();
  // (2,1) mirrored to (1,2); diagonal (3,3) not mirrored.
  EXPECT_EQ(coo.num_edges(), 3u);
  EXPECT_FALSE(coo.has_weights());
  std::remove(path.c_str());
}

TEST(IoTest, MatrixMarketRejectsGarbage) {
  std::string path = TempPath("adgraph_mm3.mtx");
  {
    std::ofstream out(path);
    out << "not a matrix market file\n";
  }
  EXPECT_FALSE(ReadMatrixMarket(path).ok());
  std::remove(path.c_str());
}

// Regression: corrupt input used to be silently mis-read — vertex ids
// beyond the 32-bit vid_t range were truncated by the cast and trailing
// junk on edge lines was dropped.  All of these must now fail with
// kInvalidArgument.

Result<CooGraph> ReadEdgeListText(const char* name, const std::string& text) {
  std::string path = TempPath(name);
  {
    std::ofstream out(path);
    out << text;
  }
  auto result = ReadEdgeList(path);
  std::remove(path.c_str());
  return result;
}

Result<CooGraph> ReadMtxText(const char* name, const std::string& text) {
  std::string path = TempPath(name);
  {
    std::ofstream out(path);
    out << text;
  }
  auto result = ReadMatrixMarket(path);
  std::remove(path.c_str());
  return result;
}

TEST(IoTest, EdgeListRejectsMalformedLine) {
  auto result = ReadEdgeListText("adgraph_bad1.txt", "0 1\nfoo bar\n");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument()) << result.status().ToString();
}

TEST(IoTest, EdgeListRejectsTrailingJunk) {
  auto result = ReadEdgeListText("adgraph_bad2.txt", "0 1 junk\n");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  // Junk *after* a valid weight is rejected too.
  auto result2 = ReadEdgeListText("adgraph_bad3.txt", "0 1 2.5 extra\n");
  ASSERT_FALSE(result2.ok());
  EXPECT_TRUE(result2.status().IsInvalidArgument());
}

TEST(IoTest, EdgeListRejectsOutOfRangeVertexId) {
  // 2^33: far beyond vid_t; the old loader wrapped it to a small id.
  auto result = ReadEdgeListText("adgraph_bad4.txt", "0 8589934592\n");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(IoTest, MatrixMarketRejectsMalformedSizeLine) {
  auto result = ReadMtxText("adgraph_bad5.mtx",
                            "%%MatrixMarket matrix coordinate pattern "
                            "general\n3 three 2\n1 2\n2 3\n");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(IoTest, MatrixMarketRejectsTruncatedEntries) {
  auto result = ReadMtxText("adgraph_bad6.mtx",
                            "%%MatrixMarket matrix coordinate pattern "
                            "general\n3 3 2\n1 2\n");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(IoTest, MatrixMarketRejectsOutOfBoundsIndex) {
  auto result = ReadMtxText("adgraph_bad7.mtx",
                            "%%MatrixMarket matrix coordinate pattern "
                            "general\n3 3 1\n4 1\n");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  auto zero = ReadMtxText("adgraph_bad8.mtx",
                          "%%MatrixMarket matrix coordinate pattern "
                          "general\n3 3 1\n0 1\n");
  ASSERT_FALSE(zero.ok());
  EXPECT_TRUE(zero.status().IsInvalidArgument());
}

TEST(IoTest, MatrixMarketRejectsOversizedDimensions) {
  auto result = ReadMtxText("adgraph_bad9.mtx",
                            "%%MatrixMarket matrix coordinate pattern "
                            "general\n8589934592 2 1\n1 2\n");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(IoTest, BinaryCsrRoundTripsExactly) {
  auto coo = GenerateRmat({.scale = 9, .edge_factor = 6, .seed = 17}).value();
  AttachRandomWeights(&coo, 0.0, 1.0, 18);
  auto g = CsrGraph::FromCoo(coo).value();
  std::string path = TempPath("adgraph_bin.csr");
  ASSERT_TRUE(WriteBinaryCsr(g, path).ok());
  auto back = ReadBinaryCsr(path).value();
  EXPECT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_EQ(back.row_offsets(), g.row_offsets());
  EXPECT_EQ(back.col_indices(), g.col_indices());
  EXPECT_EQ(back.weights(), g.weights());
  std::remove(path.c_str());
}

TEST(IoTest, BinaryCsrRejectsWrongMagic) {
  std::string path = TempPath("adgraph_bad.csr");
  {
    std::ofstream out(path, std::ios::binary);
    out << "garbage bytes here";
  }
  EXPECT_FALSE(ReadBinaryCsr(path).ok());
  std::remove(path.c_str());
}

// Synthetic overflow: a well-formed header whose section counts claim
// orders of magnitude more data than the file holds.  Both loaders must
// bounds-check the declared counts against the file size *before* sizing
// any allocation — the old path handed the count straight to resize() and
// died attempting a multi-terabyte vector.

void WriteBinaryCsrHeader(std::ofstream& out, vid_t num_vertices) {
  const uint64_t magic = 0x4852474441ull;  // "ADGRH"
  const uint32_t version = 2;
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  out.write(reinterpret_cast<const char*>(&num_vertices),
            sizeof(num_vertices));
}

TEST(IoTest, BinaryCsrRejectsHugeDeclaredCountsWithoutAllocating) {
  std::string path = TempPath("adgraph_huge.csr");
  {
    std::ofstream out(path, std::ios::binary);
    WriteBinaryCsrHeader(out, 0xFFFFFFFFu);
    // row_offsets section claiming 2^61 entries (16 EiB) with no payload.
    const uint64_t huge_count = 1ull << 61;
    out.write(reinterpret_cast<const char*>(&huge_count),
              sizeof(huge_count));
  }
  auto read = ReadBinaryCsr(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIOError)
      << read.status().ToString();
  auto mapped = MappedCsr::Open(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kIOError)
      << mapped.status().ToString();
  std::remove(path.c_str());
}

TEST(IoTest, BinaryCsrRejectsOverflowingEdgeCount) {
  // Structurally complete tiny file whose final row offset claims 2^40
  // edges: the col_indices section cannot back that claim, and neither
  // loader may size a buffer from it.
  std::string path = TempPath("adgraph_overflow.csr");
  {
    std::ofstream out(path, std::ios::binary);
    WriteBinaryCsrHeader(out, 1);
    const eid_t offsets[2] = {0, 1ull << 40};
    const uint64_t row_count = 2;
    const uint64_t empty = 0;
    out.write(reinterpret_cast<const char*>(&row_count), sizeof(row_count));
    out.write(reinterpret_cast<const char*>(offsets), sizeof(offsets));
    out.write(reinterpret_cast<const char*>(&empty), sizeof(empty));  // w
    out.write(reinterpret_cast<const char*>(&empty), sizeof(empty));  // col
  }
  EXPECT_FALSE(ReadBinaryCsr(path).ok());
  auto mapped = MappedCsr::Open(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kIOError)
      << mapped.status().ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace adgraph::graph
