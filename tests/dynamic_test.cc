// Dynamic-graph tests (DESIGN.md §2.12): DeltaGraph mutation semantics,
// randomized materialization/fingerprint equivalence against a shadow
// rebuild, versioned-residency staleness (the regression the epoch key
// fixes), and incremental recompute agreement with full recompute.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "core/api.h"
#include "core/residency.h"
#include "graph/builder.h"
#include "graph/csr.h"
#include "graph/datasets.h"
#include "graph/delta.h"
#include "graph/generate.h"
#include "serve/graph_cache.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"

namespace adgraph {
namespace {

using graph::CsrGraph;
using graph::DeltaGraph;
using graph::EdgeUpdate;
using graph::vid_t;
using graph::weight_t;

CsrGraph SmallGraph() {
  graph::GraphBuilder b(6);
  b.AddEdge(0, 1).AddEdge(0, 2).AddEdge(1, 3).AddEdge(2, 3).AddEdge(3, 4);
  return b.Build().value();
}

// ------------------------------------------------------- mutation semantics

TEST(DeltaGraphTest, AddRemoveVersionAndEdgeCount) {
  auto delta = DeltaGraph::Create(SmallGraph()).value();
  EXPECT_EQ(delta.version(), 0u);
  EXPECT_EQ(delta.num_edges(), 5u);

  EXPECT_TRUE(delta.AddEdge(4, 5).value());
  EXPECT_EQ(delta.version(), 1u);
  EXPECT_EQ(delta.num_edges(), 6u);

  EXPECT_TRUE(delta.RemoveEdge(0, 1).value());
  EXPECT_EQ(delta.version(), 2u);
  EXPECT_EQ(delta.num_edges(), 5u);

  // Deleting a non-live edge is a no-op: no version bump.
  EXPECT_FALSE(delta.RemoveEdge(0, 1).value());
  EXPECT_EQ(delta.version(), 2u);
}

TEST(DeltaGraphTest, DuplicateInsertIsKeepFirstNoOp) {
  auto delta = DeltaGraph::Create(SmallGraph()).value();
  // (0,1) is live in the base: re-inserting must not apply.
  EXPECT_FALSE(delta.AddEdge(0, 1).value());
  EXPECT_EQ(delta.version(), 0u);
  // Same for a pending insert.
  EXPECT_TRUE(delta.AddEdge(5, 0).value());
  EXPECT_FALSE(delta.AddEdge(5, 0).value());
  EXPECT_EQ(delta.version(), 1u);
}

TEST(DeltaGraphTest, SelfLoopsAreLegal) {
  auto delta = DeltaGraph::Create(SmallGraph()).value();
  EXPECT_TRUE(delta.AddEdge(2, 2).value());
  auto m = delta.Materialize().value();
  auto n2 = m.neighbors(2);
  EXPECT_TRUE(std::find(n2.begin(), n2.end(), 2u) != n2.end());
}

TEST(DeltaGraphTest, OutOfRangeVertexIsRejected) {
  auto delta = DeltaGraph::Create(SmallGraph()).value();
  EXPECT_FALSE(delta.AddEdge(0, 6).ok());
  EXPECT_FALSE(delta.RemoveEdge(6, 0).ok());
  EXPECT_EQ(delta.version(), 0u) << "rejected mutations must not count";
}

TEST(DeltaGraphTest, DeleteThenReinsertResurrectsBaseEdge) {
  graph::GraphBuilder b(3);
  b.AddEdge(0, 1, 2.5).AddEdge(1, 2, 7.0);
  auto delta = DeltaGraph::Create(b.Build().value()).value();
  EXPECT_TRUE(delta.RemoveEdge(0, 1).value());
  EXPECT_TRUE(delta.AddEdge(0, 1, 9.0).value());
  auto m = delta.Materialize().value();
  EXPECT_EQ(m.num_edges(), 2u);
  EXPECT_DOUBLE_EQ(m.edge_weights(0)[0], 9.0)
      << "a resurrected edge carries the insert's weight";
}

TEST(DeltaGraphTest, ApplyBatchCountsOnlyEffectiveUpdates) {
  auto delta = DeltaGraph::Create(SmallGraph()).value();
  std::vector<EdgeUpdate> batch = {
      {4, 5, 1, true},   // applies
      {4, 5, 1, true},   // duplicate: no-op
      {0, 1, 1, false},  // applies
      {5, 5, 1, false},  // not live: no-op
  };
  EXPECT_EQ(delta.Apply(batch).value(), 2u);
  EXPECT_EQ(delta.version(), 2u);
}

TEST(DeltaGraphTest, ApplyStopsAtFirstOutOfRangeId) {
  auto delta = DeltaGraph::Create(SmallGraph()).value();
  std::vector<EdgeUpdate> batch = {
      {4, 5, 1, true},
      {0, 99, 1, true},  // out of range: Apply fails here
      {1, 4, 1, true},   // never reached
  };
  EXPECT_FALSE(delta.Apply(batch).ok());
  EXPECT_EQ(delta.version(), 1u) << "updates before the offender are kept";
  EXPECT_EQ(delta.num_edges(), 6u);
}

TEST(DeltaGraphTest, CompactKeepsVersionFamilyAndContent) {
  auto delta = DeltaGraph::Create(SmallGraph()).value();
  ASSERT_TRUE(delta.AddEdge(4, 5).value());
  ASSERT_TRUE(delta.RemoveEdge(0, 2).value());
  const uint64_t family = delta.family_fingerprint();
  const uint64_t version = delta.version();
  auto before = delta.Materialize().value();

  ASSERT_TRUE(delta.Compact().ok());
  EXPECT_EQ(delta.pending_updates(), 0u);
  EXPECT_EQ(delta.family_fingerprint(), family);
  EXPECT_EQ(delta.version(), version);
  auto after = delta.Materialize().value();
  EXPECT_EQ(before.row_offsets(), after.row_offsets());
  EXPECT_EQ(before.col_indices(), after.col_indices());
  EXPECT_EQ(before.ContentFingerprint(), after.ContentFingerprint());
}

TEST(DeltaGraphTest, UpdatesSinceAndTrimHistory) {
  auto delta = DeltaGraph::Create(SmallGraph()).value();
  ASSERT_TRUE(delta.AddEdge(4, 5).value());
  ASSERT_TRUE(delta.AddEdge(5, 4).value());
  ASSERT_TRUE(delta.RemoveEdge(0, 1).value());

  auto all = delta.UpdatesSince(0);
  ASSERT_TRUE(all.has_value());
  ASSERT_EQ(all->size(), 3u);
  EXPECT_EQ((*all)[0].u, 4u);
  EXPECT_FALSE((*all)[2].insert);

  auto tail = delta.UpdatesSince(2);
  ASSERT_TRUE(tail.has_value());
  ASSERT_EQ(tail->size(), 1u);
  EXPECT_EQ(tail->front().u, 0u);

  EXPECT_TRUE(delta.UpdatesSince(3).has_value())
      << "empty suffix is known, not trimmed";

  delta.TrimHistory(1);
  EXPECT_FALSE(delta.UpdatesSince(0).has_value()) << "trimmed range is gone";
  EXPECT_TRUE(delta.UpdatesSince(2).has_value());
}

TEST(DeltaGraphTest, CreateRejectsNonNormalFormBase) {
  // A multigraph build (duplicates kept) is not in normal form.
  graph::CooGraph coo;
  coo.num_vertices = 3;
  coo.AddEdge(0, 1);
  coo.AddEdge(0, 1);
  graph::CsrBuildOptions keep_dups;
  keep_dups.remove_duplicates = false;
  auto base = CsrGraph::FromCoo(coo, keep_dups).value();
  EXPECT_FALSE(DeltaGraph::Create(std::move(base)).ok());
}

// ------------------------------------------------ shared normalization policy

TEST(NormalizationPolicyTest, BuilderKeepsFirstWeightAndSelfLoops) {
  graph::GraphBuilder b(3);
  b.AddEdge(0, 1, 5.0).AddEdge(0, 1, 9.0).AddEdge(1, 1, 2.0);
  auto g = b.Build().value();
  EXPECT_EQ(g.num_edges(), 2u) << "duplicates collapse";
  EXPECT_DOUBLE_EQ(g.edge_weights(0)[0], 5.0) << "first weight wins";
  auto n1 = g.neighbors(1);
  ASSERT_EQ(n1.size(), 1u);
  EXPECT_EQ(n1[0], 1u) << "self loops are kept";
}

TEST(NormalizationPolicyTest, GeneratorsEmitNormalFormDeltaBasesAccept) {
  // The policy satellite: a raw generator COO normalized under the shared
  // default policy (keep-first duplicates, self loops kept) is in normal
  // form, so DeltaGraph::Create accepts it directly.
  auto rmat = graph::GenerateRmat({.scale = 8, .edge_factor = 8, .seed = 3})
                  .value();
  auto g = CsrGraph::FromCoo(rmat, graph::GraphBuilder::DefaultBuildOptions())
               .value();
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    auto n = g.neighbors(v);
    EXPECT_TRUE(std::is_sorted(n.begin(), n.end()));
    EXPECT_TRUE(std::adjacent_find(n.begin(), n.end()) == n.end())
        << "duplicate neighbor at vertex " << v;
  }
  EXPECT_TRUE(DeltaGraph::Create(std::move(g)).ok());
}

// ---------------------------------------------------- randomized equivalence

/// Shadow model of the live edge set, rebuilt from scratch through the
/// normal CSR construction path for comparison.
using ShadowEdges = std::map<std::pair<vid_t, vid_t>, weight_t>;

CsrGraph RebuildFromShadow(vid_t n, const ShadowEdges& edges, bool weighted) {
  graph::CooGraph coo;
  coo.num_vertices = n;
  for (const auto& [uv, w] : edges) {
    if (weighted) {
      coo.AddEdge(uv.first, uv.second, w);
    } else {
      coo.AddEdge(uv.first, uv.second);
    }
  }
  return CsrGraph::FromCoo(coo, graph::GraphBuilder::DefaultBuildOptions())
      .value();
}

void ExpectMatchesShadow(const DeltaGraph& delta, vid_t n,
                         const ShadowEdges& shadow, bool weighted,
                         const char* where) {
  auto m = delta.Materialize().value();
  auto rebuilt = RebuildFromShadow(n, shadow, weighted);
  ASSERT_EQ(m.row_offsets(), rebuilt.row_offsets()) << where;
  ASSERT_EQ(m.col_indices(), rebuilt.col_indices()) << where;
  if (weighted) {
    ASSERT_EQ(m.weights(), rebuilt.weights()) << where;
  }
  ASSERT_EQ(m.ContentFingerprint(), rebuilt.ContentFingerprint())
      << where << ": fingerprint must be byte-identical to a from-scratch "
      << "rebuild";
  ASSERT_EQ(delta.num_edges(), rebuilt.num_edges()) << where;
}

/// 200 random insert/delete/compact steps against `base`, checking the
/// materialized graph and its fingerprint against the shadow rebuild at
/// every compaction and every 50th step.
void FuzzMutations(CsrGraph base, uint64_t seed) {
  const vid_t n = base.num_vertices();
  const bool weighted = base.has_weights();
  ShadowEdges shadow;
  for (vid_t u = 0; u < n; ++u) {
    auto neigh = base.neighbors(u);
    for (size_t i = 0; i < neigh.size(); ++i) {
      shadow[{u, neigh[i]}] = weighted ? base.edge_weights(u)[i] : 1;
    }
  }
  auto delta = DeltaGraph::Create(std::move(base)).value();
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<vid_t> pick(0, n - 1);
  uint64_t expected_version = 0;
  for (int step = 1; step <= 200; ++step) {
    const uint32_t roll = rng() % 100;
    if (roll < 55) {  // random insert (may duplicate)
      vid_t u = pick(rng), v = pick(rng);
      weight_t w = static_cast<weight_t>(1 + rng() % 7);
      bool applied = delta.AddEdge(u, v, w).value();
      EXPECT_EQ(applied, shadow.emplace(std::make_pair(u, v), w).second);
      if (applied) ++expected_version;
    } else if (roll < 75 && !shadow.empty()) {  // delete a live edge
      auto it = shadow.begin();
      std::advance(it, static_cast<long>(rng() % shadow.size()));
      auto [u, v] = it->first;
      EXPECT_TRUE(delta.RemoveEdge(u, v).value());
      shadow.erase(it);
      ++expected_version;
    } else if (roll < 90) {  // delete a random pair (usually a no-op)
      vid_t u = pick(rng), v = pick(rng);
      bool applied = delta.RemoveEdge(u, v).value();
      EXPECT_EQ(applied, shadow.erase({u, v}) > 0);
      if (applied) ++expected_version;
    } else {  // compact
      ASSERT_TRUE(delta.Compact().ok());
      ASSERT_NO_FATAL_FAILURE(ExpectMatchesShadow(
          delta, n, shadow, weighted, "after compact"));
    }
    ASSERT_EQ(delta.version(), expected_version) << "step " << step;
    if (step % 50 == 0) {
      ASSERT_NO_FATAL_FAILURE(
          ExpectMatchesShadow(delta, n, shadow, weighted, "periodic check"));
    }
  }
  ASSERT_NO_FATAL_FAILURE(
      ExpectMatchesShadow(delta, n, shadow, weighted, "final state"));
}

CsrGraph ProxyGraph(const char* name, double extra_divisor) {
  auto spec = graph::FindDataset(name).value();
  return graph::Materialize(spec, extra_divisor).value();
}

TEST(DeltaGraphFuzzTest, WebStanfordProxy) {
  FuzzMutations(ProxyGraph("web-Stanford", 64.0), 0xDE17A1);
}

TEST(DeltaGraphFuzzTest, WebGoogleProxy) {
  FuzzMutations(ProxyGraph("web-Google", 128.0), 0xDE17A2);
}

TEST(DeltaGraphFuzzTest, CitPatentsProxy) {
  FuzzMutations(ProxyGraph("cit-Patents", 512.0), 0xDE17A3);
}

TEST(DeltaGraphFuzzTest, WeightedBase) {
  auto rmat = graph::GenerateRmat({.scale = 7, .edge_factor = 6, .seed = 11})
                  .value();
  auto g = CsrGraph::FromCoo(rmat, graph::GraphBuilder::DefaultBuildOptions())
               .value()
               .WithUniformWeights(1.0);
  FuzzMutations(std::move(g), 0xDE17A4);
}

// ------------------------------------------------- versioned residency keys

std::shared_ptr<const CsrGraph> Snap(DeltaGraph& delta) {
  return delta.Snapshot().value();
}

// The stale-residency regression (the bug this PR fixes): before the epoch
// joined the cache key, a mutated graph's snapshot — same family
// fingerprint, new content — was *served from the stale resident copy*.
TEST(StaleResidencyTest, MutatedSnapshotMissesInsteadOfServingStale) {
  vgpu::Device device(vgpu::A100Config());
  serve::GraphCache cache(&device, {});
  auto delta = DeltaGraph::Create(SmallGraph()).value();

  auto snap0 = Snap(delta);
  {
    auto h = cache.Acquire(&device, *snap0, core::GraphVariant::kAsIs);
    ASSERT_TRUE(h.ok());
  }
  ASSERT_EQ(cache.stats().misses, 1u);

  ASSERT_TRUE(delta.AddEdge(4, 5).value());
  auto snap1 = Snap(delta);
  // The trap: both snapshots fingerprint to the family id.  Only the epoch
  // tells them apart.
  ASSERT_EQ(snap0->ContentFingerprint(), snap1->ContentFingerprint());
  ASSERT_LT(snap0->mutation_epoch(), snap1->mutation_epoch());

  auto h = cache.Acquire(&device, *snap1, core::GraphVariant::kAsIs);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(cache.stats().hits, 0u)
      << "a content-only cache key would serve the stale resident copy here";
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(StaleResidencyTest, InvalidateDropsOldEpochsKeepsCurrent) {
  vgpu::Device device(vgpu::A100Config());
  serve::GraphCache cache(&device, {});
  auto delta = DeltaGraph::Create(SmallGraph()).value();

  auto snap0 = Snap(delta);
  { auto h = cache.Acquire(&device, *snap0, core::GraphVariant::kAsIs);
    ASSERT_TRUE(h.ok()); }
  ASSERT_TRUE(delta.AddEdge(4, 5).value());
  auto snap1 = Snap(delta);
  { auto h = cache.Acquire(&device, *snap1, core::GraphVariant::kAsIs);
    ASSERT_TRUE(h.ok()); }
  ASSERT_EQ(cache.num_entries(), 2u);

  // Drop epochs older than the current version; the fresh entry survives.
  EXPECT_EQ(cache.Invalidate(delta.family_fingerprint(), delta.version()),
            1u);
  EXPECT_EQ(cache.stats().stale_invalidated, 1u);
  EXPECT_EQ(cache.num_entries(), 1u);
  EXPECT_TRUE(cache.PinIfResident(*snap1, core::GraphVariant::kAsIs)
                  .from_cache());
  EXPECT_FALSE(cache.PinIfResident(*snap0, core::GraphVariant::kAsIs)
                   .from_cache());

  // A family-wide invalidate clears the rest.
  EXPECT_EQ(cache.Invalidate(delta.family_fingerprint()), 1u);
  EXPECT_EQ(cache.num_entries(), 0u);
}

TEST(StaleResidencyTest, PinnedEntryIsDoomedNotServedThenErasedOnUnpin) {
  vgpu::Device device(vgpu::A100Config());
  serve::GraphCache cache(&device, {});
  auto delta = DeltaGraph::Create(SmallGraph()).value();
  auto snap0 = Snap(delta);

  auto pin = cache.Acquire(&device, *snap0, core::GraphVariant::kAsIs);
  ASSERT_TRUE(pin.ok());
  EXPECT_EQ(cache.Invalidate(delta.family_fingerprint()), 1u)
      << "a pinned entry is doomed, and still counts";
  // Doomed: the in-flight reader keeps its arrays, but no new job may be
  // served from the stale copy.
  EXPECT_FALSE(cache.PinIfResident(*snap0, core::GraphVariant::kAsIs)
                   .from_cache());
  EXPECT_EQ(cache.num_entries(), 1u) << "erase waits for the last unpin";

  pin = core::ResidentCsr();  // drop the pin
  EXPECT_EQ(cache.num_entries(), 0u);
}

TEST(StaleResidencyTest, StaticGraphsKeepContentAddressedSharing) {
  // Epoch 0 graphs (every static load path) must still share residency by
  // content, exactly as before this PR.
  vgpu::Device device(vgpu::A100Config());
  serve::GraphCache cache(&device, {});
  auto a = SmallGraph();
  auto b = SmallGraph();
  { auto h = cache.Acquire(&device, a, core::GraphVariant::kAsIs);
    ASSERT_TRUE(h.ok()); }
  { auto h = cache.Acquire(&device, b, core::GraphVariant::kAsIs);
    ASSERT_TRUE(h.ok()); }
  EXPECT_EQ(cache.stats().hits, 1u);
}

// ---------------------------------------------------- incremental recompute

struct IncrementalFixture {
  vgpu::Device device{vgpu::A100Config()};
  DeltaGraph delta;
  core::AlgoResult previous;
  uint64_t previous_version = 0;

  explicit IncrementalFixture(core::Algo algo, const core::Params& params,
                              uint32_t scale = 9) {
    auto coo =
        graph::GenerateRmat({.scale = scale, .edge_factor = 8, .seed = 5})
            .value();
    delta = DeltaGraph::Create(
                CsrGraph::FromCoo(coo,
                                  graph::GraphBuilder::DefaultBuildOptions())
                    .value())
                .value();
    auto snap = delta.Snapshot().value();
    previous =
        core::Run(&device, {algo}, *snap, params).value();
    previous_version = delta.version();
  }

  /// Applies `count` deterministic inserts that are absent from the graph.
  uint64_t InsertNovelEdges(int count, uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<vid_t> pick(0, delta.num_vertices() - 1);
    uint64_t applied = 0;
    while (applied < static_cast<uint64_t>(count)) {
      if (delta.AddEdge(pick(rng), pick(rng)).value()) ++applied;
    }
    return applied;
  }
};

/// core::Run on the delta's current snapshot, warm-started from `previous`
/// (computed at `previous_version`) plus the updates since; `info`
/// receives what the warm start did.
Result<core::AlgoResult> RunWarm(vgpu::Device* device, core::Algo algo,
                                 DeltaGraph& delta, const core::Params& params,
                                 const core::AlgoResult& previous,
                                 uint64_t previous_version,
                                 core::IncrementalInfo* info,
                                 double full_threshold = 0.01,
                                 core::GraphResidency* residency = nullptr) {
  core::WarmStart warm;
  warm.previous = std::make_shared<const core::AlgoResult>(previous);
  warm.updates = delta.UpdatesSince(previous_version);
  warm.full_threshold = full_threshold;
  ADGRAPH_ASSIGN_OR_RETURN(auto snapshot, delta.Snapshot());
  core::RunReport report;
  auto result = core::Run(device, {algo, {}, &warm}, *snapshot, params,
                          residency, &report);
  *info = report.incremental;
  return result;
}

TEST(IncrementalTest, BfsLevelsMatchFullRecomputeBitwise) {
  core::BfsOptions options;
  options.source = 1;
  IncrementalFixture fx(core::Algo::kBfs, options);
  fx.InsertNovelEdges(24, 77);

  core::IncrementalInfo info;
  auto inc = RunWarm(&fx.device, core::Algo::kBfs, fx.delta, options,
                     fx.previous, fx.previous_version, &info)
                 .value();
  EXPECT_TRUE(info.incremental) << info.fallback_reason;
  EXPECT_GT(info.seed_vertices, 0u);

  auto full = core::Run(&fx.device, {core::Algo::kBfs},
                        *fx.delta.Snapshot().value(), options)
                  .value();
  const auto& inc_bfs = std::get<core::BfsResult>(inc);
  const auto& full_bfs = std::get<core::BfsResult>(full);
  EXPECT_EQ(inc_bfs.levels, full_bfs.levels);
  EXPECT_EQ(inc_bfs.depth, full_bfs.depth);
  EXPECT_EQ(inc_bfs.vertices_visited, full_bfs.vertices_visited);
}

TEST(IncrementalTest, CcLabelsMatchFullRecomputeBitwise) {
  core::CcOptions options;
  IncrementalFixture fx(core::Algo::kConnectedComponents, options);
  fx.InsertNovelEdges(24, 78);

  core::IncrementalInfo info;
  auto inc = RunWarm(&fx.device, core::Algo::kConnectedComponents, fx.delta,
                     options, fx.previous, fx.previous_version, &info)
                 .value();
  EXPECT_TRUE(info.incremental) << info.fallback_reason;

  auto full = core::Run(&fx.device, {core::Algo::kConnectedComponents},
                        *fx.delta.Snapshot().value(), options)
                  .value();
  const auto& inc_cc = std::get<core::CcResult>(inc);
  const auto& full_cc = std::get<core::CcResult>(full);
  EXPECT_EQ(inc_cc.labels, full_cc.labels);
  EXPECT_EQ(inc_cc.num_components, full_cc.num_components);
}

TEST(IncrementalTest, CcBridgeMergingLargeComponentsRunsDenseRounds) {
  // Two disjoint random graphs of 512 vertices each: one bridging insert
  // relabels the whole second giant component, so the warm start's
  // frontier passes n/16 and the engine CC driver switches to dense rounds.
  constexpr vid_t kHalf = 512;
  graph::CooGraph coo;
  coo.num_vertices = 2 * kHalf;
  for (vid_t half = 0; half < 2; ++half) {
    auto part =
        graph::GenerateErdosRenyi(kHalf, 8 * kHalf, 91 + half).value();
    for (graph::eid_t e = 0; e < part.num_edges(); ++e) {
      coo.AddEdge(part.src[e] + half * kHalf, part.dst[e] + half * kHalf);
    }
  }
  DeltaGraph delta =
      DeltaGraph::Create(
          CsrGraph::FromCoo(coo, graph::GraphBuilder::DefaultBuildOptions())
              .value())
          .value();
  vgpu::Device device(vgpu::A100Config());
  const core::CcOptions options;
  const auto previous = core::Run<core::Algo::kConnectedComponents>(
                            &device, *delta.Snapshot().value(), options)
                            .value();
  const uint64_t previous_version = delta.version();
  // Bridge the two largest components through their smallest members.
  std::map<vid_t, uint64_t> sizes;
  for (vid_t label : previous.labels) sizes[label] += 1;
  std::vector<std::pair<uint64_t, vid_t>> by_size;
  for (const auto& [label, size] : sizes) by_size.push_back({size, label});
  std::sort(by_size.rbegin(), by_size.rend());
  ASSERT_GE(by_size.size(), 2u);
  ASSERT_GT(by_size[1].first, kHalf / 2) << "both halves must be giant";
  ASSERT_TRUE(delta.AddEdge(by_size[0].second, by_size[1].second).value());

  vgpu::Device warm_device(vgpu::A100Config());
  core::IncrementalInfo info;
  auto inc = RunWarm(&warm_device, core::Algo::kConnectedComponents, delta,
                     options, previous, previous_version, &info)
                 .value();
  EXPECT_TRUE(info.incremental) << info.fallback_reason;
  EXPECT_EQ(info.seed_vertices, 2u);
  const auto& log = warm_device.kernel_log();
  EXPECT_TRUE(std::any_of(log.begin(), log.end(), [](const auto& k) {
    return k.kernel_name == "cc_propagate_dense";
  })) << "the merge's frontier must take the engine's dense rounds";

  auto full = core::Run<core::Algo::kConnectedComponents>(
                  &device, *delta.Snapshot().value(), options)
                  .value();
  const auto& inc_cc = std::get<core::CcResult>(inc);
  EXPECT_EQ(inc_cc.labels, full.labels);
  EXPECT_EQ(inc_cc.num_components, full.num_components);
  EXPECT_EQ(inc_cc.num_components + 1, previous.num_components);
}

TEST(IncrementalTest, BfsShortcutIntoLargeComponentRunsDenseRounds) {
  // A 512-vertex chain from the source ends in a 512-vertex random graph.
  // One insert from the source into that graph lowers every level past
  // the chain, so the re-expansion's frontier passes n/16 and the warm
  // BFS takes the engine's dense rounds.
  constexpr vid_t kHalf = 512;
  graph::CooGraph coo;
  coo.num_vertices = 2 * kHalf;
  for (vid_t v = 0; v < kHalf; ++v) coo.AddEdge(v, v + 1);
  auto part = graph::GenerateErdosRenyi(kHalf, 8 * kHalf, 93).value();
  for (graph::eid_t e = 0; e < part.num_edges(); ++e) {
    coo.AddEdge(part.src[e] + kHalf, part.dst[e] + kHalf);
  }
  DeltaGraph delta =
      DeltaGraph::Create(
          CsrGraph::FromCoo(coo, graph::GraphBuilder::DefaultBuildOptions())
              .value())
          .value();
  vgpu::Device device(vgpu::A100Config());
  const core::BfsOptions options;
  const auto previous =
      core::Run<core::Algo::kBfs>(&device, *delta.Snapshot().value(), options)
          .value();
  const uint64_t previous_version = delta.version();
  ASSERT_EQ(previous.levels[kHalf], kHalf);
  ASSERT_TRUE(delta.AddEdge(0, kHalf).value());

  vgpu::Device warm_device(vgpu::A100Config());
  core::IncrementalInfo info;
  auto inc = RunWarm(&warm_device, core::Algo::kBfs, delta, options,
                     previous, previous_version, &info)
                 .value();
  EXPECT_TRUE(info.incremental) << info.fallback_reason;
  EXPECT_EQ(info.seed_vertices, 1u);
  const auto& log = warm_device.kernel_log();
  EXPECT_TRUE(std::any_of(log.begin(), log.end(), [](const auto& k) {
    return k.kernel_name == "bfs_delta_relax_dense";
  })) << "the shortcut's frontier must take the engine's dense rounds";

  auto full = core::Run<core::Algo::kBfs>(&device, *delta.Snapshot().value(),
                                          options)
                  .value();
  const auto& inc_bfs = std::get<core::BfsResult>(inc);
  EXPECT_EQ(inc_bfs.levels, full.levels);
  EXPECT_EQ(inc_bfs.depth, full.depth);
  EXPECT_EQ(inc_bfs.vertices_visited, full.vertices_visited);
  EXPECT_LT(inc_bfs.depth, previous.depth);
}

TEST(IncrementalTest, PageRankWarmStartAgreesWithinTolerance) {
  core::PageRankOptions options;
  options.max_iterations = 200;
  options.tolerance = 1e-10;
  IncrementalFixture fx(core::Algo::kPageRank, options);
  fx.InsertNovelEdges(16, 79);
  ASSERT_TRUE(fx.delta.RemoveEdge(0, fx.delta.num_vertices() - 1).ok())
      << "PageRank's delta path must also take deletions";

  core::IncrementalInfo info;
  auto inc = RunWarm(&fx.device, core::Algo::kPageRank, fx.delta, options,
                     fx.previous, fx.previous_version, &info)
                 .value();
  EXPECT_TRUE(info.incremental) << info.fallback_reason;

  auto full = core::Run(&fx.device, {core::Algo::kPageRank},
                        *fx.delta.Snapshot().value(), options)
                  .value();
  const auto& inc_pr = std::get<core::PageRankResult>(inc);
  const auto& full_pr = std::get<core::PageRankResult>(full);
  ASSERT_EQ(inc_pr.ranks.size(), full_pr.ranks.size());
  for (size_t v = 0; v < full_pr.ranks.size(); ++v) {
    EXPECT_NEAR(inc_pr.ranks[v], full_pr.ranks[v], 1e-6) << "vertex " << v;
  }
  // The point of warm starting: fewer iterations than the cold run.
  EXPECT_LE(inc_pr.iterations, full_pr.iterations);
}

TEST(IncrementalTest, FallbackReasonsAreReported) {
  core::BfsOptions options;
  options.source = 0;
  IncrementalFixture fx(core::Algo::kBfs, options);
  fx.InsertNovelEdges(4, 80);

  // Delta over the threshold.
  {
    core::IncrementalInfo info;
    auto r = RunWarm(&fx.device, core::Algo::kBfs, fx.delta, options,
                     fx.previous, fx.previous_version, &info,
                     /*full_threshold=*/0.0);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(info.incremental);
    EXPECT_EQ(info.fallback_reason,
              "delta exceeds the full-recompute threshold");
  }
  // An update naming a vertex the graph does not have.
  {
    core::WarmStart warm;
    warm.previous = std::make_shared<const core::AlgoResult>(fx.previous);
    warm.updates = std::vector<EdgeUpdate>{{0, fx.delta.num_vertices()}};
    core::RunReport report;
    auto r = core::Run(&fx.device, {core::Algo::kBfs, {}, &warm},
                       *fx.delta.Snapshot().value(), options, nullptr,
                       &report);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(report.incremental.incremental);
    EXPECT_EQ(report.incremental.fallback_reason,
              "delta names vertices outside the graph");
  }
  // Trimmed history.
  {
    fx.delta.TrimHistory(0);
    core::IncrementalInfo info;
    auto r = RunWarm(&fx.device, core::Algo::kBfs, fx.delta, options,
                     fx.previous, fx.previous_version, &info);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(info.incremental);
    EXPECT_EQ(info.fallback_reason,
              "update history unavailable for the previous version");
  }
}

TEST(IncrementalTest, BfsDeletionFallsBackAndStillMatchesFull) {
  core::BfsOptions options;
  options.source = 0;
  IncrementalFixture fx(core::Algo::kBfs, options);
  fx.InsertNovelEdges(4, 81);
  // Delete one base edge: BFS re-expansion is insert-only, so this must
  // fall back — and the fallback result must equal the full recompute.
  auto snap = fx.delta.Snapshot().value();
  vid_t u = 0;
  while (snap->degree(u) == 0) ++u;
  ASSERT_TRUE(fx.delta.RemoveEdge(u, snap->neighbors(u)[0]).value());

  core::IncrementalInfo info;
  auto r = RunWarm(&fx.device, core::Algo::kBfs, fx.delta, options,
                   fx.previous, fx.previous_version, &info)
               .value();
  EXPECT_FALSE(info.incremental);
  EXPECT_EQ(info.fallback_reason,
            "deletion in delta (BFS re-expansion is insert-only)");
  auto full = core::Run(&fx.device, {core::Algo::kBfs},
                        *fx.delta.Snapshot().value(), options)
                  .value();
  EXPECT_EQ(std::get<core::BfsResult>(r).levels,
            std::get<core::BfsResult>(full).levels);
}

TEST(IncrementalTest, MismatchedPreviousResultFallsBack) {
  core::BfsOptions options;
  IncrementalFixture fx(core::Algo::kBfs, options);
  fx.InsertNovelEdges(2, 82);

  // Previous result from a different algorithm.
  core::IncrementalInfo info;
  core::AlgoResult wrong = core::CcResult{};
  auto r = RunWarm(&fx.device, core::Algo::kBfs, fx.delta, options, wrong,
                   fx.previous_version, &info);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(info.incremental);
  EXPECT_EQ(info.fallback_reason,
            "previous result is from a different algorithm");

  // Parents requested: levels-only maintenance can't produce them.
  core::BfsOptions with_parents = options;
  with_parents.compute_parents = true;
  core::IncrementalInfo parents_info;
  auto pr = RunWarm(&fx.device, core::Algo::kBfs, fx.delta, with_parents,
                    fx.previous, fx.previous_version, &parents_info);
  ASSERT_TRUE(pr.ok());
  EXPECT_FALSE(parents_info.incremental);
  EXPECT_EQ(parents_info.fallback_reason,
            "parents requested (no incremental maintenance)");
}

TEST(IncrementalTest, SnapshotFeedsVersionedResidency) {
  // End-to-end: incremental runs through the residency cache must never hit
  // an entry from a previous version.
  core::BfsOptions options;
  IncrementalFixture fx(core::Algo::kBfs, options);
  serve::GraphCache cache(&fx.device, {});

  auto snap0 = fx.delta.Snapshot().value();
  auto r0 = core::Run(&fx.device, {core::Algo::kBfs}, *snap0, options,
                      &cache);
  ASSERT_TRUE(r0.ok());
  const uint64_t misses_before = cache.stats().misses;

  fx.InsertNovelEdges(8, 83);
  core::IncrementalInfo info;
  auto r1 = RunWarm(&fx.device, core::Algo::kBfs, fx.delta, options,
                    fx.previous, fx.previous_version, &info,
                    /*full_threshold=*/0.01, &cache);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_TRUE(info.incremental) << info.fallback_reason;
  EXPECT_GT(cache.stats().misses, misses_before)
      << "the new version must upload fresh, not reuse the stale copy";
  auto full = core::Run(&fx.device, {core::Algo::kBfs},
                        *fx.delta.Snapshot().value(), options)
                  .value();
  EXPECT_EQ(std::get<core::BfsResult>(*r1).levels,
            std::get<core::BfsResult>(full).levels);
}

}  // namespace
}  // namespace adgraph
