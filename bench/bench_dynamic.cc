// Dynamic-graph benchmark (DESIGN.md §2.12): what mutation support costs
// and what incremental recompute buys on the paper's dataset proxies.
//
// Three measurements:
//  1. Incremental vs full recompute — PageRank warm-started from the
//     previous ranks against a cold run, at small edge-delta fractions.
//     This is the acceptance gate: on deltas <= 1% of the edge set the
//     incremental path must beat the full recompute's modeled device time.
//  2. Update throughput interleaved with queries — host-side updates/s
//     through DeltaGraph::Apply while incremental PageRank queries run
//     between batches.
//  3. Staleness vs throughput — how update throughput grows (and result
//     freshness decays) as more update batches are admitted between
//     recomputes, the knob a serving deployment actually tunes.
//
// Usage:
//   bench_dynamic [--smoke] [--datasets=...] [--extra-divisor=F]
// --smoke restricts to one proxy at extra divisor 8 for CI; exit status 1
// when the incremental-beats-full gate fails (CI regression gate).

#include <chrono>
#include <cstdint>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/api.h"
#include "core/incremental.h"
#include "graph/builder.h"
#include "graph/datasets.h"
#include "graph/delta.h"
#include "util/flags.h"
#include "util/table.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"

namespace adgraph::bench {
namespace {

/// Edge-delta fractions for the incremental-vs-full comparison; both are
/// within the 1% acceptance band (and under RunIncremental's default
/// full-recompute threshold).
constexpr double kDeltaFractions[] = {0.0025, 0.01};

core::PageRankOptions PrOptions() {
  core::PageRankOptions options;
  options.max_iterations = 100;
  options.tolerance = 1e-8;
  return options;
}

/// Applies `count` random inserts that actually change the edge set.
uint64_t InsertNovelEdges(graph::DeltaGraph* delta, uint64_t count,
                          uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<graph::vid_t> pick(
      0, delta->num_vertices() - 1);
  uint64_t applied = 0;
  while (applied < count) {
    if (delta->AddEdge(pick(rng), pick(rng)).value()) ++applied;
  }
  return applied;
}

/// A batch of random updates (insert-heavy, some deletes; duplicates and
/// misses included, as a real mutation stream would be).
std::vector<graph::EdgeUpdate> RandomBatch(graph::vid_t n, size_t size,
                                           std::mt19937_64* rng) {
  std::uniform_int_distribution<graph::vid_t> pick(0, n - 1);
  std::vector<graph::EdgeUpdate> batch;
  batch.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    batch.push_back({pick(*rng), pick(*rng), 1, (*rng)() % 10 < 8});
  }
  return batch;
}

double WallMs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

int Main(int argc, char** argv) {
  auto flags_result = Flags::Parse(argc, argv);
  if (!flags_result.ok()) {
    std::cerr << flags_result.status().ToString() << "\n";
    return 2;
  }
  const Flags& flags = *flags_result;
  auto parsed = BenchConfig::FromArgs(argc, argv, {"smoke"});
  if (!parsed.ok()) {
    std::cerr << parsed.status().ToString() << "\n";
    return 2;
  }
  BenchConfig config = *parsed;
  const bool smoke = flags.GetBool("smoke", false);
  if (config.datasets.empty()) {
    config.datasets = smoke
                          ? std::vector<std::string>{"web-Google"}
                          : std::vector<std::string>{"web-Stanford",
                                                     "web-Google",
                                                     "cit-Patents"};
  }
  if (smoke && config.extra_divisor < 8) config.extra_divisor = 8;
  EnsureOutDir(config);

  const vgpu::ArchConfig& arch = vgpu::A100Config();
  const core::PageRankOptions pr = PrOptions();
  bool gate_failed = false;

  // --- 1. incremental vs full recompute ----------------------------------
  TablePrinter inc_table({"DataSet", "edges", "delta", "delta%", "full (ms)",
                          "incr (ms)", "speedup", "iters full/incr",
                          "verdict"});
  for (const auto& spec : config.SelectedDatasets()) {
    auto base = graph::Materialize(spec, config.extra_divisor);
    if (!base.ok()) {
      std::cerr << spec.name << ": " << base.status().ToString() << "\n";
      return 1;
    }
    if (base->num_edges() == 0) continue;

    for (double fraction : kDeltaFractions) {
      auto delta = graph::DeltaGraph::Create(*base).value();
      const uint64_t count =
          std::max<uint64_t>(1, static_cast<uint64_t>(
                                    fraction * double(base->num_edges())));
      vgpu::Device device(arch);
      auto snapshot0 = delta.Snapshot().value();
      auto previous =
          core::Run(&device, {core::Algo::kPageRank}, *snapshot0, pr)
              .value();
      const uint64_t previous_version = delta.version();
      InsertNovelEdges(&delta, count, 0xBE7C + count);

      core::IncrementalInfo info;
      auto inc = core::RunIncremental(&device, {core::Algo::kPageRank},
                                      delta, pr, previous, previous_version,
                                      {}, nullptr, &info);
      if (!inc.ok()) {
        std::cerr << spec.name << " incremental: "
                  << inc.status().ToString() << "\n";
        return 1;
      }
      auto full = core::Run(&device, {core::Algo::kPageRank},
                            *delta.Snapshot().value(), pr);
      if (!full.ok()) {
        std::cerr << spec.name << " full: " << full.status().ToString()
                  << "\n";
        return 1;
      }
      const double inc_ms = core::ResultTimeMs(*inc);
      const double full_ms = core::ResultTimeMs(*full);
      const double speedup = inc_ms > 0 ? full_ms / inc_ms : 0;
      const bool beat = info.incremental && inc_ms < full_ms;
      if (!beat) gate_failed = true;
      inc_table.AddRow(
          {spec.name, std::to_string(base->num_edges()),
           std::to_string(count), FormatFixed(fraction * 100, 2),
           FormatFixed(full_ms, 4), FormatFixed(inc_ms, 4),
           FormatFixed(speedup, 2) + "x",
           std::to_string(std::get<core::PageRankResult>(*full).iterations) +
               "/" +
               std::to_string(
                   std::get<core::PageRankResult>(*inc).iterations),
           beat ? "incremental wins"
                : (info.incremental ? "SLOWER" : info.fallback_reason)});
    }
  }
  std::cout << "=== Dynamic graphs: incremental vs full PageRank recompute ("
            << arch.name << ") ===\n";
  inc_table.Print(std::cout);
  auto status = inc_table.WriteCsv(config.out_dir + "/dynamic_incremental.csv");
  if (!status.ok()) std::cerr << status.ToString() << "\n";

  // --- 2. update throughput interleaved with queries ----------------------
  // --- 3. staleness vs throughput curve -----------------------------------
  auto first = graph::FindDataset(config.datasets.front()).value();
  auto curve_base = graph::Materialize(first, config.extra_divisor).value();
  const size_t kBatch = 256;
  const int kCycles = smoke ? 4 : 8;

  TablePrinter curve({"refresh every", "updates/s (host)", "query (ms)",
                      "avg staleness", "cycle (ms)"});
  for (int refresh : {1, 2, 4, 8, 16}) {
    auto delta = graph::DeltaGraph::Create(curve_base).value();
    vgpu::Device device(arch);
    auto previous =
        core::Run(&device, {core::Algo::kPageRank},
                  *delta.Snapshot().value(), pr)
            .value();
    uint64_t previous_version = delta.version();
    std::mt19937_64 rng(0xD15EA5E);

    double apply_ms = 0;
    double query_ms = 0;
    uint64_t updates_applied = 0;
    uint64_t staleness_sum = 0;
    uint64_t queries = 0;
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      for (int b = 0; b < refresh; ++b) {
        auto batch = RandomBatch(delta.num_vertices(), kBatch, &rng);
        auto start = std::chrono::steady_clock::now();
        auto applied = delta.Apply(batch);
        apply_ms += WallMs(start);
        if (!applied.ok()) {
          std::cerr << "apply: " << applied.status().ToString() << "\n";
          return 1;
        }
        updates_applied += *applied;
      }
      // Staleness at query time: how many applied mutations the previous
      // result has not seen.
      staleness_sum += delta.version() - previous_version;
      core::IncrementalInfo info;
      auto result = core::RunIncremental(&device, {core::Algo::kPageRank},
                                         delta, pr, previous,
                                         previous_version, {}, nullptr,
                                         &info);
      if (!result.ok()) {
        std::cerr << "query: " << result.status().ToString() << "\n";
        return 1;
      }
      query_ms += core::ResultTimeMs(*result);
      ++queries;
      previous = std::move(*result);
      previous_version = delta.version();
    }
    const double total_ms = apply_ms + query_ms;
    curve.AddRow(
        {std::to_string(refresh) + " batches",
         FormatFixed(updates_applied / (apply_ms / 1000.0), 0),
         FormatFixed(query_ms / double(queries), 4),
         FormatFixed(double(staleness_sum) / double(queries), 1),
         FormatFixed(total_ms / kCycles, 3)});
  }
  std::cout << "\n=== Dynamic graphs: staleness vs throughput ("
            << first.name << ", batch " << kBatch
            << ", incremental PageRank queries) ===\n";
  curve.Print(std::cout);
  status = curve.WriteCsv(config.out_dir + "/dynamic_staleness.csv");
  if (!status.ok()) std::cerr << status.ToString() << "\n";

  if (gate_failed) {
    std::cerr << "FAIL: incremental PageRank did not beat full recompute on "
                 "a <=1% edge delta\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace adgraph::bench

int main(int argc, char** argv) { return adgraph::bench::Main(argc, argv); }
