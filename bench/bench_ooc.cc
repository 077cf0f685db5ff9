// Out-of-core streamed execution benchmark (DESIGN.md §2.13): what the
// device<->host<->disk tier costs and what transfer/compute overlap buys.
//
// For each dataset proxy the device is shrunk (memory_scale) until the
// whole-graph PageRank working set no longer fits — today's hard
// kResourceExhausted — and BFS + PageRank run in core::Run's streamed
// placement instead, double-buffering vertex-range shards on two streams.
//
// This is the CI acceptance gate for the out-of-core tentpole.  Exit
// status 1 unless, on every proxy:
//  1. the in-memory PageRank really is over budget on the shrunk device,
//  2. streamed BFS and PageRank complete with byte-identical outputs to
//     the in-memory reference, and
//  3. double-buffered overlap beats serialized shard staging by >= 1.1x
//     on modeled time.
//
// Usage:
//   bench_ooc [--smoke] [--datasets=...] [--extra-divisor=F]
// --smoke restricts to one proxy at extra divisor 32 for CI.

#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/api.h"
#include "graph/csr.h"
#include "graph/datasets.h"
#include "ooc/ooc_csr.h"
#include "util/table.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"

namespace adgraph::bench {
namespace {

constexpr double kOverlapGate = 1.1;

/// Peak device bytes of the in-memory PageRank path: base + transpose row
/// offsets, columns, 1/outdeg weights, ranks/next/scalars.  The streamed
/// path must be admitted under a budget below this.
uint64_t FullPageRankBytes(const graph::CsrGraph& g) {
  const uint64_t n = g.num_vertices();
  const uint64_t m = g.num_edges();
  return 2 * (n + 1) * sizeof(graph::eid_t) + m * sizeof(graph::vid_t) +
         m * sizeof(double) + 3 * n * sizeof(double) + 2 * sizeof(double);
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

int Main(int argc, char** argv) {
  auto parsed = BenchConfig::FromArgs(argc, argv, {FlagSpec::Bool("smoke")});
  if (!parsed.ok()) {
    std::cerr << parsed.status().ToString() << "\n";
    return 2;
  }
  BenchConfig config = *parsed;
  const bool smoke = config.flags.GetBool("smoke", false);
  if (config.datasets.empty()) {
    config.datasets = smoke ? std::vector<std::string>{"web-Google"}
                            : std::vector<std::string>{"web-Google",
                                                       "soc-liveJournal1",
                                                       "cit-Patents"};
  }
  if (smoke && config.extra_divisor < 32) config.extra_divisor = 32;
  EnsureOutDir(config);

  const vgpu::ArchConfig& arch = vgpu::A100Config();
  core::PageRankOptions pr;
  pr.max_iterations = 20;
  core::BfsOptions bfs;
  bfs.source = 0;
  bool gate_failed = false;

  TablePrinter table({"DataSet", "edges", "full (B)", "budget (B)", "shards",
                      "staged (B)", "serialized (ms)", "overlapped (ms)",
                      "overlap", "identical", "verdict"});
  for (const auto& spec : config.SelectedDatasets()) {
    auto materialized = graph::Materialize(spec, config.extra_divisor);
    if (!materialized.ok()) {
      std::cerr << spec.name << ": " << materialized.status().ToString()
                << "\n";
      return 1;
    }
    auto g = std::make_shared<const graph::CsrGraph>(
        std::move(*materialized));
    if (g->num_edges() == 0) continue;

    // In-memory reference on a full-size device.
    vgpu::Device reference_device(arch);
    auto bfs_ref = core::Run(&reference_device, {core::Algo::kBfs}, *g, bfs);
    auto pr_ref =
        core::Run(&reference_device, {core::Algo::kPageRank}, *g, pr);
    if (!bfs_ref.ok() || !pr_ref.ok()) {
      std::cerr << spec.name << ": reference run failed\n";
      return 1;
    }

    // Shrink the device below the whole-graph working set but above the
    // streamed one (memory_scale divides capacity).
    const uint64_t full_bytes = FullPageRankBytes(*g);
    const uint64_t shard_bytes = std::max<uint64_t>(full_bytes / 8, 4 << 10);
    auto streamed_bytes =
        ooc::EstimateStreamedBytes(core::Params(pr), *g, shard_bytes);
    if (!streamed_bytes.ok()) {
      std::cerr << streamed_bytes.status().ToString() << "\n";
      return 1;
    }
    const uint64_t budget = std::max<uint64_t>(
        full_bytes * 3 / 5, *streamed_bytes + *streamed_bytes / 4);
    vgpu::Device::Options small;
    {
      vgpu::Device probe(arch);
      small.memory_scale =
          static_cast<double>(probe.memory_capacity_bytes()) /
          static_cast<double>(budget);
    }
    vgpu::Device device(arch, small);

    // Gate 1: the in-memory path must actually be over budget here.
    const bool over_budget =
        !core::Run(&device, {core::Algo::kPageRank}, *g, pr).ok();

    const core::Placement streamed = core::Placement::Streamed(shard_bytes);
    auto bfs_ooc =
        core::Run(&device, {core::Algo::kBfs, streamed}, *g, bfs);
    core::RunReport pr_report;
    auto pr_ooc = core::Run(&device, {core::Algo::kPageRank, streamed}, *g,
                            pr, /*residency=*/nullptr, &pr_report);
    const core::StagingStats& pr_stats = pr_report.staging;
    if (!bfs_ooc.ok() || !pr_ooc.ok()) {
      std::cerr << spec.name << ": streamed run failed: "
                << (bfs_ooc.ok() ? pr_ooc.status() : bfs_ooc.status())
                       .ToString()
                << "\n";
      return 1;
    }

    // Gate 2: byte-identical outputs.
    const auto& br = std::get<core::BfsResult>(*bfs_ref);
    const auto& bo = std::get<core::BfsResult>(*bfs_ooc);
    const auto& rr = std::get<core::PageRankResult>(*pr_ref);
    const auto& ro = std::get<core::PageRankResult>(*pr_ooc);
    const bool identical =
        br.levels == bo.levels && br.depth == bo.depth &&
        br.vertices_visited == bo.vertices_visited &&
        BitIdentical(rr.ranks, ro.ranks) && rr.iterations == ro.iterations;

    // Gate 3: the double-buffered pipeline beats serialized staging.
    const double overlap = pr_stats.overlap_speedup();
    const bool ok = over_budget && identical && overlap >= kOverlapGate;
    if (!ok) gate_failed = true;

    table.AddRow(
        {spec.name, std::to_string(g->num_edges()),
         std::to_string(full_bytes), std::to_string(budget),
         std::to_string(pr_stats.num_shards),
         std::to_string(pr_stats.staged_bytes),
         FormatFixed(pr_stats.serialized_ms, 4),
         FormatFixed(pr_stats.overlapped_ms, 4),
         FormatFixed(overlap, 2) + "x", identical ? "yes" : "NO",
         ok ? "streamed wins"
            : (!over_budget ? "NOT OVER BUDGET"
                            : (!identical ? "DIVERGED" : "NO OVERLAP WIN"))});
  }

  std::cout << "=== Out-of-core streaming: over-budget graphs through the "
               "double buffer ("
            << arch.name << ") ===\n";
  table.Print(std::cout);
  auto status = table.WriteCsv(config.out_dir + "/ooc_overlap.csv");
  if (!status.ok()) std::cerr << status.ToString() << "\n";

  if (gate_failed) {
    std::cerr << "FAIL: an over-budget proxy did not complete "
                 "byte-identically with >= "
              << kOverlapGate << "x transfer/compute overlap\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace adgraph::bench

int main(int argc, char** argv) { return adgraph::bench::Main(argc, argv); }
