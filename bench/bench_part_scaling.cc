// Modeled strong scaling of partitioned execution (DESIGN.md §2.7): BFS and
// PageRank on Table 4 dataset proxies across 1/2/4/8 simulated A100 devices
// linked by NVLink.  The single-device column is the library's own top-down
// BFS through core::Run (direction-optimizing off — the partitioned driver
// is top-down only), and every multi-device BFS is checked byte-identical
// against it, so the scaling numbers never come at the cost of correctness.
//
// Usage:
//   bench_part_scaling [--smoke] [--datasets=...] [--extra-divisor=F]
//       [--interconnect=nvlink|pcie] [--partition=degree|uniform]
// --smoke restricts to three datasets at extra divisor 8 for CI.

#include <cstring>
#include <iostream>
#include <map>
#include <vector>

#include "bench/bench_common.h"
#include "core/api.h"
#include "graph/generate.h"
#include "part/engine.h"
#include "part/part_bfs.h"
#include "part/part_pagerank.h"
#include "util/table.h"

namespace adgraph::bench {
namespace {

constexpr uint32_t kDeviceCounts[] = {1, 2, 4, 8};

struct ScalingRow {
  std::string dataset;
  // Indexed like kDeviceCounts.
  std::vector<double> time_ms;
  std::vector<double> exchange_mb;
  bool byte_identical = true;
};

int Main(int argc, char** argv) {
  auto parsed = BenchConfig::FromArgs(
      argc, argv,
      {FlagSpec::Bool("smoke"), FlagSpec::String("interconnect"),
       FlagSpec::Choice("partition", {"degree", "uniform"})});
  if (!parsed.ok()) {
    std::cerr << parsed.status().ToString() << "\n";
    return 2;
  }
  BenchConfig config = *parsed;
  const Flags& flags = config.flags;
  const bool smoke = flags.GetBool("smoke", false);
  if (smoke) {
    config.skip_twitter = true;
    if (config.extra_divisor < 8) config.extra_divisor = 8;
  }
  EnsureOutDir(config);

  part::PartitionedEngine::Options engine_options;
  const std::string link = flags.GetString("interconnect", "nvlink");
  auto preset = vgpu::InterconnectPresetByName(link);
  if (!preset.ok()) {
    std::cerr << preset.status().ToString() << "\n";
    return 2;
  }
  engine_options.interconnect = *preset;
  const part::PartitionStrategy partition =
      flags.GetString("partition", "degree") == "uniform"
          ? part::PartitionStrategy::kUniform
          : part::PartitionStrategy::kDegreeBalanced;
  const vgpu::ArchConfig& arch = vgpu::A100Config();

  std::vector<graph::DatasetSpec> datasets = config.SelectedDatasets();
  if (smoke && datasets.size() > 3) datasets.resize(3);

  std::vector<ScalingRow> bfs_rows;
  TablePrinter bfs_table({"DataSet", "1 dev (ms)", "2 dev (ms)", "4 dev (ms)",
                          "8 dev (ms)", "speedup 1->4", "exch MB (4 dev)",
                          "levels"});
  TablePrinter pr_table({"DataSet", "1 dev (ms)", "2 dev (ms)", "4 dev (ms)",
                         "8 dev (ms)", "speedup 1->4", "exch MB (4 dev)"});

  for (const auto& spec : datasets) {
    auto directed = graph::Materialize(spec, config.extra_divisor);
    if (!directed.ok()) {
      std::cerr << spec.name << ": " << directed.status().ToString() << "\n";
      return 1;
    }
    graph::CsrBuildOptions sym;
    sym.make_undirected = true;
    sym.remove_duplicates = true;
    sym.remove_self_loops = true;
    auto symmetric = graph::CsrGraph::FromCoo(directed->ToCoo(), sym);
    if (!symmetric.ok()) {
      std::cerr << spec.name << ": " << symmetric.status().ToString() << "\n";
      return 1;
    }
    graph::vid_t source = 0;
    for (graph::vid_t v = 0; v < symmetric->num_vertices(); ++v) {
      if (symmetric->degree(v) > symmetric->degree(source)) source = v;
    }

    // Single-device reference: the library's own top-down BFS.  Its levels
    // are the byte-identity baseline AND its runtime is the 1-device
    // column, so speedups are against the real single-GPU code path.
    vgpu::Device reference_device(arch);
    core::BfsOptions ref_options;
    ref_options.source = source;
    ref_options.direction_optimizing = false;
    auto reference = core::Run<core::Algo::kBfs>(&reference_device,
                                                 *symmetric, ref_options);
    if (!reference.ok()) {
      std::cerr << spec.name << ": " << reference.status().ToString() << "\n";
      return 1;
    }

    ScalingRow bfs_row;
    bfs_row.dataset = spec.name;
    ScalingRow pr_row;
    pr_row.dataset = spec.name;
    std::cout << "scaling " << spec.name << " (" << symmetric->num_vertices()
              << " vertices, " << symmetric->num_edges() << " edges) ..."
              << std::endl;

    for (uint32_t num_devices : kDeviceCounts) {
      engine_options.num_devices = num_devices;
      auto engine = part::PartitionedEngine::Create(arch, engine_options);
      if (!engine.ok()) {
        std::cerr << engine.status().ToString() << "\n";
        return 1;
      }
      auto plan = part::MakePartitionPlan(*symmetric, num_devices,
                                          partition);
      if (!plan.ok()) {
        std::cerr << plan.status().ToString() << "\n";
        return 1;
      }

      core::BfsOptions bfs_options;
      bfs_options.source = source;
      core::ExchangeStats bfs_exchange;
      auto bfs = part::RunPartitionedBfs(engine->get(), *symmetric, *plan,
                                         bfs_options, &bfs_exchange);
      if (!bfs.ok()) {
        std::cerr << spec.name << " bfs x" << num_devices << ": "
                  << bfs.status().ToString() << "\n";
        return 1;
      }
      if (num_devices > 1 &&
          (bfs->levels.size() != reference->levels.size() ||
           std::memcmp(bfs->levels.data(), reference->levels.data(),
                       bfs->levels.size() * sizeof(uint32_t)) != 0)) {
        bfs_row.byte_identical = false;
      }
      bfs_row.time_ms.push_back(bfs->time_ms);
      bfs_row.exchange_mb.push_back(static_cast<double>(bfs_exchange.bytes) /
                                    1e6);

      // PageRank at a fixed iteration count so every device count does the
      // same numeric work (tolerance-based early exit could stop shards at
      // different FP states).
      core::PageRankOptions pr_options;
      pr_options.max_iterations = smoke ? 5 : 20;
      pr_options.tolerance = 0;
      core::ExchangeStats pr_exchange;
      auto pr = part::RunPartitionedPageRank(engine->get(), *symmetric, *plan,
                                             pr_options, &pr_exchange);
      if (!pr.ok()) {
        std::cerr << spec.name << " pagerank x" << num_devices << ": "
                  << pr.status().ToString() << "\n";
        return 1;
      }
      pr_row.time_ms.push_back(pr->time_ms);
      pr_row.exchange_mb.push_back(static_cast<double>(pr_exchange.bytes) /
                                   1e6);
    }

    auto add_row = [](TablePrinter* table, const ScalingRow& row,
                      bool with_levels) {
      std::vector<std::string> cells{row.dataset};
      for (double ms : row.time_ms) cells.push_back(FormatFixed(ms, 4));
      cells.push_back(FormatFixed(row.time_ms[0] / row.time_ms[2], 2) + "x");
      cells.push_back(FormatFixed(row.exchange_mb[2], 3));
      if (with_levels) {
        cells.push_back(row.byte_identical ? "identical" : "MISMATCH");
      }
      table->AddRow(std::move(cells));
    };
    add_row(&bfs_table, bfs_row, /*with_levels=*/true);
    add_row(&pr_table, pr_row, /*with_levels=*/false);
    bfs_rows.push_back(std::move(bfs_row));
  }

  std::cout << "=== Partitioned strong scaling: BFS (" << arch.name << " x "
            << link << ", "
            << part::PartitionStrategyName(partition)
            << " partition) ===\n";
  bfs_table.Print(std::cout);
  std::cout << "\n=== Partitioned strong scaling: PageRank ===\n";
  pr_table.Print(std::cout);

  auto status = bfs_table.WriteCsv(config.out_dir + "/part_scaling_bfs.csv");
  if (status.ok()) {
    status = pr_table.WriteCsv(config.out_dir + "/part_scaling_pagerank.csv");
  }
  if (!status.ok()) std::cerr << status.ToString() << "\n";

  // Acceptance gate: every multi-device BFS byte-identical (always), and
  // modeled throughput monotonically increasing 1 -> 2 -> 4 devices on at
  // least 3 datasets.  The monotonicity half only gates full-scale runs:
  // --smoke shrinks the proxies ~8x for CI, below the point where any
  // per-round link latency can amortize, so there it is informational.
  int failures = 0;
  size_t monotone = 0;
  for (const auto& row : bfs_rows) {
    if (!row.byte_identical) {
      std::cerr << "FAIL " << row.dataset
                << ": partitioned BFS levels differ from single-device\n";
      ++failures;
    }
    if (row.time_ms[0] > row.time_ms[1] && row.time_ms[1] > row.time_ms[2]) {
      ++monotone;
    } else {
      std::cout << "note " << row.dataset
                << ": modeled BFS time not monotone 1->2->4 devices ("
                << FormatFixed(row.time_ms[0], 4) << " / "
                << FormatFixed(row.time_ms[1], 4) << " / "
                << FormatFixed(row.time_ms[2], 4) << " ms)\n";
    }
  }
  const size_t required = std::min<size_t>(3, bfs_rows.size());
  std::cout << "\nscaling check: BFS monotone 1->4 on " << monotone << "/"
            << bfs_rows.size() << " datasets"
            << (smoke ? " (informational under --smoke)" : "") << "\n";
  if (!smoke && monotone < required) {
    std::cerr << "FAIL: monotone scaling on " << monotone << " datasets, "
              << "need >= " << required << "\n";
    ++failures;
  }
  return failures > 0 ? 1 : 0;
}

}  // namespace
}  // namespace adgraph::bench

int main(int argc, char** argv) { return adgraph::bench::Main(argc, argv); }
