// Direction-optimizing frontier engine vs. the push-only baseline
// (DESIGN.md §2.11): BFS from the top-degree hub on Table 4 dataset
// proxies, once with the engine pinned to push-only and once with the
// density heuristic free to switch push/pull.  The claim under test is the
// tentpole acceptance of the engine refactor: on skewed (power-law) proxies
// the switch must win, and both runs must produce identical levels.
//
// Usage:
//   bench_frontier [--smoke] [--datasets=...] [--extra-divisor=F]
// --smoke restricts to three datasets at extra divisor 8 for CI.
//
// Exit status: 1 when any skewed proxy runs slower with the heuristic than
// push-only (or when levels mismatch) — CI runs this as a regression gate.

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "engine/algorithms.h"
#include "engine/engine.h"
#include "graph/stats.h"
#include "util/flags.h"
#include "util/table.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"

namespace adgraph::bench {
namespace {

/// Degree skew (max/mean) above which a proxy counts as power-law enough
/// that the direction switch is expected to pay off.  Matches the
/// "power-law character" bar the dataset tests hold the proxies to.
constexpr double kSkewBar = 8.0;

/// Minimum symmetric edge count for the speedup gate.  Below this the
/// whole traversal is a handful of kernel launches and fixed launch
/// overhead dominates either direction — a shrunk proxy that small can
/// still *run* (and must keep levels identical), it just is not evidence
/// about the direction heuristic either way.
constexpr uint64_t kMinGateEdges = 100000;

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
  if (smoke) {
    // A pull round only amortizes on proxies dense enough that a large
    // frontier's push would touch most edges anyway; the generic
    // divisor-8 smoke shrink pushes every graph below that regime.  Pin
    // three skewed proxies at divisor 2 instead (~1 s total).
    if (config.datasets.empty()) {
      config.datasets = {"web-Stanford", "soc-liveJournal1", "soc-sinaweibo"};
    }
    if (config.extra_divisor < 2) config.extra_divisor = 2;
  }
  EnsureOutDir(config);

  const vgpu::ArchConfig& arch = vgpu::A100Config();
  std::vector<graph::DatasetSpec> datasets = config.SelectedDatasets();

  TablePrinter table({"DataSet", "vertices", "edges", "skew", "push (ms)",
                      "auto (ms)", "speedup", "pull rounds", "flips",
                      "sp->dn", "levels"});
  bool gate_failed = false;

  for (const auto& spec : datasets) {
    auto directed = graph::Materialize(spec, config.extra_divisor);
    if (!directed.ok()) {
      std::cerr << spec.name << ": " << directed.status().ToString() << "\n";
      return 1;
    }
    graph::CsrBuildOptions sym_options;
    sym_options.make_undirected = true;
    sym_options.remove_duplicates = true;
    sym_options.remove_self_loops = true;
    auto symmetric = graph::CsrGraph::FromCoo(directed->ToCoo(), sym_options);
    if (!symmetric.ok()) {
      std::cerr << spec.name << ": " << symmetric.status().ToString() << "\n";
      return 1;
    }

    // An over-shrunk proxy (huge --extra-divisor) can dedup/self-loop away
    // every edge; a BFS "comparison" there is meaningless, so the row is
    // explicitly skipped rather than printing 0/0 speedups.
    if (symmetric->num_edges() == 0) {
      table.AddRow({spec.name, std::to_string(symmetric->num_vertices()), "0",
                    "-", "-", "-", "skipped", "-", "-", "-",
                    "skipped (zero-edge proxy)"});
      continue;
    }

    auto stats = graph::ComputeDegreeStats(*symmetric);
    graph::vid_t source = 0;
    for (graph::vid_t v = 0; v < symmetric->num_vertices(); ++v) {
      if (symmetric->degree(v) > symmetric->degree(source)) source = v;
    }

    core::BfsOptions options;
    options.source = source;
    options.assume_symmetric = true;

    vgpu::Device push_device(arch);
    engine::EngineReport push_report;
    auto push = engine::RunBfs(&push_device, *symmetric, options, nullptr,
                               {.direction = engine::DirectionPolicy::kPushOnly},
                               &push_report);
    if (!push.ok()) {
      std::cerr << spec.name << " push: " << push.status().ToString() << "\n";
      return 1;
    }

    vgpu::Device auto_device(arch);
    engine::EngineReport auto_report;
    auto opt = engine::RunBfs(&auto_device, *symmetric, options, nullptr,
                              {.direction = engine::DirectionPolicy::kAuto},
                              &auto_report);
    if (!opt.ok()) {
      std::cerr << spec.name << " auto: " << opt.status().ToString() << "\n";
      return 1;
    }

    const bool identical =
        push->levels.size() == opt->levels.size() &&
        std::memcmp(push->levels.data(), opt->levels.data(),
                    push->levels.size() * sizeof(uint32_t)) == 0;
    const double speedup = opt->time_ms > 0 ? push->time_ms / opt->time_ms : 0;
    const bool gated = stats.skew() >= kSkewBar &&
                       symmetric->num_edges() >= kMinGateEdges;
    if (!identical) gate_failed = true;
    if (gated && speedup <= 1.0) gate_failed = true;

    std::string verdict = identical ? "identical" : "MISMATCH";
    if (gated && speedup <= 1.0) verdict += " SLOWER";
    table.AddRow({spec.name, std::to_string(symmetric->num_vertices()),
                  std::to_string(symmetric->num_edges()),
                  FormatFixed(stats.skew(), 1), FormatFixed(push->time_ms, 4),
                  FormatFixed(opt->time_ms, 4),
                  FormatFixed(speedup, 2) + "x",
                  std::to_string(auto_report.direction.pull_rounds),
                  std::to_string(auto_report.direction.direction_flips),
                  std::to_string(auto_report.direction.sparse_to_dense),
                  verdict});
  }

  std::cout << "=== Frontier engine: direction-optimizing vs push-only BFS ("
            << arch.name << ", hub source) ===\n";
  table.Print(std::cout);
  auto status = table.WriteCsv(config.out_dir + "/frontier_direction.csv");
  if (!status.ok()) std::cerr << status.ToString() << "\n";
  if (gate_failed) {
    std::cerr << "FAIL: direction-optimizing BFS did not beat push-only on a "
                 "skewed proxy (or levels diverged)\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace adgraph::bench

int main(int argc, char** argv) { return adgraph::bench::Main(argc, argv); }
