// adgraph_repro — every paper CSV from one run.
//
// Builds each Table 4 dataset once and simulates each Table 5 cell (BFS,
// TC, ESBV x Z100, V100, Z100L, A100) once, on a fresh device inside one
// prof::Session; a dataset's twelve cells run on parallel host threads.
// All of these come from those in-memory cells:
//
//   table3_specs.csv       Table 3: the four simulated GPUs
//   table4_datasets.csv    Table 4: paper vs proxy dataset statistics
//   table5_perf.csv        Table 5: runtime and MTEPS of every cell
//   fig4_speedup_g1.csv    Figure 4: Z100 vs V100 (group 1)
//   fig5_speedup_g2.csv    Figure 5: Z100L vs A100 (group 2)
//   fig6_gen_scaling.csv   Figure 6: Z100L vs Z100
//   table6_profiling.csv   Table 6: fine-grained rates, A100 vs Z100L
//   fig7_coarse_a100.csv   Figure 7: coarse metrics on A100
//   fig8_coarse_z100l.csv  Figure 8: coarse metrics on Z100L
//
// Three studies without a paper counterpart run on the soc-liveJournal1
// bundle (when that dataset is selected):
//
//   ablation_hypotheses.csv  the §5 hypotheses as one-parameter flips
//   ablation_algos.csv       the library's algorithm-design choices
//   ext_reordering.csv       the §5.3 data-layout conjecture
//
// Nothing is cached: every run recomputes every cell.
//
// Usage: adgraph_repro [--extra-divisor=F] [--out-dir=DIR]
//                      [--datasets=NAME,...] [--skip-twitter]

#include <algorithm>
#include <array>
#include <atomic>
#include <iostream>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/api.h"
#include "core/subgraph.h"
#include "core/triangle_count.h"
#include "graph/reorder.h"
#include "graph/stats.h"
#include "prof/session.h"
#include "runtime/runtime.h"
#include "util/table.h"
#include "vgpu/arch.h"

namespace adgraph::bench {
namespace {

constexpr Algo kAlgos[] = {Algo::kBfs, Algo::kTc, Algo::kEsbv};
constexpr char kStudyDataset[] = "soc-liveJournal1";

/// One dataset's cells, by GPU name and algorithm.
struct DatasetCells {
  graph::DatasetSpec spec;
  std::map<std::string, std::map<Algo, CellResult>> cells;

  const CellResult& At(const vgpu::ArchConfig& gpu, Algo algo) const {
    return cells.at(gpu.name).at(algo);
  }
};

/// The paper profiles six datasets; twitter-mpi is excluded there too.
bool Profiled(const graph::DatasetSpec& spec) {
  return spec.name != "twitter-mpi";
}

/// A profiled cell; Table 6 and Figures 7-8 have no OOM marker.
Result<const CellResult*> ProfiledCell(const DatasetCells& ds,
                                       const vgpu::ArchConfig& gpu,
                                       Algo algo) {
  const CellResult& cell = ds.At(gpu, algo);
  if (cell.oom) {
    return Status::OutOfMemory("profiled cell " + AlgoName(algo) + " / " +
                               ds.spec.name + " on " + gpu.name +
                               " hit device OOM");
  }
  return &cell;
}

/// Prints `header` and `table`, then writes `<out_dir>/<csv_name>.csv`.
Status Emit(const BenchConfig& config, const std::string& header,
            const TablePrinter& table, const std::string& csv_name) {
  std::cout << header;
  table.Print(std::cout);
  std::cout << "\n";
  return table.WriteCsv(config.out_dir + "/" + csv_name + ".csv");
}

// ------------------------------------------------------------- Table 3

/// The four simulated architecture configurations, plus the model-only
/// parameters (paradigm, warp width, shared-memory path) that the paper's
/// §2.4 comparison is about.
Status WriteTable3(const BenchConfig& config) {
  TablePrinter table({"Features", "Z100", "V100", "Z100L", "A100"});
  auto row = [&](const std::string& name, auto getter) {
    std::vector<std::string> cells{name};
    for (const auto* gpu : vgpu::PaperGpus()) cells.push_back(getter(*gpu));
    table.AddRow(std::move(cells));
  };
  row("FP64", [](const vgpu::ArchConfig& g) {
    return FormatFixed(g.fp64_tflops, 1) + "TFLOPS";
  });
  row("FP32", [](const vgpu::ArchConfig& g) {
    return FormatFixed(g.fp32_tflops, 1) + "TFLOPS";
  });
  row("RAM Volume", [](const vgpu::ArchConfig& g) {
    return std::to_string(g.dram_capacity_bytes >> 30) + "GB";
  });
  row("RAM Bandwidth", [](const vgpu::ArchConfig& g) {
    return FormatFixed(g.dram_bandwidth_gbps, 0) + "GB/s";
  });
  row("RAM Bitwidth", [](const vgpu::ArchConfig& g) {
    return std::to_string(g.ram_bitwidth) + "bit";
  });
  row("RAM Type", [](const vgpu::ArchConfig& g) { return g.ram_type; });
  row("SM/CU", [](const vgpu::ArchConfig& g) {
    return std::to_string(g.num_sms);
  });
  row("Cores/SP", [](const vgpu::ArchConfig& g) {
    return std::to_string(g.num_sms * g.lanes_per_sm);
  });
  table.AddSeparator();
  // Simulator-visible architectural distinctions (paper §2.4).
  row("Paradigm", [](const vgpu::ArchConfig& g) {
    return g.paradigm == vgpu::Paradigm::kSimt ? "SIMT" : "SIMD";
  });
  row("Warp/Wavefront", [](const vgpu::ArchConfig& g) {
    return std::to_string(g.warp_width);
  });
  row("SharedMem path", [](const vgpu::ArchConfig& g) {
    return g.shared_path == vgpu::SharedMemPath::kUnifiedWithL1
               ? "unified with L1"
               : "independent LDS";
  });
  return Emit(config, "=== Table 3: Specification of GPUs (simulated) ===\n",
              table, "table3_specs");
}

// ------------------------------------------------------------- Table 4

/// The paper-scale statistics beside the proxy's measured ones: proxies
/// preserve edge-count ordering and skew character.
TablePrinter MakeTable4() {
  return TablePrinter({"DataSet", "category", "paper V", "paper E",
                       "paper maxDeg", "divisor", "proxy V", "proxy E",
                       "proxy maxDeg", "proxy skew", "deg p50/p99",
                       "tail alpha"});
}

void AddTable4Row(const DatasetBundle& bundle, TablePrinter* table) {
  const graph::DatasetSpec& spec = bundle.spec;
  auto stats = graph::ComputeDegreeStats(bundle.directed);
  auto dist = graph::ComputeDegreeDistribution(bundle.directed);
  table->AddRow({spec.name, spec.category,
                 FormatWithCommas(spec.paper_vertices),
                 FormatWithCommas(spec.paper_edges),
                 FormatWithCommas(spec.paper_max_degree),
                 FormatFixed(bundle.divisor, 0),
                 FormatWithCommas(stats.num_vertices),
                 FormatWithCommas(stats.num_edges),
                 FormatWithCommas(stats.max_degree),
                 FormatFixed(stats.skew(), 1),
                 std::to_string(dist.p50) + "/" + std::to_string(dist.p99),
                 FormatFixed(dist.powerlaw_alpha, 2)});
}

// ------------------------------------------------------------- Table 5

/// Runtime (ms) and edge throughput (MTEPS) per cell, in the paper's two
/// GPU groups: Z100 (adGRAPH) vs V100 (nvGRAPH), Z100L vs A100.  The
/// ESBV/twitter-mpi row is OOM on every GPU, as in the paper.
Status WriteTable5(const BenchConfig& config,
                   const std::vector<DatasetCells>& grid) {
  TablePrinter table({"Task", "Workload", "Z100 ms", "V100 ms",
                      "Z100 MTEPS", "V100 MTEPS", "Z100L ms", "A100 ms",
                      "Z100L MTEPS", "A100 MTEPS"});
  for (Algo algo : kAlgos) {
    bool first = true;
    for (const DatasetCells& ds : grid) {
      std::vector<const CellResult*> c;  // Table 3 order
      for (const auto* gpu : vgpu::PaperGpus()) c.push_back(&ds.At(*gpu, algo));
      if (first) table.AddSeparator();
      std::string workload = ds.spec.name;
      if (c[0]->sampled) workload += " (sampled)";
      table.AddRow({first ? AlgoName(algo) : "", workload,
                    FormatTimeCell(*c[0]), FormatTimeCell(*c[1]),
                    FormatMtepsCell(*c[0]), FormatMtepsCell(*c[1]),
                    FormatTimeCell(*c[2]), FormatTimeCell(*c[3]),
                    FormatMtepsCell(*c[2]), FormatMtepsCell(*c[3])});
      first = false;
    }
  }
  return Emit(config,
              "=== Table 5: Performance Result of nvGRAPH and adGRAPH "
              "(simulated) ===\n(adGRAPH runs on Z100/Z100L, nvGRAPH on "
              "V100/A100 — one code base, per DESIGN.md)\n",
              table, "table5_perf");
}

// --------------------------------------------------------- Figures 4-6

/// Per algorithm and dataset, speedup = time(`baseline`) / time(`target`),
/// the paper's "acceleration ratio", plus the per-algorithm averages the
/// paper quotes.
Status WriteSpeedupFigure(const BenchConfig& config,
                          const std::vector<DatasetCells>& grid,
                          const vgpu::ArchConfig& target,
                          const vgpu::ArchConfig& baseline,
                          const std::string& title,
                          const std::string& csv_name) {
  TablePrinter table({"Workload", "BFS", "TC", "ESBV"});
  std::map<Algo, double> sum;
  std::map<Algo, double> minimum;
  std::map<Algo, double> maximum;
  std::map<Algo, int> counted;
  for (const DatasetCells& ds : grid) {
    std::vector<std::string> row{ds.spec.name};
    for (Algo algo : kAlgos) {
      const CellResult& t = ds.At(target, algo);
      const CellResult& b = ds.At(baseline, algo);
      if (t.oom || b.oom || t.time_ms <= 0) {
        row.push_back("OOM");
        continue;
      }
      double speedup = b.time_ms / t.time_ms;
      row.push_back(FormatFixed(speedup, 2) + "x");
      sum[algo] += speedup;
      counted[algo] += 1;
      if (counted[algo] == 1) {
        minimum[algo] = maximum[algo] = speedup;
      } else {
        minimum[algo] = std::min(minimum[algo], speedup);
        maximum[algo] = std::max(maximum[algo], speedup);
      }
    }
    table.AddRow(std::move(row));
  }
  table.AddSeparator();
  std::vector<std::string> avg{"average"};
  std::vector<std::string> range{"range"};
  for (Algo algo : kAlgos) {
    if (counted[algo] == 0) {
      avg.push_back("-");
      range.push_back("-");
      continue;
    }
    avg.push_back(FormatFixed(sum[algo] / counted[algo], 2) + "x");
    range.push_back(FormatFixed(minimum[algo], 2) + "x-" +
                    FormatFixed(maximum[algo], 2) + "x");
  }
  table.AddRow(std::move(avg));
  table.AddRow(std::move(range));
  return Emit(config,
              "=== " + title + " ===\n(speedup = runtime(" + baseline.name +
                  ") / runtime(" + target.name + "); >1 means " +
                  target.name + " wins)\n",
              table, csv_name);
}

// ------------------------------------------------------------- Table 6

/// Per-component instruction-issue rates (instructions / runtime-ms) of
/// A100 (ncu metrics) vs Z100L (ROCm-like metrics) over the six profiled
/// datasets:
///   Type 1: inst_issued                  / SQ_INSTS_VALU
///   Type 2: inst_executed_shared_stores  / SQ_INSTS_LDS
///   Type 3: inst_executed_global_loads   / SQ_INSTS_VMEM_RD
///   Type 4: inst_executed_global_stores  / SQ_INSTS_VMEM_WR
Status WriteTable6(const BenchConfig& config,
                   const std::vector<DatasetCells>& grid) {
  const Algo algos[] = {Algo::kBfs, Algo::kEsbv, Algo::kTc};
  TablePrinter table({"Metrics Type", "Workload", "BFS A100", "BFS Z100L",
                      "ESBV A100", "ESBV Z100L", "TC A100", "TC Z100L"});
  for (int type = 0; type < 4; ++type) {
    bool first = true;
    for (const DatasetCells& ds : grid) {
      if (!Profiled(ds.spec)) continue;
      std::vector<std::string> row{
          first ? "Type " + std::to_string(type + 1) : "", ds.spec.name};
      for (Algo algo : algos) {
        for (const auto* gpu : {&vgpu::A100Config(), &vgpu::Z100LConfig()}) {
          ADGRAPH_ASSIGN_OR_RETURN(const CellResult* cell,
                                   ProfiledCell(ds, *gpu, algo));
          const uint64_t counts[] = {cell->fine.type1, cell->fine.type2,
                                     cell->fine.type3, cell->fine.type4};
          double rate = cell->time_ms > 0
                            ? static_cast<double>(counts[type]) / cell->time_ms
                            : 0;
          row.push_back(FormatRate(rate));
        }
      }
      if (first) table.AddSeparator();
      table.AddRow(std::move(row));
      first = false;
    }
  }
  return Emit(
      config,
      "=== Table 6: Fine-grained Profiling Results (simulated) ===\n"
      "Type 1: inst_issued / SQ_INSTS_VALU; Type 2: shared stores / "
      "SQ_INSTS_LDS;\n"
      "Type 3: global loads / SQ_INSTS_VMEM_RD; Type 4: global stores / "
      "SQ_INSTS_VMEM_WR.\n"
      "Values are instruction-issue rates (per ms of modeled runtime), as in "
      "the paper.\n",
      table, "table6_profiling");
}

// --------------------------------------------------------- Figures 7-8

/// The four Table 2 coarse metrics per algorithm on `gpu`, averaged over
/// the six profiled datasets as the paper's bar charts aggregate them.
Status WriteCoarseFigure(const BenchConfig& config,
                         const std::vector<DatasetCells>& grid,
                         const vgpu::ArchConfig& gpu,
                         const std::string& title,
                         const std::string& csv_name) {
  auto platform = gpu.vendor == "NVIDIA" ? rt::Platform::kCuda
                                         : rt::Platform::kRocmLike;
  TablePrinter table({"Metric", "BFS", "TC", "ESBV"});
  std::vector<std::array<double, 3>> sums(4, {0, 0, 0});
  std::array<int, 3> counts{0, 0, 0};
  for (size_t a = 0; a < std::size(kAlgos); ++a) {
    for (const DatasetCells& ds : grid) {
      if (!Profiled(ds.spec)) continue;
      ADGRAPH_ASSIGN_OR_RETURN(const CellResult* cell,
                               ProfiledCell(ds, gpu, kAlgos[a]));
      sums[0][a] += cell->coarse.warp_utilization;
      sums[1][a] += cell->coarse.shared_memory;
      sums[2][a] += cell->coarse.l2_hit;
      sums[3][a] += cell->coarse.global_memory;
      counts[a] += 1;
    }
  }
  auto names = prof::CoarseMetricNames(platform);
  for (size_t m = 0; m < 4; ++m) {
    std::vector<std::string> row{names[m]};
    for (size_t a = 0; a < std::size(kAlgos); ++a) {
      double avg = counts[a] > 0 ? sums[m][a] / counts[a] : 0;
      row.push_back(FormatFixed(avg * 100, 1) + "%");
    }
    table.AddRow(std::move(row));
  }
  return Emit(config,
              "=== " + title + " ===\n(averaged over the six profiled "
                  "datasets; " + std::string(rt::PlatformName(platform)) +
                  " metric view)\n",
              table, csv_name);
}

// ------------------------------------------------------------- studies

/// The paper's §5 hypotheses, isolated: starting from Z100L, flips ONE
/// architectural parameter at a time and reports the speedup over stock
/// Z100L (>1: the flip helps).  By construction nothing else changes.
///   H1 warp width:      wavefront 64 -> warp 32
///   H2/H4 LDS path:     independent LDS -> unified with L1 (NVIDIA-style)
///   H3 paradigm:        SIMD -> SIMT (divergent-path stall overlap)
///   H5 RAM technology:  HBM2 1024 GB/s -> HBM2e 1935 GB/s (A100's)
Status WriteAblationHypotheses(const BenchConfig& config,
                               const DatasetBundle& bundle,
                               const graph::CsrGraph& oriented) {
  // BFS, then TC on the degree-oriented DAG, then ESBV, on one device.
  auto run_all = [&](const vgpu::ArchConfig& arch)
      -> Result<std::array<double, 3>> {
    auto device = MakeDevice(arch, bundle);
    core::BfsOptions bfs;
    bfs.source = bundle.bfs_source;
    bfs.assume_symmetric = true;
    ADGRAPH_ASSIGN_OR_RETURN(
        auto b, core::Run<core::Algo::kBfs>(device.get(), bundle.symmetric,
                                            bfs));
    ADGRAPH_ASSIGN_OR_RETURN(auto dag,
                             core::DeviceCsr::Upload(device.get(), oriented));
    ADGRAPH_ASSIGN_OR_RETURN(
        auto t, core::RunTriangleCountOnDevice(device.get(), dag, {}));
    core::EsbvOptions esbv;
    esbv.vertices = bundle.esbv_vertices;
    ADGRAPH_ASSIGN_OR_RETURN(
        auto e,
        core::ExtractSubgraphByVertex(device.get(), bundle.weighted, esbv));
    return std::array<double, 3>{b.time_ms, t.time_ms, e.time_ms};
  };

  struct Variant {
    std::string name;
    std::string hypothesis;
    vgpu::ArchConfig arch;
  };
  const vgpu::ArchConfig base = vgpu::Z100LConfig();
  const vgpu::ArchConfig& a100 = vgpu::A100Config();
  std::vector<Variant> variants{{"wavefront 64 -> warp 32", "H1", base},
                                {"independent LDS -> unified", "H2/H4", base},
                                {"SIMD -> SIMT", "H3", base},
                                {"HBM2 -> HBM2e (A100 RAM)", "H5", base}};
  variants[0].arch.warp_width = 32;
  variants[1].arch.shared_path = vgpu::SharedMemPath::kUnifiedWithL1;
  variants[1].arch.smem_latency_cycles = a100.smem_latency_cycles;
  variants[2].arch.paradigm = vgpu::Paradigm::kSimt;
  variants[3].arch.dram_bandwidth_gbps = a100.dram_bandwidth_gbps;
  variants[3].arch.dram_latency_cycles = a100.dram_latency_cycles;

  ADGRAPH_ASSIGN_OR_RETURN(auto baseline, run_all(base));
  TablePrinter table(
      {"Variant (vs Z100L)", "Hypothesis", "BFS", "TC", "ESBV"});
  table.AddRow({"baseline runtime (ms)", "-", FormatFixed(baseline[0], 3),
                FormatFixed(baseline[1], 3), FormatFixed(baseline[2], 3)});
  table.AddSeparator();
  for (const Variant& variant : variants) {
    ADGRAPH_ASSIGN_OR_RETURN(auto times, run_all(variant.arch));
    std::vector<std::string> row{variant.name, variant.hypothesis};
    for (int i = 0; i < 3; ++i) {
      row.push_back(FormatFixed(baseline[i] / times[i], 3) + "x");
    }
    table.AddRow(std::move(row));
  }
  return Emit(config,
              "=== Ablation: isolating the paper's Hypotheses 1-5 on " +
                  bundle.spec.name +
                  " ===\n(speedup of the flipped configuration over stock "
                  "Z100L; >1 = the flip helps that algorithm)\n",
              table, "ablation_hypotheses");
}

/// The implementation choices DESIGN.md calls out, each toggled on both
/// flagship GPUs: BFS direction-optimizing (nvGRAPH's bottom-up, paper
/// §4.4) vs pure top-down; TC on the degree-oriented DAG vs the
/// nvGRAPH-style Bisson-Fatica full-adjacency kernel vs forced binary
/// search ("the other mainstream paradigm", §4.4); and a shared-memory
/// hash capacity sweep (the fallback boundary).
Status WriteAblationAlgos(const BenchConfig& config,
                          const DatasetBundle& bundle,
                          const graph::CsrGraph& oriented) {
  TablePrinter table({"Variant", "Z100L ms", "A100 ms", "notes"});
  auto run_both = [&](const std::string& name, auto fn,
                      const std::string& notes) {
    std::vector<std::string> row{name};
    for (const auto* arch : {&vgpu::Z100LConfig(), &vgpu::A100Config()}) {
      auto device = MakeDevice(*arch, bundle);
      auto time = fn(device.get());
      row.push_back(time.ok() ? FormatFixed(*time, 3)
                              : time.status().ToString());
    }
    row.push_back(notes);
    table.AddRow(std::move(row));
  };
  auto run_tc = [](vgpu::Device* device, const graph::CsrGraph& g,
                   const core::TcOptions& options) -> Result<double> {
    ADGRAPH_ASSIGN_OR_RETURN(auto d, core::DeviceCsr::Upload(device, g));
    ADGRAPH_ASSIGN_OR_RETURN(
        auto r, core::RunTriangleCountOnDevice(device, d, options));
    return r.time_ms;
  };
  for (bool dir_opt : {true, false}) {
    run_both(
        dir_opt ? "BFS direction-optimizing" : "BFS top-down only",
        [&](vgpu::Device* device) -> Result<double> {
          core::BfsOptions options;
          options.source = bundle.bfs_source;
          options.assume_symmetric = true;
          options.direction_optimizing = dir_opt;
          ADGRAPH_ASSIGN_OR_RETURN(
              auto r,
              core::Run<core::Algo::kBfs>(device, bundle.symmetric, options));
          return r.time_ms;
        },
        dir_opt ? "nvGRAPH's bottom-up switch" : "frontier expansion only");
  }
  table.AddSeparator();

  run_both(
      "TC degree-oriented DAG",
      [&](vgpu::Device* device) { return run_tc(device, oriented, {}); },
      "this library's optimization");
  run_both(
      "TC Bisson-Fatica (nvGRAPH)",
      [&](vgpu::Device* device) {
        return run_tc(device, bundle.symmetric, BissonFaticaTc());
      },
      "full adjacency + ordering filters");
  run_both(
      "TC binary-search paradigm",
      [&](vgpu::Device* device) {
        core::TcOptions options;
        options.force_binary_search = true;
        return run_tc(device, oriented, options);
      },
      "paper's 'other mainstream paradigm'");
  table.AddSeparator();

  for (uint32_t capacity : {512u, 2048u, 8192u}) {
    run_both(
        "TC hash capacity " + std::to_string(capacity),
        [&](vgpu::Device* device) {
          core::TcOptions options = BissonFaticaTc();
          options.hash_capacity = capacity;
          return run_tc(device, bundle.symmetric, options);
        },
        capacity == 2048 ? "paper-reproduction setting" : "");
  }
  return Emit(config,
              "=== Algorithm-design ablation on " + bundle.spec.name +
                  " (runtimes, ms) ===\n",
              table, "ablation_algos");
}

/// The paper's §5.3 conjecture (threat-to-validity #3): optimized data
/// layouts could reduce the irregular-access penalty behind Hypothesis 2.
/// Runs BFS and TC under three vertex labelings — original (permuted ids),
/// degree-ordered, BFS-ordered — on both flagship GPUs and reports runtime
/// plus the memory-efficiency metrics the layout actually moves.
Status WriteExtReordering(const BenchConfig& config,
                          const DatasetBundle& bundle) {
  const graph::CsrGraph& base = bundle.symmetric;
  ADGRAPH_ASSIGN_OR_RETURN(
      graph::CsrGraph by_degree,
      graph::ApplyPermutation(base, graph::DegreeOrder(base)));
  ADGRAPH_ASSIGN_OR_RETURN(
      graph::CsrGraph by_bfs,
      graph::ApplyPermutation(base, graph::BfsOrder(base, 0)));
  const std::pair<const char*, const graph::CsrGraph*> layouts[] = {
      {"original ids", &base},
      {"degree order", &by_degree},
      {"BFS order", &by_bfs}};

  TablePrinter table({"GPU", "layout", "BFS ms", "BFS gld_eff", "BFS L2 hit",
                      "TC ms", "TC L2 hit"});
  for (const auto* arch : {&vgpu::Z100LConfig(), &vgpu::A100Config()}) {
    for (const auto& [name, g] : layouts) {
      auto device = MakeDevice(*arch, bundle);
      prof::Session bfs_session(device.get());
      core::BfsOptions bfs_options;
      bfs_options.source = MaxDegreeVertex(*g);
      bfs_options.assume_symmetric = true;
      ADGRAPH_ASSIGN_OR_RETURN(
          auto bfs, core::Run<core::Algo::kBfs>(device.get(), *g, bfs_options));
      auto bfs_profile = bfs_session.Finish();

      prof::Session tc_session(device.get());
      ADGRAPH_ASSIGN_OR_RETURN(auto uploaded,
                               core::DeviceCsr::Upload(device.get(), *g));
      ADGRAPH_ASSIGN_OR_RETURN(
          auto tc, core::RunTriangleCountOnDevice(device.get(), uploaded,
                                                  BissonFaticaTc()));
      auto tc_profile = tc_session.Finish();

      table.AddRow(
          {arch->name, name, FormatFixed(bfs.time_ms, 4),
           FormatFixed(100 * bfs_profile.gld_efficiency, 1) + "%",
           FormatFixed(100 * bfs_profile.l2_hit_rate, 1) + "%",
           FormatFixed(tc.time_ms, 4),
           FormatFixed(100 * tc_profile.l2_hit_rate, 1) + "%"});
    }
    table.AddSeparator();
  }
  return Emit(config,
              "=== Extension: data-layout (vertex reordering) study on " +
                  bundle.spec.name +
                  " ===\n(the paper's §5.3 conjecture: better layouts "
                  "weaken the irregular-access premise of Hypothesis 2)\n",
              table, "ext_reordering");
}

Status RunStudies(const BenchConfig& config, const DatasetBundle& bundle) {
  ADGRAPH_ASSIGN_OR_RETURN(graph::CsrGraph oriented,
                           core::OrientByDegree(bundle.directed));
  ADGRAPH_RETURN_NOT_OK(WriteAblationHypotheses(config, bundle, oriented));
  ADGRAPH_RETURN_NOT_OK(WriteAblationAlgos(config, bundle, oriented));
  return WriteExtReordering(config, bundle);
}

// ---------------------------------------------------------------- cells

/// Runs the dataset's Table 5 cells into `ds`.  Each cell owns its device
/// and only reads the bundle, so the cells run on parallel host threads,
/// each into its own slot; the first error in serial (algorithm, GPU)
/// order is the one reported.
Status RunCells(const DatasetBundle& bundle, DatasetCells* ds) {
  struct Cell {
    const vgpu::ArchConfig* gpu;
    Algo algo;
  };
  std::vector<Cell> cells;
  for (Algo algo : kAlgos) {
    for (const auto* gpu : vgpu::PaperGpus()) cells.push_back({gpu, algo});
  }
  std::vector<std::optional<Result<CellResult>>> results(cells.size());
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t i; (i = next.fetch_add(1)) < cells.size();) {
      results[i].emplace(RunCell(*cells[i].gpu, bundle, cells[i].algo));
    }
  };
  const size_t threads = std::min<size_t>(
      cells.size(), std::max(1u, std::thread::hardware_concurrency()));
  std::vector<std::thread> helpers;
  for (size_t t = 1; t < threads; ++t) helpers.emplace_back(work);
  work();
  for (std::thread& helper : helpers) helper.join();
  for (size_t i = 0; i < cells.size(); ++i) {
    ADGRAPH_ASSIGN_OR_RETURN(ds->cells[cells[i].gpu->name][cells[i].algo],
                             std::move(*results[i]));
  }
  return Status::OK();
}

// ---------------------------------------------------------------- main

Status Run(const BenchConfig& config) {
  // An unknown name would silently rewrite every CSV as an empty table.
  for (const std::string& name : config.datasets) {
    ADGRAPH_RETURN_NOT_OK(graph::FindDataset(name).status());
  }
  EnsureOutDir(config);
  ADGRAPH_RETURN_NOT_OK(WriteTable3(config));

  // One dataset at a time: its bundle lives only while its cells run.
  TablePrinter table4 = MakeTable4();
  std::vector<DatasetCells> grid;
  for (const auto& spec : config.SelectedDatasets()) {
    ADGRAPH_ASSIGN_OR_RETURN(DatasetBundle bundle,
                             BuildBundle(spec, config.extra_divisor));
    AddTable4Row(bundle, &table4);
    DatasetCells& ds = grid.emplace_back();
    ds.spec = spec;
    ADGRAPH_RETURN_NOT_OK(RunCells(bundle, &ds));
    if (spec.name == kStudyDataset) {
      ADGRAPH_RETURN_NOT_OK(RunStudies(config, bundle));
    }
  }

  ADGRAPH_RETURN_NOT_OK(Emit(
      config, "=== Table 4: Specification of DataSet (proxies) ===\n", table4,
      "table4_datasets"));
  ADGRAPH_RETURN_NOT_OK(WriteTable5(config, grid));
  ADGRAPH_RETURN_NOT_OK(WriteSpeedupFigure(
      config, grid, vgpu::Z100Config(), vgpu::V100Config(),
      "Figure 4: Speed Up of adGRAPH on Z100 relative to nvGRAPH on V100",
      "fig4_speedup_g1"));
  ADGRAPH_RETURN_NOT_OK(WriteSpeedupFigure(
      config, grid, vgpu::Z100LConfig(), vgpu::A100Config(),
      "Figure 5: Speed Up of adGRAPH on Z100L relative to nvGRAPH on A100",
      "fig5_speedup_g2"));
  ADGRAPH_RETURN_NOT_OK(WriteSpeedupFigure(
      config, grid, vgpu::Z100LConfig(), vgpu::Z100Config(),
      "Figure 6: Speed Up of adGRAPH on Z100L relative to Z100",
      "fig6_gen_scaling"));
  ADGRAPH_RETURN_NOT_OK(WriteTable6(config, grid));
  ADGRAPH_RETURN_NOT_OK(WriteCoarseFigure(
      config, grid, vgpu::A100Config(),
      "Figure 7: Coarse-grained Profiling Results of nvGRAPH on A100",
      "fig7_coarse_a100"));
  return WriteCoarseFigure(
      config, grid, vgpu::Z100LConfig(),
      "Figure 8: Coarse-grained Profiling Results of adGRAPH on Z100L",
      "fig8_coarse_z100l");
}

}  // namespace
}  // namespace adgraph::bench

int main(int argc, char** argv) {
  auto config = adgraph::bench::BenchConfig::FromArgs(argc, argv);
  if (!config.ok()) {
    std::cerr << "adgraph_repro: " << config.status().ToString() << "\n";
    return 2;
  }
  auto status = adgraph::bench::Run(*config);
  if (!status.ok()) {
    std::cerr << "adgraph_repro: " << status.ToString() << "\n";
    return 1;
  }
  return 0;
}
