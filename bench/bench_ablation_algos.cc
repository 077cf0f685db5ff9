// Algorithm-design ablation: the implementation choices DESIGN.md calls
// out, each toggled on both flagship GPUs over the soc-liveJournal1 proxy:
//
//   BFS: direction-optimizing (nvGRAPH's bottom-up, paper §4.4) vs pure
//        top-down;
//   TC:  degree-oriented DAG (this library's optimization) vs the
//        nvGRAPH-style Bisson-Fatica full-adjacency kernel vs forcing the
//        binary-search paradigm ("the other mainstream paradigm", §4.4),
//        plus a shared-memory hash capacity sweep (the fallback boundary).

#include <iostream>
#include <string>

#include "bench/bench_common.h"
#include "core/api.h"
#include "core/triangle_count.h"
#include "graph/generate.h"
#include "util/table.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"

namespace adgraph::bench {
namespace {

int Main(int argc, char** argv) {
  BenchConfig config = BenchConfig::FromArgs(argc, argv);
  EnsureOutDir(config);

  auto spec_result = graph::FindDataset("soc-liveJournal1");
  if (!spec_result.ok()) return 1;
  const auto& spec = *spec_result;
  auto directed = graph::Materialize(spec, config.extra_divisor);
  if (!directed.ok()) {
    std::cerr << directed.status().ToString() << "\n";
    return 1;
  }
  graph::CsrBuildOptions sym_options;
  sym_options.make_undirected = true;
  sym_options.remove_duplicates = true;
  sym_options.remove_self_loops = true;
  auto sym = graph::CsrGraph::FromCoo(directed->ToCoo(), sym_options).value();
  graph::vid_t source = 0;
  for (graph::vid_t v = 0; v < sym.num_vertices(); ++v) {
    if (sym.degree(v) > sym.degree(source)) source = v;
  }
  auto oriented = core::OrientByDegree(*directed).value();

  TablePrinter table({"Variant", "Z100L ms", "A100 ms", "notes"});
  auto run_both = [&](const std::string& name, auto fn,
                      const std::string& notes) {
    std::vector<std::string> row{name};
    for (const auto* arch : {&vgpu::Z100LConfig(), &vgpu::A100Config()}) {
      vgpu::Device::Options options;
      options.memory_scale = spec.scale_divisor * config.extra_divisor;
      vgpu::Device device(*arch, options);
      auto time = fn(&device);
      row.push_back(time.ok() ? FormatFixed(*time, 3)
                              : time.status().ToString());
    }
    row.push_back(notes);
    table.AddRow(std::move(row));
  };

  // --- BFS direction ablation -------------------------------------------
  for (bool dir_opt : {true, false}) {
    run_both(
        dir_opt ? "BFS direction-optimizing" : "BFS top-down only",
        [&](vgpu::Device* device) -> Result<double> {
          core::BfsOptions options;
          options.source = source;
          options.assume_symmetric = true;
          options.direction_optimizing = dir_opt;
          ADGRAPH_ASSIGN_OR_RETURN(
              auto r, core::Run<core::Algo::kBfs>(device, sym, options));
          return r.time_ms;
        },
        dir_opt ? "nvGRAPH's bottom-up switch" : "frontier expansion only");
  }
  table.AddSeparator();

  // --- TC paradigm ablation ----------------------------------------------
  run_both(
      "TC degree-oriented DAG",
      [&](vgpu::Device* device) -> Result<double> {
        ADGRAPH_ASSIGN_OR_RETURN(auto d,
                                 core::DeviceCsr::Upload(device, oriented));
        ADGRAPH_ASSIGN_OR_RETURN(
            auto r, core::RunTriangleCountOnDevice(device, d, {}));
        return r.time_ms;
      },
      "this library's optimization");
  run_both(
      "TC Bisson-Fatica (nvGRAPH)",
      [&](vgpu::Device* device) -> Result<double> {
        ADGRAPH_ASSIGN_OR_RETURN(auto d, core::DeviceCsr::Upload(device, sym));
        core::TcOptions options;
        options.orient = false;
        options.hash_capacity = 2048;
        ADGRAPH_ASSIGN_OR_RETURN(
            auto r, core::RunTriangleCountOnDevice(device, d, options));
        return r.time_ms;
      },
      "full adjacency + ordering filters");
  run_both(
      "TC binary-search paradigm",
      [&](vgpu::Device* device) -> Result<double> {
        ADGRAPH_ASSIGN_OR_RETURN(auto d,
                                 core::DeviceCsr::Upload(device, oriented));
        core::TcOptions options;
        options.force_binary_search = true;
        ADGRAPH_ASSIGN_OR_RETURN(
            auto r, core::RunTriangleCountOnDevice(device, d, options));
        return r.time_ms;
      },
      "paper's 'other mainstream paradigm'");
  table.AddSeparator();

  // --- TC shared-set capacity sweep ---------------------------------------
  for (uint32_t capacity : {512u, 2048u, 8192u}) {
    run_both(
        "TC hash capacity " + std::to_string(capacity),
        [&](vgpu::Device* device) -> Result<double> {
          ADGRAPH_ASSIGN_OR_RETURN(auto d,
                                   core::DeviceCsr::Upload(device, sym));
          core::TcOptions options;
          options.orient = false;
          options.hash_capacity = capacity;
          ADGRAPH_ASSIGN_OR_RETURN(
              auto r, core::RunTriangleCountOnDevice(device, d, options));
          return r.time_ms;
        },
        capacity == 2048 ? "paper-reproduction setting" : "");
  }

  std::cout << "=== Algorithm-design ablation on soc-liveJournal1 "
               "(runtimes, ms) ===\n";
  table.Print(std::cout);
  auto status = table.WriteCsv(config.out_dir + "/ablation_algos.csv");
  if (!status.ok()) std::cerr << status.ToString() << "\n";
  return 0;
}

}  // namespace
}  // namespace adgraph::bench

int main(int argc, char** argv) { return adgraph::bench::Main(argc, argv); }
