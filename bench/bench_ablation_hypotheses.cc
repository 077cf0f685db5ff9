// Ablation bench for the paper's §5 hypotheses: starting from the Z100L
// configuration, flips ONE architectural parameter at a time and measures
// the runtime impact on BFS / TC / ESBV — isolating the mechanisms the
// paper can only infer from cross-vendor comparisons:
//
//   H1 warp width:      wavefront 64 -> warp 32
//   H2/H4 LDS path:     independent LDS -> unified with L1 (NVIDIA-style)
//   H3 paradigm:        SIMD -> SIMT (divergent-path stall overlap)
//   H5 RAM technology:  HBM2 1024 GB/s -> HBM2e 1935 GB/s (A100's)
//
// Each row reports speedup over the unmodified baseline (>1: the flip
// helps).  By construction the simulator changes nothing else.

#include <array>
#include <iostream>

#include "bench/bench_common.h"
#include "core/api.h"
#include "core/subgraph.h"
#include "core/triangle_count.h"
#include "graph/generate.h"
#include "util/table.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"

namespace adgraph::bench {
namespace {

struct Workloads {
  graph::CsrGraph symmetric;
  graph::CsrGraph oriented;
  graph::CsrGraph weighted;
  std::vector<graph::vid_t> cluster;
  graph::vid_t source = 0;
  double scale = 1;
};

Result<Workloads> BuildWorkloads(const BenchConfig& config) {
  ADGRAPH_ASSIGN_OR_RETURN(auto spec,
                           graph::FindDataset("soc-liveJournal1"));
  Workloads w;
  w.scale = spec.scale_divisor * config.extra_divisor;
  ADGRAPH_ASSIGN_OR_RETURN(auto directed,
                           graph::Materialize(spec, config.extra_divisor));
  graph::CsrBuildOptions sym;
  sym.make_undirected = true;
  sym.remove_duplicates = true;
  sym.remove_self_loops = true;
  ADGRAPH_ASSIGN_OR_RETURN(w.symmetric,
                           graph::CsrGraph::FromCoo(directed.ToCoo(), sym));
  for (graph::vid_t v = 0; v < w.symmetric.num_vertices(); ++v) {
    if (w.symmetric.degree(v) > w.symmetric.degree(w.source)) w.source = v;
  }
  ADGRAPH_ASSIGN_OR_RETURN(w.oriented, core::OrientByDegree(directed));
  auto coo = directed.ToCoo();
  graph::AttachRandomWeights(&coo, 0.0, 1.0, 7);
  ADGRAPH_ASSIGN_OR_RETURN(w.weighted, graph::CsrGraph::FromCoo(coo));
  w.cluster = core::SelectPseudoCluster(w.weighted.num_vertices(), 0.6, 42);
  return w;
}

Result<std::array<double, 3>> RunAll(const vgpu::ArchConfig& arch,
                                     const Workloads& w) {
  vgpu::Device::Options options;
  options.memory_scale = w.scale;
  vgpu::Device device(arch, options);
  std::array<double, 3> times{};

  core::BfsOptions bfs;
  bfs.source = w.source;
  bfs.assume_symmetric = true;
  ADGRAPH_ASSIGN_OR_RETURN(
      auto b, core::Run<core::Algo::kBfs>(&device, w.symmetric, bfs));
  times[0] = b.time_ms;

  ADGRAPH_ASSIGN_OR_RETURN(auto dag,
                           core::DeviceCsr::Upload(&device, w.oriented));
  ADGRAPH_ASSIGN_OR_RETURN(auto t,
                           core::RunTriangleCountOnDevice(&device, dag, {}));
  times[1] = t.time_ms;

  core::EsbvOptions esbv;
  esbv.vertices = w.cluster;
  ADGRAPH_ASSIGN_OR_RETURN(
      auto e, core::ExtractSubgraphByVertex(&device, w.weighted, esbv));
  times[2] = e.time_ms;
  return times;
}

int Main(int argc, char** argv) {
  BenchConfig config = BenchConfig::FromArgs(argc, argv);
  EnsureOutDir(config);
  auto workloads = BuildWorkloads(config);
  if (!workloads.ok()) {
    std::cerr << workloads.status().ToString() << "\n";
    return 1;
  }

  struct Variant {
    std::string name;
    std::string hypothesis;
    vgpu::ArchConfig arch;
  };
  std::vector<Variant> variants;
  const vgpu::ArchConfig base = vgpu::Z100LConfig();
  {
    vgpu::ArchConfig a = base;
    a.warp_width = 32;
    variants.push_back({"wavefront 64 -> warp 32", "H1", a});
  }
  {
    vgpu::ArchConfig a = base;
    a.shared_path = vgpu::SharedMemPath::kUnifiedWithL1;
    a.smem_latency_cycles = vgpu::A100Config().smem_latency_cycles;
    variants.push_back({"independent LDS -> unified", "H2/H4", a});
  }
  {
    vgpu::ArchConfig a = base;
    a.paradigm = vgpu::Paradigm::kSimt;
    variants.push_back({"SIMD -> SIMT", "H3", a});
  }
  {
    vgpu::ArchConfig a = base;
    a.dram_bandwidth_gbps = vgpu::A100Config().dram_bandwidth_gbps;
    a.dram_latency_cycles = vgpu::A100Config().dram_latency_cycles;
    variants.push_back({"HBM2 -> HBM2e (A100 RAM)", "H5", a});
  }

  auto baseline = RunAll(base, *workloads);
  if (!baseline.ok()) {
    std::cerr << baseline.status().ToString() << "\n";
    return 1;
  }

  TablePrinter table(
      {"Variant (vs Z100L)", "Hypothesis", "BFS", "TC", "ESBV"});
  table.AddRow({"baseline runtime (ms)", "-",
                FormatFixed((*baseline)[0], 3), FormatFixed((*baseline)[1], 3),
                FormatFixed((*baseline)[2], 3)});
  table.AddSeparator();
  for (const auto& variant : variants) {
    auto times = RunAll(variant.arch, *workloads);
    if (!times.ok()) {
      std::cerr << times.status().ToString() << "\n";
      return 1;
    }
    std::vector<std::string> row{variant.name, variant.hypothesis};
    for (int i = 0; i < 3; ++i) {
      row.push_back(FormatFixed((*baseline)[i] / (*times)[i], 3) + "x");
    }
    table.AddRow(std::move(row));
  }

  std::cout << "=== Ablation: isolating the paper's Hypotheses 1-5 on "
               "soc-liveJournal1 ===\n"
            << "(speedup of the flipped configuration over stock Z100L; "
               ">1 = the flip helps that algorithm)\n";
  table.Print(std::cout);
  auto status = table.WriteCsv(config.out_dir + "/ablation_hypotheses.csv");
  if (!status.ok()) std::cerr << status.ToString() << "\n";
  return 0;
}

}  // namespace
}  // namespace adgraph::bench

int main(int argc, char** argv) { return adgraph::bench::Main(argc, argv); }
