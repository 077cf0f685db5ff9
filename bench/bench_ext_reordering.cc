// Extension experiment (paper §5.3, threat-to-validity #3): the paper
// conjectures that optimized data layouts (RealGraphGPU-style) could
// reduce the irregular-memory-access penalty behind Hypothesis 2.  The
// simulator lets us test that directly: run BFS and TC on
// soc-liveJournal1 under three vertex labelings — original (permuted
// ids), degree-ordered, and BFS-ordered — on both flagship GPUs, and
// report runtime plus the memory-efficiency metrics that the layout
// actually moves.

#include <iostream>
#include <string>

#include "bench/bench_common.h"
#include "core/api.h"
#include "core/triangle_count.h"
#include "graph/reorder.h"
#include "prof/session.h"
#include "util/table.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"

namespace adgraph::bench {
namespace {

struct Layout {
  std::string name;
  graph::CsrGraph symmetric;
};

int Main(int argc, char** argv) {
  BenchConfig config = BenchConfig::FromArgs(argc, argv);
  EnsureOutDir(config);

  auto spec = graph::FindDataset("soc-liveJournal1").value();
  auto directed = graph::Materialize(spec, config.extra_divisor);
  if (!directed.ok()) {
    std::cerr << directed.status().ToString() << "\n";
    return 1;
  }
  graph::CsrBuildOptions sym_options;
  sym_options.make_undirected = true;
  sym_options.remove_duplicates = true;
  sym_options.remove_self_loops = true;
  auto base =
      graph::CsrGraph::FromCoo(directed->ToCoo(), sym_options).value();

  std::vector<Layout> layouts;
  layouts.push_back({"original ids", base});
  layouts.push_back(
      {"degree order",
       graph::ApplyPermutation(base, graph::DegreeOrder(base)).value()});
  layouts.push_back(
      {"BFS order",
       graph::ApplyPermutation(base, graph::BfsOrder(base, 0)).value()});

  TablePrinter table({"GPU", "layout", "BFS ms", "BFS gld_eff", "BFS L2 hit",
                      "TC ms", "TC L2 hit"});
  for (const auto* arch : {&vgpu::Z100LConfig(), &vgpu::A100Config()}) {
    for (const auto& layout : layouts) {
      vgpu::Device::Options options;
      options.memory_scale = spec.scale_divisor * config.extra_divisor;
      vgpu::Device device(*arch, options);

      graph::vid_t source = 0;
      for (graph::vid_t v = 0; v < layout.symmetric.num_vertices(); ++v) {
        if (layout.symmetric.degree(v) > layout.symmetric.degree(source)) {
          source = v;
        }
      }
      prof::Session bfs_session(&device);
      core::BfsOptions bfs_options;
      bfs_options.source = source;
      bfs_options.assume_symmetric = true;
      auto bfs = core::Run<core::Algo::kBfs>(&device, layout.symmetric,
                                             bfs_options);
      if (!bfs.ok()) {
        std::cerr << bfs.status().ToString() << "\n";
        return 1;
      }
      auto bfs_profile = bfs_session.Finish();

      prof::Session tc_session(&device);
      auto uploaded =
          core::DeviceCsr::Upload(&device, layout.symmetric).value();
      core::TcOptions tc_options;
      tc_options.orient = false;
      tc_options.hash_capacity = 2048;
      auto tc = core::RunTriangleCountOnDevice(&device, uploaded, tc_options);
      if (!tc.ok()) {
        std::cerr << tc.status().ToString() << "\n";
        return 1;
      }
      auto tc_profile = tc_session.Finish();

      table.AddRow(
          {arch->name, layout.name, FormatFixed(bfs->time_ms, 4),
           FormatFixed(100 * bfs_profile.counters.gld_efficiency(), 1) + "%",
           FormatFixed(100 * bfs_profile.counters.l2_hit_rate(), 1) + "%",
           FormatFixed(tc->time_ms, 4),
           FormatFixed(100 * tc_profile.counters.l2_hit_rate(), 1) + "%"});
    }
    table.AddSeparator();
  }

  std::cout << "=== Extension: data-layout (vertex reordering) study on "
               "soc-liveJournal1 ===\n"
            << "(the paper's §5.3 conjecture: better layouts weaken the "
               "irregular-access premise of Hypothesis 2)\n";
  table.Print(std::cout);
  auto status = table.WriteCsv(config.out_dir + "/ext_reordering.csv");
  if (!status.ok()) std::cerr << status.ToString() << "\n";
  return 0;
}

}  // namespace
}  // namespace adgraph::bench

int main(int argc, char** argv) { return adgraph::bench::Main(argc, argv); }
