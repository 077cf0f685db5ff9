// The paper in miniature: run the same BFS binary-identically on all four
// simulated GPUs and dump the dual-view profiling the study is built on —
// ncu-style metrics for the NVIDIA parts, ROCm-style for the AMD-like
// parts — straight from the library's profiling API.
//
//   $ ./build/examples/arch_compare [--scale=14]

#include <cstdio>

#include "core/api.h"
#include "graph/csr.h"
#include "graph/generate.h"
#include "prof/metrics.h"
#include "prof/session.h"
#include "runtime/runtime.h"
#include "util/flags.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"

using namespace adgraph;

int main(int argc, char** argv) {
  auto flags = Flags::Parse(argc, argv).value();
  uint32_t scale = static_cast<uint32_t>(flags.GetInt("scale", 14));

  graph::RmatParams params;
  params.scale = scale;
  params.edge_factor = 12;
  params.seed = 99;
  auto coo = graph::GenerateRmat(params).value();
  graph::CsrBuildOptions sym;
  sym.make_undirected = true;
  sym.remove_duplicates = true;
  sym.remove_self_loops = true;
  auto g = graph::CsrGraph::FromCoo(coo, sym).value();
  graph::vid_t source = 0;
  for (graph::vid_t v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) > g.degree(source)) source = v;
  }
  std::printf("workload: BFS over %u vertices / %llu undirected edges, "
              "source %u\n\n",
              g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()), source);

  for (const auto* arch : vgpu::PaperGpus()) {
    vgpu::Device device(*arch);
    auto platform = rt::PlatformOf(device);

    prof::Session session(&device);
    core::BfsOptions options;
    options.source = source;
    options.assume_symmetric = true;
    auto bfs = core::Run<core::Algo::kBfs>(&device, g, options);
    if (!bfs.ok()) {
      std::fprintf(stderr, "%s: %s\n", device.name().c_str(),
                   bfs.status().ToString().c_str());
      return 1;
    }
    auto profile = session.Finish();

    std::printf("=== %s (%s, %s / %s, wavefront %u) ===\n",
                device.name().c_str(), arch->vendor.c_str(),
                rt::PlatformName(platform).c_str(),
                rt::LibraryNameOn(platform).c_str(), arch->warp_width);
    std::printf("  runtime %.4f ms  (%.1f MTEPS), %llu kernel launches\n",
                bfs->time_ms,
                static_cast<double>(g.num_edges()) / (bfs->time_ms * 1e3),
                static_cast<unsigned long long>(profile.num_kernels));

    auto fine = prof::ComputeFineGrained(profile, platform);
    auto fine_names = prof::FineGrainedMetricNames(platform);
    std::printf("  fine-grained (instruction counts, Tables 1/6):\n");
    const uint64_t fine_values[4] = {fine.type1, fine.type2, fine.type3,
                                     fine.type4};
    for (int i = 0; i < 4; ++i) {
      std::printf("    %-30s %12llu  (%.0f /ms)\n", fine_names[i].c_str(),
                  static_cast<unsigned long long>(fine_values[i]),
                  static_cast<double>(fine_values[i]) / bfs->time_ms);
    }

    auto coarse = prof::ComputeCoarse(profile, platform, *arch,
                                      vgpu::DefaultTimingParams());
    auto coarse_names = prof::CoarseMetricNames(platform);
    const double coarse_values[4] = {coarse.warp_utilization,
                                     coarse.shared_memory, coarse.l2_hit,
                                     coarse.global_memory};
    std::printf("  coarse-grained (utilization, Tables 2 / Figs 7-8):\n");
    for (int i = 0; i < 4; ++i) {
      std::printf("    %-30s %6.1f%%\n", coarse_names[i].c_str(),
                  coarse_values[i] * 100);
    }
    std::printf("\n");
  }
  std::printf("Same library, same graph, same source: only the simulated "
              "architecture differs.\n");
  return 0;
}
