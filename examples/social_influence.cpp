// Social-network influence analysis: generate a power-law "social graph"
// proxy, run PageRank on a simulated GPU, and report the top influencers
// plus how rank correlates with degree — the recommendation-system style
// workload the paper's introduction motivates.
//
//   $ ./build/examples/social_influence [--scale=14] [--gpu=Z100L]

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/api.h"
#include "graph/csr.h"
#include "graph/generate.h"
#include "graph/stats.h"
#include "util/flags.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"

using namespace adgraph;

namespace {

const vgpu::ArchConfig& GpuByName(const std::string& name) {
  for (const auto* gpu : vgpu::PaperGpus()) {
    if (gpu->name == name) return *gpu;
  }
  std::fprintf(stderr, "unknown GPU '%s', using Z100L\n", name.c_str());
  return vgpu::Z100LConfig();
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = Flags::Parse(argc, argv).value();
  uint32_t scale = static_cast<uint32_t>(flags.GetInt("scale", 14));
  const auto& arch = GpuByName(flags.GetString("gpu", "Z100L"));

  // A followers-style graph: heavy-tailed in-degree (celebrities).
  graph::RmatParams params;
  params.scale = scale;
  params.edge_factor = 16;
  params.a = 0.50;
  params.b = 0.22;
  params.c = 0.22;
  params.d = 0.06;
  params.seed = 2024;
  auto coo = graph::GenerateRmat(params);
  if (!coo.ok()) {
    std::fprintf(stderr, "%s\n", coo.status().ToString().c_str());
    return 1;
  }
  graph::CsrBuildOptions clean;
  clean.remove_duplicates = true;
  clean.remove_self_loops = true;
  auto g = graph::CsrGraph::FromCoo(*coo, clean).value();
  auto stats = graph::ComputeDegreeStats(g);
  std::printf("social proxy: %u users, %llu follow edges, max out-degree "
              "%u (skew %.0fx)\n",
              stats.num_vertices,
              static_cast<unsigned long long>(stats.num_edges),
              stats.max_degree, stats.skew());

  vgpu::Device device(arch);
  core::PageRankOptions options;
  options.alpha = 0.85;
  options.max_iterations = 60;
  options.tolerance = 1e-8;
  auto pr = core::Run<core::Algo::kPageRank>(&device, g, options);
  if (!pr.ok()) {
    std::fprintf(stderr, "PageRank failed: %s\n",
                 pr.status().ToString().c_str());
    return 1;
  }
  std::printf("PageRank on %s: %u iterations, final L1 delta %.2e, "
              "modeled GPU time %.3f ms\n",
              device.name().c_str(), pr->iterations, pr->l1_delta,
              pr->time_ms);

  // Top influencers: who gathers the most rank mass?
  std::vector<graph::vid_t> order(g.num_vertices());
  for (graph::vid_t v = 0; v < g.num_vertices(); ++v) order[v] = v;
  std::sort(order.begin(), order.end(), [&](graph::vid_t a, graph::vid_t b) {
    return pr->ranks[a] > pr->ranks[b];
  });
  // In-degree for context (influence flows along incoming follows).
  auto gt = g.Transpose();
  std::printf("top 10 influencers:\n");
  std::printf("  %-8s %-12s %-10s\n", "user", "rank", "followers");
  for (int i = 0; i < 10 && i < static_cast<int>(order.size()); ++i) {
    graph::vid_t v = order[i];
    std::printf("  %-8u %-12.3e %-10u\n", v, pr->ranks[v], gt.degree(v));
  }

  // Rank concentration: how much of the total rank the top 1% holds — the
  // hallmark of power-law influence structure.
  size_t top = std::max<size_t>(1, order.size() / 100);
  double mass = 0;
  for (size_t i = 0; i < top; ++i) mass += pr->ranks[order[i]];
  std::printf("top 1%% of users hold %.1f%% of total rank\n", mass * 100);
  return 0;
}
