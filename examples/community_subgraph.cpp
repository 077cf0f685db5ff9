// Community analysis pipeline: extract a vertex community from a weighted
// web-crawl proxy with ESBV, then characterize it — triangle count
// (clustering), connected components, and k-core — all on the simulated
// GPU.  Chains four library algorithms through one device.
//
//   $ ./build/examples/community_subgraph [--gpu=A100] [--fraction=0.4]

#include <cstdio>
#include <string>

#include "core/api.h"
#include "core/kcore.h"
#include "core/subgraph.h"
#include "core/triangle_count.h"
#include "graph/generate.h"
#include "graph/stats.h"
#include "util/flags.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"

using namespace adgraph;

int main(int argc, char** argv) {
  auto flags = Flags::Parse(argc, argv).value();
  double fraction = flags.GetDouble("fraction", 0.4);
  std::string gpu_name = flags.GetString("gpu", "A100");
  const vgpu::ArchConfig* arch = &vgpu::A100Config();
  for (const auto* gpu : vgpu::PaperGpus()) {
    if (gpu->name == gpu_name) arch = gpu;
  }

  // A weighted web-crawl proxy (ESBV requires edge weights, paper §4.5).
  graph::RmatParams params;
  params.scale = 14;
  params.edge_factor = 10;
  params.a = 0.45;
  params.b = 0.25;
  params.c = 0.25;
  params.d = 0.05;
  params.permute_vertices = false;
  params.seed = 7;
  auto coo = graph::GenerateRmat(params).value();
  graph::AttachRandomWeights(&coo, 0.1, 1.0, 8);
  graph::CsrBuildOptions clean;
  clean.remove_duplicates = true;
  clean.remove_self_loops = true;
  auto g = graph::CsrGraph::FromCoo(coo, clean).value();
  std::printf("web proxy: %u pages, %llu weighted links\n", g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()));

  vgpu::Device device(*arch);

  // 1. Extract the community (pseudo-cluster of `fraction` of vertices).
  core::EsbvOptions esbv;
  esbv.vertices =
      core::SelectPseudoCluster(g.num_vertices(), fraction, /*seed=*/3);
  auto extraction = core::ExtractSubgraphByVertex(&device, g, esbv);
  if (!extraction.ok()) {
    std::fprintf(stderr, "ESBV failed: %s\n",
                 extraction.status().ToString().c_str());
    return 1;
  }
  const graph::CsrGraph& community = extraction->subgraph;
  std::printf("ESBV on %s: %llu vertices, %llu edges kept (%.3f ms)\n",
              device.name().c_str(),
              static_cast<unsigned long long>(extraction->subgraph_vertices),
              static_cast<unsigned long long>(extraction->subgraph_edges),
              extraction->time_ms);
  if (community.num_edges() == 0) {
    std::printf("empty community; nothing to analyze\n");
    return 0;
  }

  // 2. Clustering structure: triangles per edge.
  auto tc = core::RunTriangleCount(&device, community, {}).value();
  double closure = static_cast<double>(tc.triangles) /
                   static_cast<double>(tc.oriented_edges);
  std::printf("triangles: %llu (%.4f per undirected edge, %.3f ms)\n",
              static_cast<unsigned long long>(tc.triangles), closure,
              tc.time_ms);

  // 3. Cohesion: connected components of the community.
  auto cc =
      core::Run<core::Algo::kConnectedComponents>(&device, community, {})
          .value();
  std::printf("components: %llu across %u vertices (%.3f ms)\n",
              static_cast<unsigned long long>(cc.num_components),
              community.num_vertices(), cc.time_ms);

  // 4. Core structure: who survives 4-core peeling?
  core::KCoreOptions kcore;
  kcore.k = 4;
  auto core4 = core::RunKCore(&device, community, kcore).value();
  std::printf("4-core: %llu vertices after %u peel rounds (%.3f ms)\n",
              static_cast<unsigned long long>(core4.core_size),
              core4.peel_rounds, core4.time_ms);

  std::printf("total modeled GPU time: %.3f ms\n", device.elapsed_ms());
  return 0;
}
