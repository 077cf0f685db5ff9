// Quickstart: build a graph, run BFS on a simulated A100, inspect results.
//
//   $ ./build/examples/quickstart
//
// This walks the whole public API surface once: graph construction, device
// creation, an algorithm run, and the result + timing you get back.

#include <cstdio>

#include "core/api.h"
#include "graph/builder.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"

using namespace adgraph;

int main() {
  // 1. Build a small graph.  GraphBuilder grows the vertex set on demand;
  //    Build() finalizes into the CSR format every algorithm consumes.
  graph::GraphBuilder builder;
  //    0 -+- 1 -+- 3
  //       |     +- 4
  //       +- 2 --- 5 --- 6
  builder.AddEdge(0, 1).AddEdge(0, 2);
  builder.AddEdge(1, 3).AddEdge(1, 4);
  builder.AddEdge(2, 5).AddEdge(5, 6);
  auto graph_result = builder.Build();
  if (!graph_result.ok()) {
    std::fprintf(stderr, "graph build failed: %s\n",
                 graph_result.status().ToString().c_str());
    return 1;
  }
  graph::CsrGraph g = std::move(graph_result).value();
  std::printf("graph: %u vertices, %llu edges\n", g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()));

  // 2. Create a simulated GPU.  The four paper configurations (Z100, V100,
  //    Z100L, A100) are built in; here we use the A100.
  vgpu::Device device(vgpu::A100Config());
  std::printf("device: %s (%s, warp %u, %u SMs)\n", device.name().c_str(),
              device.arch().vendor.c_str(), device.arch().warp_width,
              device.arch().num_sms);

  // 3. Run BFS from vertex 0 through core::Run, the one entry point every
  //    algorithm and the serving layer share.  The graph is uploaded, the
  //    traversal runs as simulated GPU kernels, and levels come back to the
  //    host.
  core::BfsOptions options;
  options.source = 0;
  auto bfs = core::Run<core::Algo::kBfs>(&device, g, options);
  if (!bfs.ok()) {
    std::fprintf(stderr, "BFS failed: %s\n", bfs.status().ToString().c_str());
    return 1;
  }

  // 4. Inspect the results.
  std::printf("BFS from vertex 0 visited %llu vertices, depth %u, "
              "modeled GPU time %.4f ms\n",
              static_cast<unsigned long long>(bfs->vertices_visited),
              bfs->depth, bfs->time_ms);
  for (graph::vid_t v = 0; v < g.num_vertices(); ++v) {
    if (bfs->levels[v] == core::kUnreachedLevel) {
      std::printf("  vertex %u: unreached\n", v);
    } else {
      std::printf("  vertex %u: level %u\n", v, bfs->levels[v]);
    }
  }
  double mteps =
      static_cast<double>(g.num_edges()) / (bfs->time_ms * 1e3);
  std::printf("throughput: %.1f MTEPS (paper Table 5 convention)\n", mteps);
  return 0;
}
