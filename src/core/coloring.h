#ifndef ADGRAPH_CORE_COLORING_H_
#define ADGRAPH_CORE_COLORING_H_

#include <cstdint>
#include <vector>

#include "graph/csr.h"
#include "util/status.h"
#include "vgpu/device.h"

namespace adgraph::core {

struct ColoringOptions {
  uint64_t seed = 1;  ///< priority hash seed (determinism knob)
};

struct ColoringResult {
  /// Per-vertex color; adjacent vertices (undirected interpretation)
  /// always differ.
  std::vector<uint32_t> colors;
  uint32_t num_colors = 0;
  uint32_t rounds = 0;
  double time_ms = 0;
};

/// Jones-Plassmann greedy graph coloring: each round, vertices whose
/// hashed priority beats all uncolored neighbors take the smallest color
/// unused among colored neighbors.  The hybrid-coloring scheduling
/// primitive behind systems like Frog (paper §2.1 related work).
class GraphResidency;

Result<ColoringResult> RunGraphColoring(vgpu::Device* device,
                                        const graph::CsrGraph& g,
                                        const ColoringOptions& options,
                                        GraphResidency* residency = nullptr);

}  // namespace adgraph::core

#endif  // ADGRAPH_CORE_COLORING_H_
