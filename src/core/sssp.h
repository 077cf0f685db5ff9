#ifndef ADGRAPH_CORE_SSSP_H_
#define ADGRAPH_CORE_SSSP_H_

#include <cstdint>
#include <vector>

#include "graph/types.h"

namespace adgraph::core {

/// Options of frontier-based Bellman-Ford single-source shortest paths
/// (`core::Run` with Algo::kSssp; the driver is engine::RunSssp): each
/// round is a min-plus relaxation of the vertices whose distance changed
/// last round (the tropical-semiring iteration nvGRAPH's SSSP is built on).
/// Unweighted edges count as 1.  Negative weights are rejected.
struct SsspOptions {
  graph::vid_t source = 0;
  uint32_t block_size = 256;
  /// Safety bound on relaxation rounds (0 = num_vertices - 1).
  uint32_t max_rounds = 0;
};

struct SsspResult {
  /// Per-vertex distance (+infinity when unreachable).
  std::vector<double> distances;
  uint32_t rounds = 0;
  double time_ms = 0;
};

}  // namespace adgraph::core

#endif  // ADGRAPH_CORE_SSSP_H_
