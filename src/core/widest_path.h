#ifndef ADGRAPH_CORE_WIDEST_PATH_H_
#define ADGRAPH_CORE_WIDEST_PATH_H_

#include <cstdint>
#include <vector>

#include "graph/types.h"

namespace adgraph::core {

/// Options of single-source widest (bottleneck / max-min) path — one of
/// nvGRAPH's semiring-SpMV algorithms: iterated (max, min) relaxations
/// (`core::Run` with Algo::kWidestPath; the driver is
/// engine::RunWidestPath).  Requires non-negative weights (unweighted edges
/// count as capacity 1).  At most num_vertices - 1 rounds run.
struct WidestPathOptions {
  graph::vid_t source = 0;
};

struct WidestPathResult {
  /// Per-vertex bottleneck capacity from the source: the maximum over all
  /// paths of the minimum edge weight along the path.  +infinity at the
  /// source, 0 for unreachable vertices.
  std::vector<double> widths;
  uint32_t rounds = 0;
  double time_ms = 0;
};

}  // namespace adgraph::core

#endif  // ADGRAPH_CORE_WIDEST_PATH_H_
