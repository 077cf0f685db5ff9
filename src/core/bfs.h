#ifndef ADGRAPH_CORE_BFS_H_
#define ADGRAPH_CORE_BFS_H_

#include <cstdint>
#include <vector>

#include "graph/types.h"

namespace adgraph::core {

/// Level value of vertices the traversal never reached.
inline constexpr uint32_t kUnreachedLevel = 0xFFFFFFFFu;

/// Options of the GPU breadth-first search (`core::Run` with Algo::kBfs;
/// the driver is engine::RunBfs).  BFS follows out-edges; benchmark callers
/// symmetrize beforehand for undirected-traversal semantics, as
/// Graph500-style BFS studies do.
struct BfsOptions {
  graph::vid_t source = 0;
  /// Direction-optimizing traversal (Beamer-style, as nvGRAPH's
  /// "direction-optimizing BFS", paper §3.2.1): top-down frontier expansion
  /// switches to bottom-up sweeps while the frontier is large.  Bottom-up
  /// scans a vertex's *out*-edges for a parent, which is only correct on
  /// symmetric graphs, so it additionally requires `assume_symmetric`.
  bool direction_optimizing = true;
  /// Caller's promise that the graph is symmetric (undirected).  Without
  /// it the traversal stays purely top-down.
  bool assume_symmetric = false;
  /// Switch to bottom-up when frontier > n / alpha, and back to top-down
  /// once it no longer is.
  double alpha = 16.0;
  /// Also produce the BFS predecessor of every reached vertex (nvGRAPH's
  /// traversal emits both levels and predecessors).
  bool compute_parents = false;
};

/// Outcome of a BFS run.
struct BfsResult {
  /// Per-vertex level from the source (kUnreachedLevel if unreachable).
  std::vector<uint32_t> levels;
  /// When compute_parents: per-vertex predecessor on some shortest path
  /// (kInvalidVertex for the source and unreached vertices).
  std::vector<graph::vid_t> parents;
  uint32_t depth = 0;              ///< deepest reached level
  uint64_t vertices_visited = 0;   ///< vertices with a finite level
  uint32_t top_down_iterations = 0;
  uint32_t bottom_up_iterations = 0;
  /// Modeled device time of the traversal kernels (upload excluded, as the
  /// paper reports on-device algorithm runtimes).
  double time_ms = 0;
};

}  // namespace adgraph::core

#endif  // ADGRAPH_CORE_BFS_H_
