#ifndef ADGRAPH_CORE_CONN_COMPONENTS_H_
#define ADGRAPH_CORE_CONN_COMPONENTS_H_

#include <cstdint>
#include <vector>

#include "graph/types.h"

namespace adgraph::core {

/// Options of weakly connected components via min-label propagation on
/// the symmetrized graph (`core::Run` with Algo::kConnectedComponents; the
/// driver is engine::RunConnectedComponents).
struct CcOptions {};

struct CcResult {
  /// Per-vertex component label = smallest vertex id in the component.
  std::vector<graph::vid_t> labels;
  uint64_t num_components = 0;
  uint32_t iterations = 0;
  double time_ms = 0;
};

}  // namespace adgraph::core

#endif  // ADGRAPH_CORE_CONN_COMPONENTS_H_
