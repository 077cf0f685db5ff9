#ifndef ADGRAPH_CORE_KCORE_H_
#define ADGRAPH_CORE_KCORE_H_

#include <cstdint>
#include <vector>

#include "graph/csr.h"
#include "util/status.h"
#include "vgpu/device.h"

namespace adgraph::core {

struct KCoreOptions {
  uint32_t k = 2;
};

struct KCoreResult {
  /// 1 if the vertex belongs to the k-core of the undirected
  /// interpretation, else 0.
  std::vector<uint32_t> in_core;
  uint64_t core_size = 0;
  uint32_t peel_rounds = 0;
  double time_ms = 0;
};

/// k-core membership by iterative peeling: repeatedly remove vertices with
/// (remaining) undirected degree < k until a fixpoint.
class GraphResidency;

Result<KCoreResult> RunKCore(vgpu::Device* device, const graph::CsrGraph& g,
                             const KCoreOptions& options,
                             GraphResidency* residency = nullptr);

struct CoreDecompositionResult {
  /// Per-vertex core number: the largest k whose k-core contains the
  /// vertex (0 for isolated vertices).
  std::vector<uint32_t> core_numbers;
  uint32_t max_core = 0;
  uint32_t peel_rounds = 0;
  double time_ms = 0;
};

/// Full core decomposition: peels k = 1, 2, ... in sequence, recording the
/// phase at which each vertex leaves (device-side Matula-Beck).
Result<CoreDecompositionResult> RunCoreDecomposition(vgpu::Device* device,
                                                     const graph::CsrGraph& g);

}  // namespace adgraph::core

#endif  // ADGRAPH_CORE_KCORE_H_
