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

}  // namespace adgraph::core

#endif  // ADGRAPH_CORE_KCORE_H_
