#ifndef ADGRAPH_CORE_JACCARD_H_
#define ADGRAPH_CORE_JACCARD_H_

#include <cstdint>
#include <vector>

#include "graph/csr.h"
#include "util/status.h"
#include "vgpu/device.h"

namespace adgraph::core {

struct JaccardOptions {};

struct JaccardResult {
  /// Per-edge Jaccard coefficient in CSR edge order.
  std::vector<double> coefficients;
  double time_ms = 0;
};

/// Jaccard similarity of every edge's endpoint neighborhoods
/// (|N(u) ∩ N(v)| / |N(u) ∪ N(v)| over sorted out-neighbor lists) — one of
/// nvGRAPH's link-analysis primitives.  Requires sorted adjacency.
class GraphResidency;

Result<JaccardResult> RunJaccard(vgpu::Device* device,
                                 const graph::CsrGraph& g,
                                 const JaccardOptions& options,
                                 GraphResidency* residency = nullptr);

}  // namespace adgraph::core

#endif  // ADGRAPH_CORE_JACCARD_H_
