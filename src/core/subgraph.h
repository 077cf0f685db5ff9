#ifndef ADGRAPH_CORE_SUBGRAPH_H_
#define ADGRAPH_CORE_SUBGRAPH_H_

#include <cstdint>
#include <vector>

#include "core/device_graph.h"
#include "graph/csr.h"
#include "util/status.h"
#include "vgpu/device.h"

namespace adgraph::core {

/// Options of Extract-Subgraph-By-Vertex (ESBV).
struct EsbvOptions {
  /// The vertex subset to extract (need not be sorted; duplicates ignored).
  std::vector<graph::vid_t> vertices;
};

/// Outcome of an extraction.
struct EsbvResult {
  /// The induced subgraph, renumbered 0..k-1 in ascending original-id
  /// order, with the original edge weights carried over.
  graph::CsrGraph subgraph;
  uint64_t subgraph_vertices = 0;
  uint64_t subgraph_edges = 0;
  double time_ms = 0;  ///< device kernel time
};

/// Extracts the vertex-induced subgraph of `g` on the device.
///
/// This is the paper's high-branch-complexity workload (§4.4): the pipeline
/// mirrors nvGRAPH's extraction on a weighted (MultiValued) graph —
/// CSC-native storage, an on-device CSC->CSR conversion, flag/renumber
/// scans, a conservatively-sized intermediate COO, and an on-device
/// COO->CSR rebuild.  Edge weights are mandatory in this path ("the
/// requirement of edge weight data", §4.5); an unweighted input fails with
/// kInvalidArgument — attach weights first (CsrGraph::WithUniformWeights or
/// graph::AttachRandomWeights).
///
/// The conservative intermediate allocations are what reproduce the paper's
/// twitter-mpi OOM row: on a graph whose weighted footprint is near device
/// capacity, the ~44 bytes/edge working set does not fit.
class GraphResidency;

Result<EsbvResult> ExtractSubgraphByVertex(vgpu::Device* device,
                                           const graph::CsrGraph& g,
                                           const EsbvOptions& options,
                                           GraphResidency* residency = nullptr);

/// Deterministic pseudo-cluster selector used by benches/examples: roughly
/// `fraction` of all vertices, chosen by multiplicative hash.
std::vector<graph::vid_t> SelectPseudoCluster(graph::vid_t num_vertices,
                                              double fraction, uint64_t seed);

}  // namespace adgraph::core

#endif  // ADGRAPH_CORE_SUBGRAPH_H_
