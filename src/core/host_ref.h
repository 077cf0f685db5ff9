#ifndef ADGRAPH_CORE_HOST_REF_H_
#define ADGRAPH_CORE_HOST_REF_H_

#include <cstdint>
#include <vector>

#include "graph/csr.h"

namespace adgraph::core {

/// \brief Single-threaded host reference implementations of every library
/// algorithm.  They are the correctness oracles of the test suite and are
/// deliberately written in the most obvious way possible.
namespace host_ref {

/// BFS levels from `source` following out-edges (kUnreachedLevel for
/// unreachable vertices).
std::vector<uint32_t> BfsLevels(const graph::CsrGraph& g, graph::vid_t source);

/// Triangle count of the undirected interpretation of `g`.
uint64_t TriangleCount(const graph::CsrGraph& g);

/// Vertex-induced subgraph with vertices renumbered in ascending original
/// order; carries weights if `g` has them.
graph::CsrGraph ExtractSubgraph(const graph::CsrGraph& g,
                                const std::vector<graph::vid_t>& vertices);

/// Power-iteration PageRank with damping `alpha`, `iterations` rounds.
/// Dangling mass is redistributed uniformly.
std::vector<double> PageRank(const graph::CsrGraph& g, double alpha,
                             uint32_t iterations);

/// Bellman-Ford single-source shortest paths over edge weights
/// (infinity = unreachable).  Requires weights.
std::vector<double> Sssp(const graph::CsrGraph& g, graph::vid_t source);

/// Connected components of the undirected interpretation: per-vertex
/// component label = smallest vertex id in the component.
std::vector<graph::vid_t> ConnectedComponents(const graph::CsrGraph& g);

/// Jaccard similarity per edge of `g`: |N(u) ∩ N(v)| / |N(u) ∪ N(v)| over
/// out-neighborhoods, in CSR edge order.
std::vector<double> JaccardPerEdge(const graph::CsrGraph& g);

/// K-core decomposition of the undirected interpretation: largest k such
/// that the vertex survives in the k-core (0 for isolated vertices).
std::vector<uint32_t> CoreNumbers(const graph::CsrGraph& g);

/// y = A x: y[i] = sum over entries (w * x[col]), w = 1 when unweighted.
std::vector<double> SpmvPlusTimes(const graph::CsrGraph& g,
                                  const std::vector<double>& x);

/// Single-source widest (max-min bottleneck) path; +infinity at the
/// source, 0 for unreachable vertices.
std::vector<double> WidestPath(const graph::CsrGraph& g,
                               graph::vid_t source);

}  // namespace host_ref

}  // namespace adgraph::core

#endif  // ADGRAPH_CORE_HOST_REF_H_
