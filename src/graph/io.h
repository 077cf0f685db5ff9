#ifndef ADGRAPH_GRAPH_IO_H_
#define ADGRAPH_GRAPH_IO_H_

#include <string>

#include "graph/coo.h"
#include "util/status.h"

namespace adgraph::graph {

/// Reads a SNAP-style whitespace edge list: one `u v [w]` pair per line,
/// `#`- or `%`-prefixed comment lines ignored.  Vertex ids are used as-is;
/// num_vertices = max id + 1.
Result<CooGraph> ReadEdgeList(const std::string& path);

/// Writes `coo` as an edge list (with weights if present).
Status WriteEdgeList(const CooGraph& coo, const std::string& path);

/// Reads a MatrixMarket `coordinate` file (pattern / real, general /
/// symmetric).  Symmetric entries are mirrored.  1-based indices become
/// 0-based.
Result<CooGraph> ReadMatrixMarket(const std::string& path);

/// Writes a MatrixMarket coordinate file (general; real if weighted,
/// pattern otherwise).
Status WriteMatrixMarket(const CooGraph& coo, const std::string& path);

}  // namespace adgraph::graph

#endif  // ADGRAPH_GRAPH_IO_H_
