#include "graph/io.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

namespace adgraph::graph {
namespace {

/// Largest raw vertex id a text loader may accept: ids are stored as vid_t
/// and the implied vertex count is max_id + 1, so the id itself must stay
/// strictly below the vid_t maximum.  Anything larger used to be silently
/// truncated by the vid_t cast — corrupting the graph instead of failing.
constexpr uint64_t kMaxVertexId =
    static_cast<uint64_t>(std::numeric_limits<vid_t>::max()) - 1;

}  // namespace

Result<CooGraph> ReadEdgeList(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  CooGraph coo;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ss(line);
    uint64_t u, v;
    if (!(ss >> u >> v)) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": malformed edge line: '" + line + "'");
    }
    if (u > kMaxVertexId || v > kMaxVertexId) {
      return Status::InvalidArgument(
          path + ":" + std::to_string(line_no) + ": vertex id " +
          std::to_string(std::max(u, v)) + " exceeds the supported maximum " +
          std::to_string(kMaxVertexId));
    }
    double w;
    bool has_w = static_cast<bool>(ss >> w);
    if (!has_w) ss.clear();
    std::string junk;
    if (ss >> junk) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": trailing junk '" + junk +
                                     "' on edge line");
    }
    if (has_w && coo.weights.size() < coo.src.size()) {
      // Earlier lines were unweighted: backfill.
      coo.weights.resize(coo.src.size(), 1.0);
    }
    coo.src.push_back(static_cast<vid_t>(u));
    coo.dst.push_back(static_cast<vid_t>(v));
    if (!coo.weights.empty() || has_w) {
      coo.weights.push_back(has_w ? w : 1.0);
    }
    vid_t needed = static_cast<vid_t>(std::max(u, v)) + 1;
    if (needed > coo.num_vertices) coo.num_vertices = needed;
  }
  return coo;
}

Status WriteEdgeList(const CooGraph& coo, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << "# adgraph edge list: " << coo.num_vertices << " vertices, "
      << coo.num_edges() << " edges\n";
  for (eid_t e = 0; e < coo.num_edges(); ++e) {
    out << coo.src[e] << ' ' << coo.dst[e];
    if (coo.has_weights()) out << ' ' << coo.weights[e];
    out << '\n';
  }
  if (!out) return Status::IOError("failed writing " + path);
  return Status::OK();
}

Result<CooGraph> ReadMatrixMarket(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::string header;
  if (!std::getline(in, header) ||
      header.rfind("%%MatrixMarket", 0) != 0) {
    return Status::IOError(path + ": missing MatrixMarket banner");
  }
  bool pattern = header.find("pattern") != std::string::npos;
  bool symmetric = header.find("symmetric") != std::string::npos;
  if (header.find("coordinate") == std::string::npos) {
    return Status::Unimplemented("only coordinate MatrixMarket supported");
  }
  std::string line;
  // Skip comments.
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream dims(line);
  uint64_t rows, cols, nnz;
  if (!(dims >> rows >> cols >> nnz)) {
    return Status::InvalidArgument(path + ": malformed size line: '" + line +
                                   "'");
  }
  std::string junk;
  if (dims >> junk) {
    return Status::InvalidArgument(path + ": trailing junk '" + junk +
                                   "' on size line");
  }
  if (std::max(rows, cols) > kMaxVertexId + 1) {
    return Status::InvalidArgument(
        path + ": dimension " + std::to_string(std::max(rows, cols)) +
        " exceeds the supported maximum " + std::to_string(kMaxVertexId + 1));
  }
  CooGraph coo;
  // No reserve(nnz): the size line is outside input, and a claimed 10^18
  // entries must end as a truncated-entry error, not a failed allocation.
  coo.num_vertices = static_cast<vid_t>(std::max(rows, cols));
  for (uint64_t i = 0; i < nnz; ++i) {
    uint64_t r, c;
    double w = 1.0;
    if (!(in >> r >> c)) {
      return Status::InvalidArgument(path + ": malformed or truncated entry " +
                                     std::to_string(i + 1) + " of " +
                                     std::to_string(nnz));
    }
    if (!pattern && !(in >> w)) {
      return Status::InvalidArgument(path + ": missing value in entry " +
                                     std::to_string(i + 1) +
                                     " of a real matrix");
    }
    if (r == 0 || c == 0 || r > rows || c > cols) {
      return Status::InvalidArgument(
          path + ": entry " + std::to_string(i + 1) + " index (" +
          std::to_string(r) + ", " + std::to_string(c) +
          ") out of bounds for " + std::to_string(rows) + " x " +
          std::to_string(cols));
    }
    coo.src.push_back(static_cast<vid_t>(r - 1));
    coo.dst.push_back(static_cast<vid_t>(c - 1));
    if (!pattern) coo.weights.push_back(w);
    if (symmetric && r != c) {
      coo.src.push_back(static_cast<vid_t>(c - 1));
      coo.dst.push_back(static_cast<vid_t>(r - 1));
      if (!pattern) coo.weights.push_back(w);
    }
  }
  return coo;
}

Status WriteMatrixMarket(const CooGraph& coo, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  bool pattern = !coo.has_weights();
  out << "%%MatrixMarket matrix coordinate "
      << (pattern ? "pattern" : "real") << " general\n";
  out << coo.num_vertices << ' ' << coo.num_vertices << ' '
      << coo.num_edges() << '\n';
  for (eid_t e = 0; e < coo.num_edges(); ++e) {
    out << (coo.src[e] + 1) << ' ' << (coo.dst[e] + 1);
    if (!pattern) out << ' ' << coo.weights[e];
    out << '\n';
  }
  if (!out) return Status::IOError("failed writing " + path);
  return Status::OK();
}

}  // namespace adgraph::graph
