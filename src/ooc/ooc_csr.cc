#include "ooc/ooc_csr.h"

#include <algorithm>
#include <utility>
#include <variant>

namespace adgraph::ooc {

using graph::eid_t;
using graph::vid_t;
using graph::weight_t;

Status OocCsr::Init(uint64_t shard_bytes) {
  ADGRAPH_ASSIGN_OR_RETURN(
      plan_, part::MakeByteBoundedPlan(
                 row_offsets_, has_weights(),
                 shard_bytes == 0 ? kDefaultShardBytes : shard_bytes));
  max_shard_rows_ = 0;
  max_shard_edges_ = 0;
  for (uint32_t s = 0; s < plan_.num_shards(); ++s) {
    const ShardView v = shard(s);
    max_shard_rows_ = std::max<uint64_t>(max_shard_rows_, v.num_rows());
    max_shard_edges_ = std::max<uint64_t>(max_shard_edges_, v.num_edges());
  }
  return Status::OK();
}

uint64_t OocCsr::slot_bytes() const {
  return (max_shard_rows_ + 1) * sizeof(eid_t) +
         max_shard_edges_ * sizeof(vid_t) +
         (has_weights() ? max_shard_edges_ * sizeof(weight_t) : 0);
}

Result<OocCsr> OocCsr::FromMemory(const graph::CsrGraph& g,
                                  uint64_t shard_bytes) {
  if (g.num_vertices() == 0) {
    return Status::InvalidArgument("out-of-core wrap of an empty graph");
  }
  OocCsr csr;
  csr.row_offsets_ = g.row_offsets();
  csr.col_indices_ = g.col_indices();
  csr.weights_ = g.weights();
  ADGRAPH_RETURN_NOT_OK(csr.Init(shard_bytes));
  return csr;
}

Result<OocCsr> OocCsr::Open(const std::string& path, uint64_t shard_bytes) {
  ADGRAPH_ASSIGN_OR_RETURN(graph::MappedCsr mapped,
                           graph::MappedCsr::Open(path));
  if (mapped.num_vertices() == 0) {
    return Status::InvalidArgument(path + ": out-of-core open of an empty "
                                          "graph");
  }
  OocCsr csr;
  csr.disk_backed_ = true;
  csr.mapped_ = std::move(mapped);
  csr.row_offsets_ = csr.mapped_.row_offsets();
  csr.col_indices_ = csr.mapped_.col_indices();
  csr.weights_ = csr.mapped_.weights();
  ADGRAPH_RETURN_NOT_OK(csr.Init(shard_bytes));
  return csr;
}

Result<OocCsr> OocCsr::Spill(const graph::CsrGraph& g, const std::string& path,
                             uint64_t shard_bytes) {
  ADGRAPH_RETURN_NOT_OK(graph::WriteBinaryCsr(g, path));
  return Open(path, shard_bytes);
}

Result<uint64_t> EstimateStreamedBytes(const core::Params& params,
                                       graph::vid_t n, uint64_t shard_bytes) {
  ADGRAPH_RETURN_NOT_OK(
      core::CheckPlacement(core::Placement::Streamed(shard_bytes), params));
  const uint64_t slots =
      2 * (shard_bytes == 0 ? kDefaultShardBytes : shard_bytes);
  const uint64_t nn = n;
  if (std::holds_alternative<core::BfsOptions>(params)) {
    // levels + produced counter; BFS stages rows+cols, never weights.
    return nn * sizeof(uint32_t) + sizeof(uint32_t) + slots;
  }
  // PageRank: base row offsets (dangling), ranks, next, 2 scalars, plus
  // slots for the always-weighted pull-transpose shards.
  return (nn + 1) * sizeof(eid_t) + 2 * nn * sizeof(double) +
         2 * sizeof(double) + slots;
}

}  // namespace adgraph::ooc
