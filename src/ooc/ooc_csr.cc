#include "ooc/ooc_csr.h"

#include <algorithm>
#include <numeric>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

namespace adgraph::ooc {

using graph::eid_t;
using graph::vid_t;
using graph::weight_t;
using vgpu::AllocatedBytes;

namespace {

/// Rows and edges of the largest shards `plan` cuts from `row_offsets`:
/// the staging slots are sized from these (a hub row can legally exceed
/// the byte budget; see MakeByteBoundedPlan).
std::pair<uint64_t, uint64_t> LargestShard(const part::PartitionPlan& plan,
                                           std::span<const eid_t> row_offsets) {
  std::pair<uint64_t, uint64_t> out{0, 0};
  for (uint32_t s = 0; s < plan.num_shards(); ++s) {
    out.first = std::max<uint64_t>(out.first, plan.hi(s) - plan.lo(s));
    out.second = std::max<uint64_t>(
        out.second, row_offsets[plan.hi(s)] - row_offsets[plan.lo(s)]);
  }
  return out;
}

/// Device bytes one staging slot takes for shards of at most `rows` rows and
/// `edges` edges (ShardPipeline::AllocSlots): the rebased row slice, at
/// least one column and, when `weights`, as many weights, each rounded as
/// the allocator rounds it.
uint64_t SlotDeviceBytes(uint64_t rows, uint64_t edges, bool weights) {
  edges = std::max<uint64_t>(1, edges);
  return AllocatedBytes((rows + 1) * sizeof(eid_t)) +
         AllocatedBytes(edges * sizeof(vid_t)) +
         (weights ? AllocatedBytes(edges * sizeof(weight_t)) : 0);
}

/// Device bytes of the two staging slots of a stream over `row_offsets`:
/// shaped like the largest shard of the byte-bounded plan (planned with
/// `weighted` edge bytes), staging weights iff `staged_weights`.
Result<uint64_t> SlotPairBytes(std::span<const eid_t> row_offsets,
                               bool weighted, bool staged_weights,
                               uint64_t shard_bytes) {
  ADGRAPH_ASSIGN_OR_RETURN(
      part::PartitionPlan plan,
      part::MakeByteBoundedPlan(
          row_offsets, weighted,
          shard_bytes == 0 ? kDefaultShardBytes : shard_bytes));
  const auto [rows, edges] = LargestShard(plan, row_offsets);
  return 2 * SlotDeviceBytes(rows, edges, staged_weights);
}

}  // namespace

uint64_t OocCsr::slot_bytes() const {
  return SlotDeviceBytes(max_shard_rows_, max_shard_edges_, has_weights());
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
  ADGRAPH_ASSIGN_OR_RETURN(
      csr.plan_, part::MakeByteBoundedPlan(
                     csr.row_offsets_, csr.has_weights(),
                     shard_bytes == 0 ? kDefaultShardBytes : shard_bytes));
  std::tie(csr.max_shard_rows_, csr.max_shard_edges_) =
      LargestShard(csr.plan_, csr.row_offsets_);
  return csr;
}

Result<uint64_t> EstimateStreamedBytes(const core::Params& params,
                                       const graph::CsrGraph& g,
                                       uint64_t shard_bytes) {
  ADGRAPH_RETURN_NOT_OK(
      core::CheckPlacement(core::Placement::Streamed(shard_bytes), params));
  const uint64_t n = g.num_vertices();
  if (std::holds_alternative<core::BfsOptions>(params)) {
    // Levels + the produced counter.  BFS plans shards over the graph as
    // stored but stages rows and columns only, never weights.
    ADGRAPH_ASSIGN_OR_RETURN(
        uint64_t slots,
        SlotPairBytes(g.row_offsets(), g.has_weights(), false, shard_bytes));
    return AllocatedBytes(n * sizeof(uint32_t)) +
           AllocatedBytes(sizeof(uint32_t)) + slots;
  }
  // PageRank: base row offsets (dangling), ranks, next, 2 scalars, plus
  // slots for shards of the always-weighted pull transpose, whose rows are
  // the in-edge lists.
  std::vector<eid_t> pull_offsets(n + 1, 0);
  for (vid_t v : g.col_indices()) ++pull_offsets[v + 1];
  std::partial_sum(pull_offsets.begin(), pull_offsets.end(),
                   pull_offsets.begin());
  ADGRAPH_ASSIGN_OR_RETURN(
      uint64_t slots, SlotPairBytes(pull_offsets, true, true, shard_bytes));
  return AllocatedBytes((n + 1) * sizeof(eid_t)) +
         2 * AllocatedBytes(n * sizeof(double)) +
         AllocatedBytes(2 * sizeof(double)) + slots;
}

}  // namespace adgraph::ooc
