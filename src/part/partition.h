#ifndef ADGRAPH_PART_PARTITION_H_
#define ADGRAPH_PART_PARTITION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/placement.h"
#include "graph/csr.h"
#include "graph/types.h"
#include "util/status.h"

namespace adgraph::part {

/// The strategy enum lives beside core::Placement, which carries it.
using core::PartitionStrategy;

/// Stable lower-case name ("uniform" / "degree-balanced").
const char* PartitionStrategyName(PartitionStrategy strategy);

/// \brief A 1-D vertex-range partition of [0, n) into P contiguous shards.
///
/// Shard s owns the half-open vertex range [boundaries[s], boundaries[s+1]).
/// Empty shards (equal consecutive boundaries) are legal — a plan for more
/// devices than vertices simply leaves trailing shards empty.
struct PartitionPlan {
  /// P+1 non-decreasing values; front() == 0, back() == num_vertices.
  std::vector<graph::vid_t> boundaries;

  uint32_t num_shards() const {
    return static_cast<uint32_t>(boundaries.size()) - 1;
  }
  graph::vid_t lo(uint32_t shard) const { return boundaries[shard]; }
  graph::vid_t hi(uint32_t shard) const { return boundaries[shard + 1]; }
  graph::vid_t shard_size(uint32_t shard) const {
    return hi(shard) - lo(shard);
  }

  /// The shard owning vertex `v` (v must be < back()).
  uint32_t OwnerOf(graph::vid_t v) const;
};

/// Builds a P-way plan over `g`.  Fails on num_shards == 0.
Result<PartitionPlan> MakePartitionPlan(const graph::CsrGraph& g,
                                        uint32_t num_shards,
                                        PartitionStrategy strategy);

/// \brief Byte-bounded vertex-range plan — the shard-count-free dual of
/// MakePartitionPlan used by the out-of-core streamer (DESIGN.md §2.13).
///
/// Walks the row-offset curve greedily, closing a shard as soon as adding
/// the next vertex would push its device footprint — a rebased row slice
/// ((rows+1) * sizeof(eid_t)) plus columns (and weights when `weighted`) —
/// past `shard_bytes`.  Every shard holds at least one vertex, so a single
/// hub row larger than the budget still gets a (single-row, oversized)
/// shard rather than failing; callers size their staging buffers from the
/// resulting maximum, not from `shard_bytes`.  Takes the offsets as a span
/// so a memory-mapped CSR can be planned without copying its arrays.
Result<PartitionPlan> MakeByteBoundedPlan(
    std::span<const graph::eid_t> row_offsets, bool weighted,
    uint64_t shard_bytes);

/// Device bytes of the vertex range [lo, hi) staged as a shard: rebased
/// rows, columns, optional weights.  The unit MakeByteBoundedPlan bounds.
uint64_t ShardDeviceBytes(std::span<const graph::eid_t> row_offsets,
                          graph::vid_t lo, graph::vid_t hi, bool weighted);

/// \brief Materializes one shard's graph.
///
/// The shard keeps the *full* vertex id space [0, n) — column indices stay
/// global and the single-device kernels run unchanged — but adjacency is
/// copied only for owned rows; every non-owned row is empty.  Weights, when
/// present, follow their edges.
Result<graph::CsrGraph> BuildShardGraph(const graph::CsrGraph& g,
                                        const PartitionPlan& plan,
                                        uint32_t shard);

}  // namespace adgraph::part

#endif  // ADGRAPH_PART_PARTITION_H_
