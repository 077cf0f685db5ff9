#ifndef ADGRAPH_OOC_STREAMED_H_
#define ADGRAPH_OOC_STREAMED_H_

#include <cstdint>
#include <functional>
#include <span>

#include "core/api.h"
#include "graph/csr.h"
#include "ooc/ooc_csr.h"
#include "util/status.h"
#include "vgpu/device.h"

namespace adgraph::ooc {

/// Knobs of the streamed execution path.
struct OocOptions {
  /// Device bytes per staging slot (0 = kDefaultShardBytes).  Two slots are
  /// live at once: shard k computes out of one while shard k+1 prefetches
  /// into the other.
  uint64_t shard_bytes = 0;
  /// Fault-injection hook (tests): invoked before every staged shard copy
  /// with the running stage index and the shard id; a non-OK return aborts
  /// the run with exactly that status, with no partial results surfaced.
  std::function<Status(uint64_t stage, uint32_t shard)> copy_fault;
};

/// Top-down level-synchronous BFS over vertex-range shards of `base` (push
/// orientation).  Only the O(n) level array plus the double buffer is
/// device-resident; every level streams the shards through the two slots.
/// Levels, depth, and vertices_visited are byte-identical to the in-memory
/// path (levels are canonical).  It computes no parents — parents are
/// tie-broken by traversal order, which sharding would change, so
/// core::CheckPlacement keeps such requests off the streamed tier.
Result<core::BfsResult> RunStreamedBfs(vgpu::Device* device,
                                       const OocCsr& base,
                                       const core::BfsOptions& options,
                                       const OocOptions& ooc,
                                       core::StagingStats* stats = nullptr);

/// Pull PageRank over destination-range shards of `pull` (the
/// 1/outdeg-weighted transpose, core::GraphVariant::kPullTranspose).  Each
/// shard's rows keep their complete in-edge list, so per-row accumulation
/// order — and therefore every rank, the L1 delta, and the iteration count
/// — is bit-identical to the in-memory SpMV.  `base_row_offsets` is the
/// *original* graph's offset array (n+1 entries), device-resident for the
/// dangling-mass kernel.
Result<core::PageRankResult> RunStreamedPageRank(
    vgpu::Device* device, const OocCsr& pull,
    std::span<const graph::eid_t> base_row_offsets,
    const core::PageRankOptions& options, const OocOptions& ooc,
    core::StagingStats* stats = nullptr);

}  // namespace adgraph::ooc

#endif  // ADGRAPH_OOC_STREAMED_H_
