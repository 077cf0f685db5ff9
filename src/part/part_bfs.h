#ifndef ADGRAPH_PART_PART_BFS_H_
#define ADGRAPH_PART_PART_BFS_H_

#include <cstdint>
#include <vector>

#include "graph/csr.h"
#include "part/engine.h"
#include "part/partition.h"
#include "util/status.h"

namespace adgraph::part {

struct PartBfsOptions {
  graph::vid_t source = 0;
  uint32_t block_size = 256;
};

/// Outcome of a partitioned BFS.  `levels` is byte-identical to a
/// single-device top-down BFS of the same graph and source: the
/// bulk-synchronous rounds coincide exactly with BFS levels, so splitting
/// the frontier across shards cannot change any vertex's level.
struct PartBfsResult {
  std::vector<uint32_t> levels;     ///< per-vertex level (kUnreachedLevel
                                    ///< if unreachable), owner-gathered
  uint32_t depth = 0;
  uint64_t vertices_visited = 0;
  uint32_t rounds = 0;              ///< BSP rounds == traversal depth
  double time_ms = 0;               ///< sum over rounds of
                                    ///< max-device-compute + exchange
  double compute_ms = 0;            ///< the max-device-compute part
  double exchange_ms = 0;           ///< the modeled interconnect part
  uint64_t exchange_bytes = 0;      ///< total remote-frontier bytes moved
  std::vector<uint64_t> round_exchange_bytes;  ///< per round
};

/// \brief Top-down BFS over a vertex-range-partitioned graph.
///
/// Each round: every device runs ONE fused kernel launch (the
/// single-device push advance's CAS discovery plus owner routing — owned
/// discoveries to the local next frontier, remote ones to a per-device
/// outbox), then the host routes outboxes to their owners over the
/// interconnect and applies the arrivals — first arrival wins, duplicates
/// (local or remote) are dropped.  The arrival claims ride the host-routed
/// exchange, so their cost is modeled in the interconnect's round time
/// (latency + busiest link), keeping the per-round launch count — and the
/// modeled fixed launch overhead — identical to the single-device driver.
/// Direction-optimizing mode is intentionally not offered here:
/// bottom-up sweeps read remote levels, which a 1-D partition cannot serve
/// without replicating the frontier every round.
Result<PartBfsResult> RunPartitionedBfs(PartitionedEngine* engine,
                                        const graph::CsrGraph& g,
                                        const PartitionPlan& plan,
                                        const PartBfsOptions& options);

}  // namespace adgraph::part

#endif  // ADGRAPH_PART_PART_BFS_H_
