#ifndef ADGRAPH_PART_PART_BFS_H_
#define ADGRAPH_PART_PART_BFS_H_

#include "core/bfs.h"
#include "core/placement.h"
#include "graph/csr.h"
#include "part/engine.h"
#include "part/partition.h"
#include "util/status.h"

namespace adgraph::part {

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
/// without replicating the frontier every round.  So the driver reads only
/// `options.source`, and fills levels, depth, vertices_visited,
/// top_down_iterations (the round count) and time_ms (the per-round
/// max-device compute plus exchange); levels are byte-identical
/// to a single-device BFS of the same graph and source, because the
/// bulk-synchronous rounds coincide with BFS levels.  It computes no
/// parents — core::CheckPlacement keeps such requests off a gang.
Result<core::BfsResult> RunPartitionedBfs(
    PartitionedEngine* engine, const graph::CsrGraph& g,
    const PartitionPlan& plan, const core::BfsOptions& options,
    core::ExchangeStats* stats = nullptr);

}  // namespace adgraph::part

#endif  // ADGRAPH_PART_PART_BFS_H_
