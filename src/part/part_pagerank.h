#ifndef ADGRAPH_PART_PART_PAGERANK_H_
#define ADGRAPH_PART_PART_PAGERANK_H_

#include "core/pagerank.h"
#include "core/placement.h"
#include "graph/csr.h"
#include "part/engine.h"
#include "part/partition.h"
#include "util/status.h"

namespace adgraph::part {

/// \brief Pull-SpMV PageRank over a vertex-range-partitioned graph.
///
/// Each device holds the pull-transpose of its shard (edges from owned
/// sources only) and a full replica of the rank vector.  Per iteration:
/// local dangling partial sums (combined on the host, P*(P-1) scalar
/// hops), one local SpMV producing this shard's contribution to every
/// vertex, a reduce-scatter of boundary contributions to owners, the
/// damping update on owned ranges, and an all-gather of the updated
/// segments — all boundary traffic billed to the engine's interconnect.
/// Ranks match the single-device pull formulation to floating-point
/// re-association error (the reduce-scatter sums shard contributions in a
/// different order than one big SpMV; the property tests bound the
/// difference at 1e-10).  time_ms is the per-iteration max-device compute
/// plus exchange.
Result<core::PageRankResult> RunPartitionedPageRank(
    PartitionedEngine* engine, const graph::CsrGraph& g,
    const PartitionPlan& plan, const core::PageRankOptions& options,
    core::ExchangeStats* stats = nullptr);

}  // namespace adgraph::part

#endif  // ADGRAPH_PART_PART_PAGERANK_H_
