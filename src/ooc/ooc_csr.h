#ifndef ADGRAPH_OOC_OOC_CSR_H_
#define ADGRAPH_OOC_OOC_CSR_H_

#include <cstdint>
#include <span>
#include <string>

#include "core/api.h"
#include "graph/csr.h"
#include "graph/io.h"
#include "part/partition.h"
#include "util/status.h"

namespace adgraph::ooc {

/// One vertex-range shard of an OocCsr: rows [lo, hi) and the half-open
/// global edge range they cover.  Staging rebases the row slice to
/// edge_begin, so on the device the shard looks like a small standalone CSR
/// whose column ids remain global.
struct ShardView {
  graph::vid_t lo = 0;
  graph::vid_t hi = 0;
  graph::eid_t edge_begin = 0;
  graph::eid_t edge_end = 0;

  graph::vid_t num_rows() const { return hi - lo; }
  graph::eid_t num_edges() const { return edge_end - edge_begin; }
};

/// \brief A chunked host CSR that is never whole-graph device-resident:
/// the out-of-core operand (DESIGN.md §2.13).
///
/// Two backings share one interface:
///  - FromMemory borrows an in-memory CsrGraph (the serve path: the graph
///    already lives on the host; the *device* is what it does not fit).
///    The caller keeps the graph alive while the OocCsr is in use.
///  - Open / Spill memory-map a binary CSR v2 file (graph/io MappedCsr), so
///    the adjacency pages live on disk and fault in per shard — the
///    device <-> host <-> disk tier.
///
/// Construction partitions [0, n) into contiguous vertex-range shards whose
/// device footprint (rebased row slice + columns + optional weights) stays
/// within `shard_bytes` wherever single rows allow
/// (part::MakeByteBoundedPlan).
class OocCsr {
 public:
  OocCsr() = default;

  /// Wraps a host-resident graph.  Borrows it; no copies are made.
  static Result<OocCsr> FromMemory(const graph::CsrGraph& g,
                                   uint64_t shard_bytes);

  /// Memory-maps an existing binary CSR v2 file.
  static Result<OocCsr> Open(const std::string& path, uint64_t shard_bytes);

  /// Writes `g` to `path` (binary CSR v2) and reopens it memory-mapped —
  /// the spill half of the tiering decision.
  static Result<OocCsr> Spill(const graph::CsrGraph& g,
                              const std::string& path, uint64_t shard_bytes);

  graph::vid_t num_vertices() const {
    return static_cast<graph::vid_t>(row_offsets_.size()) - 1;
  }
  graph::eid_t num_edges() const { return row_offsets_.back(); }
  bool has_weights() const { return !weights_.empty(); }
  bool disk_backed() const { return disk_backed_; }

  std::span<const graph::eid_t> row_offsets() const { return row_offsets_; }
  std::span<const graph::vid_t> col_indices() const { return col_indices_; }
  std::span<const graph::weight_t> weights() const { return weights_; }

  const part::PartitionPlan& plan() const { return plan_; }
  uint32_t num_shards() const { return plan_.num_shards(); }
  ShardView shard(uint32_t s) const {
    ShardView v;
    v.lo = plan_.lo(s);
    v.hi = plan_.hi(s);
    v.edge_begin = row_offsets_[v.lo];
    v.edge_end = row_offsets_[v.hi];
    return v;
  }

  /// Maxima over all shards — the double-buffer slots are sized from these
  /// (a hub row can legally exceed the byte budget; see MakeByteBoundedPlan).
  uint64_t max_shard_rows() const { return max_shard_rows_; }
  uint64_t max_shard_edges() const { return max_shard_edges_; }
  /// Device bytes of the larger staging slot.
  uint64_t slot_bytes() const;

 private:
  Status Init(uint64_t shard_bytes);

  bool disk_backed_ = false;
  graph::MappedCsr mapped_;
  std::span<const graph::eid_t> row_offsets_;
  std::span<const graph::vid_t> col_indices_;
  std::span<const graph::weight_t> weights_;
  part::PartitionPlan plan_;
  uint64_t max_shard_rows_ = 0;
  uint64_t max_shard_edges_ = 0;
};

/// O(1) device-byte estimate of the streamed working set of `params` on an
/// n-vertex graph: the O(n) iteration state plus two staging slots of at
/// most `shard_bytes` each.  Admission charges this instead of whole-graph
/// bytes for streamed jobs.  A single hub row larger than `shard_bytes`
/// can push the true slot size past the estimate, in which case the run
/// fails mid-stream with the scheduler's OOM-past-admission status.  Fails
/// with core::CheckPlacement's status when the request does not stream.
Result<uint64_t> EstimateStreamedBytes(const core::Params& params,
                                       graph::vid_t n, uint64_t shard_bytes);

/// Default per-slot staging budget when the caller passes 0.
inline constexpr uint64_t kDefaultShardBytes = 32ull << 20;

}  // namespace adgraph::ooc

#endif  // ADGRAPH_OOC_OOC_CSR_H_
