#ifndef ADGRAPH_VGPU_COUNTERS_H_
#define ADGRAPH_VGPU_COUNTERS_H_

#include <cstdint>
#include <string>

namespace adgraph::vgpu {

/// \brief Raw hardware event counters collected during one kernel launch.
///
/// These are the ground truth behind both profiling "tools": the CUDA-style
/// metric view (ncu names: inst_issued, gld_efficiency, ...) and the
/// ROCm-style view (SQ_INSTS_VALU, MemUnitBusy, ...) are derived from the
/// same record (see prof/metrics.h), exactly because in this simulator —
/// unlike on real silicon (paper threat-to-validity #2) — both tools can
/// observe identical events.
struct KernelCounters {
  // --- Instruction issue ---------------------------------------------
  uint64_t warp_inst_issued = 0;    ///< warp/wavefront-level issues (all classes)
  uint64_t valu_warp_inst = 0;      ///< warp-level issues of VALU class only
  uint64_t lane_ops = 0;            ///< lane-level VALU operations executed
  uint64_t scalar_inst = 0;         ///< SALU ops (SIMD exec-mask management)
  uint64_t shared_load_inst = 0;    ///< warp-level shared/LDS loads
  uint64_t shared_store_inst = 0;   ///< warp-level shared/LDS stores
  uint64_t global_load_inst = 0;    ///< warp-level global loads
  uint64_t global_store_inst = 0;   ///< warp-level global stores
  uint64_t atomic_inst = 0;         ///< warp-level global atomics

  // --- Branching --------------------------------------------------------
  uint64_t branches = 0;            ///< conditional branches executed
  uint64_t divergent_branches = 0;  ///< branches where both paths had lanes
  uint64_t barriers = 0;            ///< block-level __syncthreads released

  // --- Global memory ----------------------------------------------------
  uint64_t global_ld_transactions = 0;
  uint64_t global_st_transactions = 0;
  uint64_t global_ld_bytes_requested = 0;   ///< sum of lane access sizes
  uint64_t global_ld_bytes_transferred = 0; ///< segments x segment size
  uint64_t global_st_bytes_requested = 0;
  uint64_t global_st_bytes_transferred = 0;
  uint64_t l1_hits = 0;
  uint64_t l1_misses = 0;
  uint64_t l2_hits = 0;
  uint64_t l2_misses = 0;
  uint64_t dram_read_bytes = 0;
  uint64_t dram_write_bytes = 0;

  // --- Shared memory / LDS -----------------------------------------------
  uint64_t smem_accesses = 0;            ///< warp-level shared transactions
  uint64_t smem_bank_conflict_extra = 0; ///< extra serialization passes
  uint64_t smem_bytes = 0;

  // --- Latency / divergence timing feed -----------------------------------
  double memory_latency_cycles = 0;      ///< accumulated unhidden latency
  double simt_overlap_saved_cycles = 0;  ///< latency hidden by SIMT ITS

  // --- Peer interconnect (multi-device partitioned execution) -------------
  uint64_t peer_bytes_sent = 0;      ///< bytes shipped to other devices
  uint64_t peer_bytes_received = 0;  ///< bytes arriving from other devices
  uint64_t peer_exchanges = 0;       ///< bulk-synchronous exchange rounds

  // --- Loop / load-imbalance bookkeeping -----------------------------------
  uint64_t loop_lane_iters_possible = 0;  ///< max-trip x active lanes
  uint64_t loop_lane_iters_useful = 0;    ///< actual per-lane trips

  // --- Launch shape --------------------------------------------------------
  uint64_t blocks_launched = 0;
  uint64_t warps_launched = 0;

  /// Accumulates `other` into this record (used to merge per-kernel records
  /// into per-algorithm aggregates).
  void Merge(const KernelCounters& other);

  /// Multiplies every event count by `factor` — extrapolation step of
  /// sampled simulation (LaunchDims::work_replication).
  void Scale(uint64_t factor);

  bool operator==(const KernelCounters&) const = default;

  /// Fraction of lane-loop slots that did useful work (1 = perfectly
  /// balanced warps); feeds achieved_occupancy / VALUBusy.
  double loop_balance() const {
    if (loop_lane_iters_possible == 0) return 1.0;
    return static_cast<double>(loop_lane_iters_useful) /
           static_cast<double>(loop_lane_iters_possible);
  }

  /// Fraction of executed branches where both paths kept active lanes —
  /// the paper's divergence signal (Table 6 discussion); what the per-job
  /// profile and the serve-path histograms report.
  double divergent_branch_ratio() const {
    return branches == 0
               ? 0.0
               : static_cast<double>(divergent_branches) /
                     static_cast<double>(branches);
  }

  double l1_hit_rate() const {
    uint64_t total = l1_hits + l1_misses;
    return total == 0 ? 0.0 : static_cast<double>(l1_hits) / total;
  }
  double l2_hit_rate() const {
    uint64_t total = l2_hits + l2_misses;
    return total == 0 ? 0.0 : static_cast<double>(l2_hits) / total;
  }

  /// Coalescing quality of global loads: requested/transferred bytes.
  double gld_efficiency() const {
    if (global_ld_bytes_transferred == 0) return 1.0;
    return static_cast<double>(global_ld_bytes_requested) /
           static_cast<double>(global_ld_bytes_transferred);
  }
  double gst_efficiency() const {
    if (global_st_bytes_transferred == 0) return 1.0;
    return static_cast<double>(global_st_bytes_requested) /
           static_cast<double>(global_st_bytes_transferred);
  }
};

/// \brief One launched kernel's identity, counters and timing result.
struct KernelStats {
  std::string kernel_name;
  uint32_t grid = 0;
  uint32_t block = 0;
  KernelCounters counters;
  /// Issue work (warp instructions + scalar ops) of the busiest SM — the
  /// load-imbalance critical path (hub-dominated kernels run as slow as
  /// their slowest SM, not as their aggregate).
  uint64_t max_sm_inst = 0;
  double cycles = 0;
  double time_ms = 0;
  double achieved_occupancy = 0;  ///< [0,1]
  // Timing component breakdown (cycles), for profiling metrics.
  double issue_cycles = 0;
  double valu_cycles = 0;
  double dram_cycles = 0;
  double l2_cycles = 0;
  double smem_cycles = 0;
  double exposed_latency_cycles = 0;
};

}  // namespace adgraph::vgpu

#endif  // ADGRAPH_VGPU_COUNTERS_H_
