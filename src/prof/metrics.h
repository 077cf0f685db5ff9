#ifndef ADGRAPH_PROF_METRICS_H_
#define ADGRAPH_PROF_METRICS_H_

#include <string>
#include <vector>

#include "runtime/runtime.h"
#include "vgpu/counters.h"

namespace adgraph::prof {

/// One row of a JobProfile's per-kernel breakdown: all launches of one
/// kernel name inside the window, folded.
struct JobKernelEntry {
  std::string kernel_name;
  uint64_t launches = 0;
  double cycles = 0;
  double time_ms = 0;
};

/// \brief Profile of a window of a device's kernel log (DESIGN.md §2.14):
/// what ncu / hiprof report for a span of kernel launches.  The merged
/// counters and cycle sums feed paper Table 6 and Figures 7-8
/// (ComputeFineGrained, ComputeCoarse); the derived ratios and the top-N
/// kernels by cycles are the per-job attribution that serve::JobOutcome
/// carries, POLL serializes under "profile", the adgraph_job_* histograms
/// roll up and the flight recorder retains.  Every ratio derives from
/// `counters`, so wire consumers and in-process callers agree by
/// construction.
struct JobProfile {
  vgpu::KernelCounters counters;  ///< every launch of the window, merged
  uint64_t num_kernels = 0;
  double total_ms = 0;
  double total_cycles = 0;
  // Timing-component sums (cycles) of the ROCm-like coarse view.
  double valu_cycles = 0;
  double smem_cycles = 0;
  double dram_cycles = 0;
  // Raw counts the ratios derive from (kept for cross-checking).
  uint64_t warp_inst_issued = 0;
  uint64_t branches = 0;
  uint64_t divergent_branches = 0;
  uint64_t dram_bytes = 0;
  // Table 6–style derived ratios.
  double divergent_branch_ratio = 0;  ///< divergent_branches / branches
  double gld_efficiency = 1;          ///< requested / transferred load bytes
  double gst_efficiency = 1;          ///< requested / transferred store bytes
  double l1_hit_rate = 0;
  double l2_hit_rate = 0;
  double achieved_occupancy = 0;      ///< weighted by cycles
  double exposed_latency_cycles = 0;  ///< unhidden memory latency
  std::vector<JobKernelEntry> top_kernels;  ///< by cycles, descending
};

/// Profiles the window [start_index, end) of a device's kernel log in one
/// pass, summing in log order.  The top-N table folds launches by kernel
/// name (first-seen order) before ranking by cycles.
JobProfile ProfileWindow(const std::vector<vgpu::KernelStats>& kernel_log,
                         size_t start_index, size_t top_n = 5);

/// The four fine-grained metric rows of paper Table 6 ("Type 1..4").
/// Values are instruction counts; the Table 6 bench divides by runtime to
/// print rates, as the paper does.
struct FineGrainedCounts {
  /// Type 1: inst_issued (CUDA) / SQ_INSTS_VALU (ROCm-like).
  uint64_t type1 = 0;
  /// Type 2: inst_executed_shared_stores (CUDA) / SQ_INSTS_LDS (ROCm-like).
  uint64_t type2 = 0;
  /// Type 3: inst_executed_global_loads (CUDA) / SQ_INSTS_VMEM_RD.
  uint64_t type3 = 0;
  /// Type 4: inst_executed_global_stores (CUDA) / SQ_INSTS_VMEM_WR.
  uint64_t type4 = 0;
};

/// Extracts the Table 1 (CUDA) or Table 1-right (ROCm) fine-grained
/// counters from an aggregated profile.  Both views read the same simulated
/// ground truth — the two profiling "tools" differ only in which events a
/// metric name selects, mirroring ncu vs. hiprof.
FineGrainedCounts ComputeFineGrained(const JobProfile& profile,
                                     rt::Platform platform);

/// The four coarse-grained metrics of paper Table 2 / Figures 7-8, as
/// fractions in [0,1].
struct CoarseMetrics {
  /// achieved_occupancy (CUDA) / VALUBusy (ROCm-like).
  double warp_utilization = 0;
  /// shared_efficiency (CUDA) / 1-ALUStalledByLDS (ROCm-like).
  double shared_memory = 0;
  /// l2_tex_hit_rate (CUDA) / L2CacheHit (ROCm-like).
  double l2_hit = 0;
  /// gld_efficiency (CUDA) / MemUnitBusy (ROCm-like).
  double global_memory = 0;
};

CoarseMetrics ComputeCoarse(const JobProfile& profile, rt::Platform platform,
                            const vgpu::ArchConfig& arch,
                            const vgpu::TimingParams& params);

/// Paper Tables 1-2 metric names per platform, in row order.
std::vector<std::string> FineGrainedMetricNames(rt::Platform platform);
std::vector<std::string> CoarseMetricNames(rt::Platform platform);

/// Nearest-rank percentile of an unsorted sample (p in [0,1], clamped).
/// The value at rank ceil(p*n) (1-based) of the sorted sample: p=0.5 of
/// {a,b} is a, p=1.0 is the max, and any p on a single sample returns it.
/// Empty samples yield 0.  Shared by the serve scheduler's latency
/// snapshot and the trace-summary report.
double Percentile(std::vector<double> values, double p);

}  // namespace adgraph::prof

#endif  // ADGRAPH_PROF_METRICS_H_
