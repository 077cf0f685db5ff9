#include "prof/metrics.h"

#include <algorithm>
#include <cmath>

namespace adgraph::prof {

JobProfile ProfileWindow(const std::vector<vgpu::KernelStats>& kernel_log,
                         size_t start_index, size_t top_n) {
  JobProfile job;
  double occupancy_weighted = 0;
  // Launches folded by kernel name, first-seen order.
  std::vector<JobKernelEntry> folded;
  for (size_t i = start_index; i < kernel_log.size(); ++i) {
    const vgpu::KernelStats& stats = kernel_log[i];
    job.counters.Merge(stats.counters);
    job.num_kernels += 1;
    job.total_ms += stats.time_ms;
    job.total_cycles += stats.cycles;
    job.valu_cycles += stats.valu_cycles;
    job.smem_cycles += stats.smem_cycles;
    job.dram_cycles += stats.dram_cycles;
    job.exposed_latency_cycles += stats.exposed_latency_cycles;
    occupancy_weighted += stats.achieved_occupancy * stats.cycles;
    auto entry = std::find_if(folded.begin(), folded.end(),
                              [&](const JobKernelEntry& existing) {
                                return existing.kernel_name ==
                                       stats.kernel_name;
                              });
    if (entry == folded.end()) {
      entry = folded.insert(folded.end(),
                            JobKernelEntry{stats.kernel_name, 0, 0, 0});
    }
    entry->launches += 1;
    entry->cycles += stats.cycles;
    entry->time_ms += stats.time_ms;
  }
  const vgpu::KernelCounters& c = job.counters;
  job.warp_inst_issued = c.warp_inst_issued;
  job.branches = c.branches;
  job.divergent_branches = c.divergent_branches;
  job.dram_bytes = c.dram_read_bytes + c.dram_write_bytes;
  job.divergent_branch_ratio = c.divergent_branch_ratio();
  job.gld_efficiency = c.gld_efficiency();
  job.gst_efficiency = c.gst_efficiency();
  job.l1_hit_rate = c.l1_hit_rate();
  job.l2_hit_rate = c.l2_hit_rate();
  job.achieved_occupancy =
      job.total_cycles > 0 ? occupancy_weighted / job.total_cycles : 0;

  std::stable_sort(folded.begin(), folded.end(),
                   [](const JobKernelEntry& a, const JobKernelEntry& b) {
                     return a.cycles > b.cycles;
                   });
  if (folded.size() > top_n) folded.resize(top_n);
  job.top_kernels = std::move(folded);
  return job;
}

FineGrainedCounts ComputeFineGrained(const JobProfile& profile,
                                     rt::Platform platform) {
  const vgpu::KernelCounters& c = profile.counters;
  FineGrainedCounts out;
  if (platform == rt::Platform::kCuda) {
    // ncu view: inst_issued counts every issued warp instruction;
    // the shared/global rows count warp-level instructions of that class.
    out.type1 = c.warp_inst_issued;
    out.type2 = c.shared_store_inst;
    out.type3 = c.global_load_inst;
    out.type4 = c.global_store_inst;
  } else {
    // hiprof view: SQ_INSTS_VALU counts vector-ALU issue slots — a 64-wide
    // wavefront op executes as four SIMD16 passes, each counted (which is
    // why the paper's Table 6 Type-1 rates favor the AMD-like parts on
    // issue-efficient kernels);
    // SQ_INSTS_LDS counts all LDS traffic (loads + stores);
    // VMEM_RD/WR count vector-memory issues (atomics are writes).
    out.type1 = 4 * c.valu_warp_inst;
    out.type2 = c.shared_load_inst + c.shared_store_inst;
    out.type3 = c.global_load_inst;
    out.type4 = c.global_store_inst + c.atomic_inst;
  }
  return out;
}

CoarseMetrics ComputeCoarse(const JobProfile& profile, rt::Platform platform,
                            const vgpu::ArchConfig& arch,
                            const vgpu::TimingParams& params) {
  const vgpu::KernelCounters& c = profile.counters;
  CoarseMetrics out;
  double cycles = std::max(profile.total_cycles, 1.0);

  if (platform == rt::Platform::kCuda) {
    // achieved_occupancy: time-weighted resident-warp ratio.
    out.warp_utilization = profile.achieved_occupancy;
    // shared_efficiency: requested / required shared throughput.  Bank
    // conflicts add required passes; on the unified data path, L1 refill
    // traffic steals shared bandwidth (paper Hypothesis 4's cost side).
    double accesses = static_cast<double>(c.smem_accesses);
    double required = accesses + static_cast<double>(c.smem_bank_conflict_extra);
    double efficiency = required > 0 ? accesses / required : 1.0;
    if (arch.shared_path == vgpu::SharedMemPath::kUnifiedWithL1) {
      double miss_bytes =
          static_cast<double>(c.l1_misses) * arch.mem_segment_bytes;
      double smem_bytes = static_cast<double>(c.smem_bytes);
      double total = miss_bytes + smem_bytes;
      if (total > 0 && smem_bytes > 0) {
        efficiency /= 1.0 + params.smem_l1_contention_alpha * (miss_bytes / total);
      }
    }
    out.shared_memory = efficiency;
    out.l2_hit = c.l2_hit_rate();
    out.global_memory = c.gld_efficiency();
  } else {
    // VALUBusy: share of GPU time the vector ALUs were processing.
    out.warp_utilization = std::min(1.0, profile.valu_cycles / cycles);
    // 1 - ALUStalledByLDS: share of time ALUs were NOT stalled on the LDS
    // queues.  The independent LDS path keeps this high.
    out.shared_memory = std::max(0.0, 1.0 - profile.smem_cycles / cycles);
    out.l2_hit = c.l2_hit_rate();
    // MemUnitBusy: share of GPU time the memory unit was active.
    out.global_memory = std::min(1.0, profile.dram_cycles / cycles);
  }
  return out;
}

std::vector<std::string> FineGrainedMetricNames(rt::Platform platform) {
  if (platform == rt::Platform::kCuda) {
    return {"inst_issued", "inst_executed_shared_stores",
            "inst_executed_global_loads", "inst_executed_global_stores"};
  }
  return {"SQ_INSTS_VALU", "SQ_INSTS_LDS", "SQ_INSTS_VMEM_RD",
          "SQ_INSTS_VMEM_WR"};
}

std::vector<std::string> CoarseMetricNames(rt::Platform platform) {
  if (platform == rt::Platform::kCuda) {
    return {"achieved_occupancy", "shared_efficiency", "l2_tex_hit_rate",
            "gld_efficiency"};
  }
  return {"VALUBusy", "1-ALUStalledByLDS", "L2CacheHit", "MemUnitBusy"};
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  p = std::clamp(p, 0.0, 1.0);
  const size_t n = values.size();
  // Nearest-rank: the smallest value such that at least p*n of the sample
  // is <= it, i.e. 1-based rank ceil(p*n), clamped into [1, n].
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

}  // namespace adgraph::prof
