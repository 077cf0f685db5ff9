#ifndef ADGRAPH_VGPU_ARCH_H_
#define ADGRAPH_VGPU_ARCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace adgraph::vgpu {

/// Execution paradigm of the simulated GPU (paper §2.2–§2.4).
///
/// kSimt: NVIDIA-style Single-Instruction-Multiple-Threads.  Divergent
/// branch paths are serialized, but (Volta+) independent thread scheduling
/// lets the memory stalls of the serialized paths overlap.
///
/// kSimd: AMD-GCN-style Single-Instruction-Multiple-Data over a wavefront.
/// Divergent paths are serialized under an execution mask, mask management
/// costs scalar instructions, and there is no cross-path stall overlap.
enum class Paradigm { kSimt, kSimd };

/// How the shared memory (NVIDIA) / Local Data Store (AMD-like) is wired
/// (paper §2.4, third bullet).
///
/// kUnifiedWithL1: shared memory and the L1 cache share one data path; L1
/// miss traffic contends with shared-memory bandwidth (Hypothesis 4's cost).
///
/// kIndependentLds: the LDS has its own data path — immune to L1 traffic —
/// at the price of a higher base access latency (Hypothesis 2's trade-off).
enum class SharedMemPath { kUnifiedWithL1, kIndependentLds };

/// \brief Full parameterization of a simulated GPU.
///
/// The four built-in instances mirror paper Table 3; the remaining
/// microarchitectural constants are set from public architecture documents
/// (A100/V100 whitepapers, GCN ISA guide) and are identical across vendors
/// wherever Table 3 does not distinguish them, so that cross-vendor deltas
/// come only from the parameters the paper studies.
struct ArchConfig {
  std::string name;    ///< e.g. "A100"
  std::string vendor;  ///< "NVIDIA" or "AMD-like"
  Paradigm paradigm = Paradigm::kSimt;
  SharedMemPath shared_path = SharedMemPath::kUnifiedWithL1;

  // --- Thread hierarchy -----------------------------------------------
  uint32_t warp_width = 32;       ///< 32 (warp) or 64 (wavefront)
  uint32_t num_sms = 0;           ///< SM (NVIDIA) or CU (AMD-like) count
  uint32_t max_warps_per_sm = 64; ///< resident warp/wavefront limit
  uint32_t schedulers_per_sm = 4; ///< warp instructions issued per SM-cycle
  uint32_t lanes_per_sm = 64;     ///< "cores": lane-ops retired per SM-cycle

  // --- Clocks and compute ----------------------------------------------
  double clock_ghz = 1.4;
  /// Per-kernel launch + host-synchronization overhead of the platform's
  /// software stack (microseconds).  Measured CUDA stacks sit near 4-6 us;
  /// the paper's ROCm-like toolkit exhibits lower per-launch cost — the
  /// driver of the paper's small-graph adGRAPH wins (Table 5), which its
  /// threat-to-validity #1 attributes to platform differences.
  double launch_overhead_us = 3.0;
  double fp64_tflops = 0;  ///< Table 3 row, reporting only
  double fp32_tflops = 0;  ///< Table 3 row, reporting only

  // --- Device memory (Table 3 "RAM") -----------------------------------
  double dram_bandwidth_gbps = 900;
  double dram_latency_cycles = 600;
  uint64_t dram_capacity_bytes = 16ull << 30;  ///< paper-scale capacity
  std::string ram_type = "HBM2";
  uint32_t ram_bitwidth = 4096;

  // --- Caches ------------------------------------------------------------
  uint32_t l1_size_bytes = 128 << 10;  ///< per SM
  uint32_t l1_assoc = 4;
  double l1_latency_cycles = 28;
  uint64_t l2_size_bytes = 6ull << 20;  ///< device-wide
  uint32_t l2_assoc = 16;
  double l2_latency_cycles = 200;
  double l2_bandwidth_gbps = 2500;
  uint32_t cache_line_bytes = 128;  ///< a power of two
  uint32_t mem_segment_bytes = 32;  ///< coalescing sector; a power of two

  // --- Shared memory / LDS ------------------------------------------------
  uint32_t smem_bytes_per_sm = 96 << 10;
  uint32_t smem_banks = 32;
  double smem_latency_cycles = 20;  ///< higher when kIndependentLds

  /// Lane-coverage of one issued instruction: wavefront-64 retires twice
  /// the threads per issue slot of a warp-32 (Hypothesis 1's mechanism).
  uint32_t threads_per_issue() const { return warp_width; }
};

/// Validates an ArchConfig at the point it enters the system (scheduler
/// pool construction, partitioned-engine creation; vgpu::Device's
/// constructor makes a failure fatal).  The timing model divides by
/// clock_ghz, num_sms, schedulers_per_sm, lanes_per_sm and the two
/// bandwidth figures, so a zero / negative / non-finite value would turn
/// every cycle count into inf/NaN and poison the MTEPS tables downstream;
/// such configs are rejected with kInvalidArgument instead.  The
/// coalescer, the caches and the atomics shift and mask by
/// cache_line_bytes and mem_segment_bytes, so both must be powers of two.
Status ValidateArchConfig(const ArchConfig& config);

/// Built-in configs reproducing paper Table 3.  References stay valid for
/// the program lifetime.
const ArchConfig& V100Config();
const ArchConfig& A100Config();
const ArchConfig& Z100Config();
const ArchConfig& Z100LConfig();

/// The four paper GPUs in Table 3 column order: Z100, V100, Z100L, A100.
std::vector<const ArchConfig*> PaperGpus();

/// The paper GPU called `name`, or kNotFound listing the four names.
Result<const ArchConfig*> PaperGpuByName(const std::string& name);

}  // namespace adgraph::vgpu

#endif  // ADGRAPH_VGPU_ARCH_H_
