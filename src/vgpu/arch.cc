#include "vgpu/arch.h"

#include <bit>
#include <cmath>

namespace adgraph::vgpu {
namespace {

ArchConfig MakeV100() {
  ArchConfig c;
  c.name = "V100";
  c.vendor = "NVIDIA";
  c.paradigm = Paradigm::kSimt;
  c.shared_path = SharedMemPath::kUnifiedWithL1;
  c.warp_width = 32;
  c.num_sms = 80;
  c.max_warps_per_sm = 64;
  c.schedulers_per_sm = 4;
  c.lanes_per_sm = 64;  // 64 FP32 cores per SM
  c.clock_ghz = 1.38;
  c.launch_overhead_us = 5.0;  // CUDA stack
  c.fp64_tflops = 7.0;
  c.fp32_tflops = 14.0;
  c.dram_bandwidth_gbps = 900;
  c.dram_latency_cycles = 640;
  c.dram_capacity_bytes = 32ull << 30;
  c.ram_type = "HBM2";
  c.ram_bitwidth = 4096;
  c.l1_size_bytes = 128 << 10;
  c.l1_latency_cycles = 28;
  c.l2_size_bytes = 6ull << 20;
  c.l2_latency_cycles = 200;
  c.l2_bandwidth_gbps = 2200;
  c.smem_bytes_per_sm = 96 << 10;
  c.smem_banks = 32;
  c.smem_latency_cycles = 19;  // unified path: low latency (Hypothesis 4)
  return c;
}

ArchConfig MakeA100() {
  ArchConfig c = MakeV100();
  c.name = "A100";
  c.num_sms = 108;
  c.clock_ghz = 1.41;
  c.fp64_tflops = 9.7;
  c.fp32_tflops = 19.5;
  c.dram_bandwidth_gbps = 1935;
  c.dram_latency_cycles = 580;  // HBM2e
  c.dram_capacity_bytes = 80ull << 30;
  c.ram_type = "HBM2e";
  c.ram_bitwidth = 5120;
  c.l2_size_bytes = 40ull << 20;
  c.l2_bandwidth_gbps = 4500;
  c.smem_bytes_per_sm = 164 << 10;
  return c;
}

ArchConfig MakeZ100() {
  ArchConfig c;
  c.name = "Z100";
  c.vendor = "AMD-like";
  c.paradigm = Paradigm::kSimd;
  c.shared_path = SharedMemPath::kIndependentLds;
  c.warp_width = 64;
  c.num_sms = 64;  // CUs
  // 4 SIMD units x 10 wavefronts per CU (paper §2.3).
  c.max_warps_per_sm = 40;
  // A GCN CU co-issues up to five instruction *types* per cycle (VALU,
  // SALU, LDS, VMEM, branch) across its resident wavefronts, giving it
  // more issue slots per CU than an SM's four single-issue schedulers.
  c.schedulers_per_sm = 6;
  // VALU lane throughput calibrated to Table 3's FP64 figures relative to
  // the NVIDIA parts (5.9 TFLOPS at 1.32 GHz): the CU's co-issued SIMD
  // pipes retire more lane-ops per clock than its nominal 4x16 width.
  c.lanes_per_sm = 72;
  c.clock_ghz = 1.32;
  c.launch_overhead_us = 2.4;  // ROCm-like stack (lighter launch path)
  c.fp64_tflops = 5.9;
  c.fp32_tflops = 11.8;
  c.dram_bandwidth_gbps = 800;
  c.dram_latency_cycles = 700;
  c.dram_capacity_bytes = 16ull << 30;
  c.ram_type = "HBM2";
  c.ram_bitwidth = 4096;
  // L1 geometry is held identical across vendors so cross-architecture
  // deltas come only from the parameters the paper studies (paradigm,
  // warp width, shared-memory path, Table 3 RAM/compute).
  c.l1_size_bytes = 128 << 10;
  c.l1_latency_cycles = 28;
  c.l2_size_bytes = 8ull << 20;
  c.l2_latency_cycles = 220;
  c.l2_bandwidth_gbps = 1100;  // GCN-class L2
  c.smem_bytes_per_sm = 64 << 10;  // LDS
  c.smem_banks = 32;
  c.smem_latency_cycles = 32;  // independent path: higher base latency
  return c;
}

ArchConfig MakeZ100L() {
  ArchConfig c = MakeZ100();
  c.name = "Z100L";
  // Z100L: same CU count as Z100 but ~1.7x FP64 via higher clocks/wider
  // double-rate units, faster HBM2 stack (Table 3).
  c.lanes_per_sm = 96;  // FP64-parity calibration vs A100 (10.1 TFLOPS)
  c.clock_ghz = 1.70;
  c.fp64_tflops = 10.1;
  c.fp32_tflops = 12.2;
  c.dram_bandwidth_gbps = 1024;
  c.dram_latency_cycles = 660;
  c.dram_capacity_bytes = 32ull << 30;
  c.l2_size_bytes = 16ull << 20;
  c.l2_bandwidth_gbps = 1400;  // GCN-class L2
  return c;
}

}  // namespace

Status ValidateArchConfig(const ArchConfig& config) {
  auto bad = [&](const std::string& what) {
    return Status::InvalidArgument("arch config '" + config.name + "': " +
                                   what);
  };
  auto positive_finite = [](double v) {
    return std::isfinite(v) && v > 0;
  };
  if (config.num_sms == 0) return bad("num_sms must be positive");
  if (config.warp_width == 0 || config.warp_width > 64) {
    return bad("warp_width must be in [1,64]");
  }
  if (config.schedulers_per_sm == 0) {
    return bad("schedulers_per_sm must be positive");
  }
  if (config.lanes_per_sm == 0) return bad("lanes_per_sm must be positive");
  if (config.max_warps_per_sm == 0) {
    return bad("max_warps_per_sm must be positive");
  }
  if (!positive_finite(config.clock_ghz)) {
    return bad("clock_ghz must be positive and finite");
  }
  if (!positive_finite(config.dram_bandwidth_gbps)) {
    return bad("dram_bandwidth_gbps must be positive and finite");
  }
  if (!positive_finite(config.l2_bandwidth_gbps)) {
    return bad("l2_bandwidth_gbps must be positive and finite");
  }
  if (config.launch_overhead_us < 0 ||
      !std::isfinite(config.launch_overhead_us)) {
    return bad("launch_overhead_us must be non-negative and finite");
  }
  if (!std::has_single_bit(config.cache_line_bytes) ||
      !std::has_single_bit(config.mem_segment_bytes)) {
    return bad("cache_line_bytes and mem_segment_bytes must be powers of two");
  }
  return Status::OK();
}

const ArchConfig& V100Config() {
  static const ArchConfig* config = new ArchConfig(MakeV100());
  return *config;
}

const ArchConfig& A100Config() {
  static const ArchConfig* config = new ArchConfig(MakeA100());
  return *config;
}

const ArchConfig& Z100Config() {
  static const ArchConfig* config = new ArchConfig(MakeZ100());
  return *config;
}

const ArchConfig& Z100LConfig() {
  static const ArchConfig* config = new ArchConfig(MakeZ100L());
  return *config;
}

std::vector<const ArchConfig*> PaperGpus() {
  return {&Z100Config(), &V100Config(), &Z100LConfig(), &A100Config()};
}

Result<const ArchConfig*> PaperGpuByName(const std::string& name) {
  std::string known;
  for (const ArchConfig* gpu : PaperGpus()) {
    if (gpu->name == name) return gpu;
    known += (known.empty() ? "" : ", ") + gpu->name;
  }
  return Status::NotFound("unknown GPU '" + name + "' (expected one of " +
                          known + ")");
}

}  // namespace adgraph::vgpu
