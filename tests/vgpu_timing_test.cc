#include <gtest/gtest.h>

#include <limits>

#include "vgpu/arch.h"
#include "vgpu/counters.h"
#include "vgpu/device.h"
#include "vgpu/timing.h"

namespace adgraph::vgpu {
namespace {

KernelStats BaseStats() {
  KernelStats stats;
  stats.grid = 64;
  stats.block = 256;
  stats.counters.warps_launched = 64 * 8;
  stats.counters.blocks_launched = 64;
  return stats;
}

TEST(ArchConfigTest, PaperTable3Values) {
  EXPECT_EQ(A100Config().num_sms, 108u);
  EXPECT_EQ(V100Config().num_sms, 80u);
  EXPECT_EQ(Z100Config().num_sms, 64u);
  EXPECT_EQ(Z100LConfig().num_sms, 64u);
  EXPECT_EQ(A100Config().warp_width, 32u);
  EXPECT_EQ(Z100LConfig().warp_width, 64u);
  EXPECT_EQ(A100Config().dram_capacity_bytes, 80ull << 30);
  EXPECT_EQ(Z100Config().dram_capacity_bytes, 16ull << 30);
  EXPECT_EQ(A100Config().ram_type, "HBM2e");
  EXPECT_EQ(Z100LConfig().ram_type, "HBM2");
  EXPECT_DOUBLE_EQ(A100Config().dram_bandwidth_gbps, 1935);
  EXPECT_DOUBLE_EQ(Z100LConfig().dram_bandwidth_gbps, 1024);
  EXPECT_EQ(A100Config().paradigm, Paradigm::kSimt);
  EXPECT_EQ(Z100Config().paradigm, Paradigm::kSimd);
  EXPECT_EQ(A100Config().shared_path, SharedMemPath::kUnifiedWithL1);
  EXPECT_EQ(Z100Config().shared_path, SharedMemPath::kIndependentLds);
}

TEST(ArchConfigTest, PaperGpusOrderedAsTable3) {
  auto gpus = PaperGpus();
  ASSERT_EQ(gpus.size(), 4u);
  EXPECT_EQ(gpus[0]->name, "Z100");
  EXPECT_EQ(gpus[1]->name, "V100");
  EXPECT_EQ(gpus[2]->name, "Z100L");
  EXPECT_EQ(gpus[3]->name, "A100");
}

// Regression: a pathological custom arch (zero SMs, zero clock, zero or
// non-finite bandwidth) used to turn every cycle count into inf/NaN and
// poison the MTEPS tables downstream.  ValidateArchConfig rejects such
// configs wherever they enter the system (scheduler pool construction,
// partitioned-engine creation, CLI custom archs).
TEST(ArchConfigTest, ValidateRejectsPathologicalConfigs) {
  EXPECT_TRUE(ValidateArchConfig(A100Config()).ok());
  EXPECT_TRUE(ValidateArchConfig(V100Config()).ok());
  EXPECT_TRUE(ValidateArchConfig(Z100Config()).ok());
  EXPECT_TRUE(ValidateArchConfig(Z100LConfig()).ok());

  auto mutate = [](auto&& set) {
    ArchConfig config = A100Config();
    set(config);
    return ValidateArchConfig(config);
  };
  EXPECT_EQ(mutate([](ArchConfig& c) { c.num_sms = 0; }).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(mutate([](ArchConfig& c) { c.clock_ghz = 0; }).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(mutate([](ArchConfig& c) { c.clock_ghz = -1.2; }).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(mutate([](ArchConfig& c) { c.dram_bandwidth_gbps = 0; }).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(mutate([](ArchConfig& c) { c.l2_bandwidth_gbps = 0; }).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(mutate([](ArchConfig& c) {
              c.dram_bandwidth_gbps = std::numeric_limits<double>::quiet_NaN();
            }).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(mutate([](ArchConfig& c) { c.schedulers_per_sm = 0; }).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(mutate([](ArchConfig& c) { c.lanes_per_sm = 0; }).code(),
            StatusCode::kInvalidArgument);
  // The coalescer and the caches shift and mask: geometry must be a power
  // of two.
  EXPECT_EQ(mutate([](ArchConfig& c) { c.cache_line_bytes = 96; }).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(mutate([](ArchConfig& c) { c.mem_segment_bytes = 48; }).code(),
            StatusCode::kInvalidArgument);
}

TEST(ArchConfigDeathTest, DeviceRefusesGeometryThatIsNotAPowerOfTwo) {
  // A device built by hand reaches core::Run without ValidateArchConfig;
  // its constructor checks the geometry the address math needs.
  ArchConfig line = A100Config();
  line.cache_line_bytes = 96;
  EXPECT_DEATH(Device{line}, "must be powers of two");
  ArchConfig segment = A100Config();
  segment.mem_segment_bytes = 48;
  EXPECT_DEATH(Device{segment}, "must be powers of two");
}

TEST(ArchConfigDeathTest, DeviceRefusesZeroSms) {
  // The timing model and the block-to-SM mapping divide by num_sms: the
  // device dies at construction, naming the config and the field, not
  // with SIGFPE at its first launch.
  ArchConfig no_sms = A100Config();
  no_sms.num_sms = 0;
  EXPECT_DEATH(Device{no_sms}, "'A100': num_sms must be positive");
}

TEST(TimingTest, FixedOverheadFloorsTinyKernels) {
  KernelStats stats = BaseStats();
  stats.counters.warp_inst_issued = 10;
  ComputeKernelTiming(A100Config(), DefaultTimingParams(), &stats);
  double overhead_ms = A100Config().launch_overhead_us / 1000;
  EXPECT_GE(stats.time_ms, overhead_ms * 0.99);
  EXPECT_LT(stats.time_ms, overhead_ms * 1.5);
}

TEST(TimingTest, DramBytesBoundBandwidthKernels) {
  KernelStats stats = BaseStats();
  stats.counters.dram_read_bytes = 1ull << 30;  // 1 GiB
  ComputeKernelTiming(A100Config(), DefaultTimingParams(), &stats);
  // 1 GiB / 1935 GB/s ~ 0.55 ms, plus overhead.
  EXPECT_GT(stats.time_ms, 0.5);
  EXPECT_LT(stats.time_ms, 1.0);

  KernelStats slow = BaseStats();
  slow.counters.dram_read_bytes = 1ull << 30;
  ComputeKernelTiming(Z100Config(), DefaultTimingParams(), &slow);
  EXPECT_GT(slow.time_ms, stats.time_ms)
      << "800 GB/s HBM2 must be slower than 1935 GB/s HBM2e";
}

TEST(TimingTest, IssueBoundScalesWithSmCount) {
  KernelStats stats = BaseStats();
  stats.counters.warp_inst_issued = 100'000'000;
  ComputeKernelTiming(A100Config(), DefaultTimingParams(), &stats);
  KernelStats fewer = BaseStats();
  fewer.counters.warp_inst_issued = 100'000'000;
  ComputeKernelTiming(Z100Config(), DefaultTimingParams(), &fewer);
  // Same instruction count through fewer CUs and lower clock -> slower.
  EXPECT_GT(fewer.time_ms, stats.time_ms);
}

TEST(TimingTest, UnifiedPathChargesSmemContention) {
  auto run = [](const ArchConfig& arch) {
    KernelStats stats;
    stats.grid = 64;
    stats.block = 256;
    stats.counters.warps_launched = 512;
    stats.counters.smem_accesses = 10'000'000;
    stats.counters.smem_bytes = 10'000'000ull * 128;
    stats.counters.l1_misses = 80'000'000;  // refill traffic dominates
    ComputeKernelTiming(arch, DefaultTimingParams(), &stats);
    return stats.smem_cycles;
  };
  ArchConfig nvidia = A100Config();
  ArchConfig amd_like = A100Config();  // identical except the path flag
  amd_like.shared_path = SharedMemPath::kIndependentLds;
  EXPECT_GT(run(nvidia), 1.5 * run(amd_like))
      << "L1 contention must inflate unified-path shared cycles";
}

TEST(TimingTest, OccupancyDeratedByLoopImbalance) {
  KernelStats balanced = BaseStats();
  balanced.counters.loop_lane_iters_possible = 1000;
  balanced.counters.loop_lane_iters_useful = 1000;
  ComputeKernelTiming(A100Config(), DefaultTimingParams(), &balanced);
  KernelStats skewed = BaseStats();
  skewed.counters.loop_lane_iters_possible = 1000;
  skewed.counters.loop_lane_iters_useful = 100;
  ComputeKernelTiming(A100Config(), DefaultTimingParams(), &skewed);
  EXPECT_GT(balanced.achieved_occupancy, skewed.achieved_occupancy);
}

TEST(TimingTest, LatencyHiddenByResidentWarps) {
  KernelStats few = BaseStats();
  few.counters.warps_launched = 108;  // one warp per SM
  few.counters.memory_latency_cycles = 1e7;
  ComputeKernelTiming(A100Config(), DefaultTimingParams(), &few);
  KernelStats many = BaseStats();
  many.counters.warps_launched = 108 * 64;
  many.counters.memory_latency_cycles = 1e7;
  ComputeKernelTiming(A100Config(), DefaultTimingParams(), &many);
  EXPECT_GT(few.exposed_latency_cycles, many.exposed_latency_cycles);
}

TEST(CountersTest, MergeAccumulatesEverything) {
  KernelCounters a, b;
  a.warp_inst_issued = 10;
  a.lane_ops = 100;
  a.l1_hits = 5;
  a.barriers = 1;
  a.memory_latency_cycles = 2.5;
  b.warp_inst_issued = 7;
  b.lane_ops = 50;
  b.l1_misses = 3;
  b.memory_latency_cycles = 1.5;
  a.Merge(b);
  EXPECT_EQ(a.warp_inst_issued, 17u);
  EXPECT_EQ(a.lane_ops, 150u);
  EXPECT_EQ(a.l1_hits, 5u);
  EXPECT_EQ(a.l1_misses, 3u);
  EXPECT_EQ(a.barriers, 1u);
  EXPECT_DOUBLE_EQ(a.memory_latency_cycles, 4.0);
}

TEST(CountersTest, DerivedRatios) {
  KernelCounters c;
  EXPECT_DOUBLE_EQ(c.loop_balance(), 1.0);
  EXPECT_DOUBLE_EQ(c.gld_efficiency(), 1.0);
  c.l1_hits = 3;
  c.l1_misses = 1;
  EXPECT_DOUBLE_EQ(c.l1_hit_rate(), 0.75);
  c.l2_hits = 1;
  c.l2_misses = 3;
  EXPECT_DOUBLE_EQ(c.l2_hit_rate(), 0.25);
  c.global_ld_bytes_requested = 128;
  c.global_ld_bytes_transferred = 512;
  EXPECT_DOUBLE_EQ(c.gld_efficiency(), 0.25);
}

}  // namespace
}  // namespace adgraph::vgpu
