#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/api.h"
#include "graph/builder.h"
#include "graph/generate.h"
#include "prof/metrics.h"
#include "prof/report.h"
#include "prof/session.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"

namespace adgraph::prof {
namespace {

using vgpu::A100Config;
using vgpu::Ctx;
using vgpu::Device;
using vgpu::KernelStats;
using vgpu::KernelTask;
using vgpu::Z100LConfig;

KernelStats MakeStats(double ms, double cycles) {
  KernelStats stats;
  stats.time_ms = ms;
  stats.cycles = cycles;
  stats.counters.warp_inst_issued = 100;
  stats.counters.valu_warp_inst = 60;
  stats.counters.shared_load_inst = 5;
  stats.counters.shared_store_inst = 10;
  stats.counters.global_load_inst = 20;
  stats.counters.global_store_inst = 7;
  stats.counters.atomic_inst = 3;
  return stats;
}

TEST(AlgoProfileTest, AddAccumulates) {
  JobProfile p = ProfileWindow({MakeStats(1.0, 1000), MakeStats(2.0, 3000)}, 0);
  EXPECT_EQ(p.num_kernels, 2u);
  EXPECT_DOUBLE_EQ(p.total_ms, 3.0);
  EXPECT_DOUBLE_EQ(p.total_cycles, 4000.0);
  EXPECT_EQ(p.counters.warp_inst_issued, 200u);
}

TEST(FineGrainedTest, CudaViewSelectsNcuCounters) {
  JobProfile p = ProfileWindow({MakeStats(1.0, 1000)}, 0);
  auto fine = ComputeFineGrained(p, rt::Platform::kCuda);
  EXPECT_EQ(fine.type1, 100u);  // inst_issued: all classes
  EXPECT_EQ(fine.type2, 10u);   // shared stores only
  EXPECT_EQ(fine.type3, 20u);
  EXPECT_EQ(fine.type4, 7u);    // stores only, atomics separate
}

TEST(FineGrainedTest, RocmViewSelectsHiprofCounters) {
  JobProfile p = ProfileWindow({MakeStats(1.0, 1000)}, 0);
  auto fine = ComputeFineGrained(p, rt::Platform::kRocmLike);
  EXPECT_EQ(fine.type1, 240u);  // SQ_INSTS_VALU: 4 SIMD16 passes per op
  EXPECT_EQ(fine.type2, 15u);   // SQ_INSTS_LDS: loads + stores
  EXPECT_EQ(fine.type3, 20u);
  EXPECT_EQ(fine.type4, 10u);   // VMEM_WR includes atomics
}

TEST(MetricNamesTest, MatchPaperTables1And2) {
  auto cuda_fine = FineGrainedMetricNames(rt::Platform::kCuda);
  ASSERT_EQ(cuda_fine.size(), 4u);
  EXPECT_EQ(cuda_fine[0], "inst_issued");
  EXPECT_EQ(cuda_fine[1], "inst_executed_shared_stores");
  auto rocm_fine = FineGrainedMetricNames(rt::Platform::kRocmLike);
  EXPECT_EQ(rocm_fine[0], "SQ_INSTS_VALU");
  EXPECT_EQ(rocm_fine[3], "SQ_INSTS_VMEM_WR");
  auto cuda_coarse = CoarseMetricNames(rt::Platform::kCuda);
  EXPECT_EQ(cuda_coarse[0], "achieved_occupancy");
  EXPECT_EQ(cuda_coarse[3], "gld_efficiency");
  auto rocm_coarse = CoarseMetricNames(rt::Platform::kRocmLike);
  EXPECT_EQ(rocm_coarse[0], "VALUBusy");
  EXPECT_EQ(rocm_coarse[1], "1-ALUStalledByLDS");
}

TEST(CoarseTest, BankConflictsLowerCudaSharedEfficiency) {
  JobProfile clean;
  clean.total_cycles = 1000;
  clean.counters.smem_accesses = 100;
  clean.counters.smem_bank_conflict_extra = 0;
  JobProfile conflicted = clean;
  conflicted.counters.smem_bank_conflict_extra = 300;
  auto arch = A100Config();
  const auto& params = vgpu::DefaultTimingParams();
  auto a = ComputeCoarse(clean, rt::Platform::kCuda, arch, params);
  auto b = ComputeCoarse(conflicted, rt::Platform::kCuda, arch, params);
  EXPECT_DOUBLE_EQ(a.shared_memory, 1.0);
  EXPECT_DOUBLE_EQ(b.shared_memory, 0.25);
}

TEST(CoarseTest, L1TrafficLowersUnifiedSharedEfficiencyOnly) {
  JobProfile p;
  p.total_cycles = 1000;
  p.counters.smem_accesses = 100;
  p.counters.smem_bytes = 1000;
  p.counters.l1_misses = 10000;  // miss_bytes >> smem_bytes
  const auto& params = vgpu::DefaultTimingParams();
  auto cuda = ComputeCoarse(p, rt::Platform::kCuda, A100Config(), params);
  EXPECT_LT(cuda.shared_memory, 0.5)
      << "contention must depress shared_efficiency on the unified path";
  auto rocm =
      ComputeCoarse(p, rt::Platform::kRocmLike, Z100LConfig(), params);
  EXPECT_GT(rocm.shared_memory, 0.9)
      << "independent LDS is immune to L1 traffic";
}

TEST(CoarseTest, RocmUtilizationRatiosFromCycleShares) {
  JobProfile p;
  p.total_cycles = 1000;
  p.valu_cycles = 250;
  p.smem_cycles = 100;
  p.dram_cycles = 400;
  p.counters.l2_hits = 3;
  p.counters.l2_misses = 1;
  const auto& params = vgpu::DefaultTimingParams();
  auto m = ComputeCoarse(p, rt::Platform::kRocmLike, Z100LConfig(), params);
  EXPECT_DOUBLE_EQ(m.warp_utilization, 0.25);   // VALUBusy
  EXPECT_DOUBLE_EQ(m.shared_memory, 0.9);       // 1 - ALUStalledByLDS
  EXPECT_DOUBLE_EQ(m.l2_hit, 0.75);
  EXPECT_DOUBLE_EQ(m.global_memory, 0.4);       // MemUnitBusy
}


TEST(ReportTest, FormatKernelLogFoldsByName) {
  Device dev(A100Config());
  auto noop = [](Ctx& c) -> KernelTask {
    c.Add(c.GlobalThreadId(), 1u);
    co_return;
  };
  ASSERT_TRUE(dev.Launch("alpha", {1, 32}, noop).ok());
  ASSERT_TRUE(dev.Launch("alpha", {1, 32}, noop).ok());
  ASSERT_TRUE(dev.Launch("beta", {2, 64}, noop).ok());
  std::string report = FormatKernelLog(dev);
  EXPECT_NE(report.find("alpha"), std::string::npos);
  EXPECT_NE(report.find("beta"), std::string::npos);
  EXPECT_NE(report.find("| 2 "), std::string::npos) << "alpha folded to 2";
  EXPECT_NE(report.find("100%"), std::string::npos);
}

TEST(ReportTest, StartIndexWindowsTheLog) {
  Device dev(A100Config());
  auto noop = [](Ctx& c) -> KernelTask {
    c.Add(c.GlobalThreadId(), 1u);
    co_return;
  };
  ASSERT_TRUE(dev.Launch("early", {1, 32}, noop).ok());
  size_t mark = dev.kernel_log().size();
  ASSERT_TRUE(dev.Launch("late", {1, 32}, noop).ok());
  std::string report = FormatKernelLog(dev, mark);
  EXPECT_EQ(report.find("early"), std::string::npos);
  EXPECT_NE(report.find("late"), std::string::npos);
}

TEST(SessionTest, WindowsTheKernelLog) {
  Device dev(A100Config());
  auto noop = [](Ctx& c) -> KernelTask {
    c.Add(c.GlobalThreadId(), 1u);
    co_return;
  };
  ASSERT_TRUE(dev.Launch("before", {1, 32}, noop).ok());
  Session session(&dev);
  ASSERT_TRUE(dev.Launch("inside1", {1, 32}, noop).ok());
  ASSERT_TRUE(dev.Launch("inside2", {2, 64}, noop).ok());
  JobProfile p = session.Finish();
  EXPECT_EQ(p.num_kernels, 2u);
  // The pre-session kernel is excluded.
  EXPECT_EQ(dev.kernel_log().size(), 3u);
}

// ------------------------------------------------- JobProfile (§2.14)

TEST(JobProfileTest, BuildFoldsAndRanksTheWindow) {
  Device dev(A100Config());
  auto noop = [](Ctx& c) -> KernelTask {
    c.Add(c.GlobalThreadId(), 1u);
    co_return;
  };
  // One pre-window launch that must not leak into the job's attribution.
  ASSERT_TRUE(dev.Launch("outside", {1, 32}, noop).ok());
  const size_t start = dev.kernel_log().size();
  ASSERT_TRUE(dev.Launch("hot", {8, 256}, noop).ok());
  ASSERT_TRUE(dev.Launch("hot", {8, 256}, noop).ok());
  ASSERT_TRUE(dev.Launch("cold", {1, 32}, noop).ok());

  JobProfile job = ProfileWindow(dev.kernel_log(), start);
  EXPECT_EQ(job.num_kernels, 3u);
  EXPECT_GT(job.total_cycles, 0.0);
  ASSERT_EQ(job.top_kernels.size(), 2u) << "launches fold by kernel name";
  EXPECT_EQ(job.top_kernels[0].kernel_name, "hot");
  EXPECT_EQ(job.top_kernels[0].launches, 2u);
  EXPECT_EQ(job.top_kernels[1].kernel_name, "cold");
  EXPECT_GE(job.top_kernels[0].cycles, job.top_kernels[1].cycles);
  for (const JobKernelEntry& entry : job.top_kernels) {
    EXPECT_NE(entry.kernel_name, "outside");
  }
  // Ratios stay ratios.
  EXPECT_GE(job.divergent_branch_ratio, 0.0);
  EXPECT_LE(job.divergent_branch_ratio, 1.0);
  EXPECT_GE(job.l2_hit_rate, 0.0);
  EXPECT_LE(job.l2_hit_rate, 1.0);
  EXPECT_GT(job.achieved_occupancy, 0.0);
  EXPECT_LE(job.achieved_occupancy, 1.0);

  // Top-N truncation: ask for one row, get the heaviest.
  JobProfile top1 = ProfileWindow(dev.kernel_log(), start, 1);
  ASSERT_EQ(top1.top_kernels.size(), 1u);
  EXPECT_EQ(top1.top_kernels[0].kernel_name, "hot");
}

TEST(JobProfileTest, EmptyWindowIsNeutral) {
  JobProfile job = ProfileWindow({}, 0);
  EXPECT_EQ(job.num_kernels, 0u);
  EXPECT_TRUE(job.top_kernels.empty());
  // The efficiency ratios default to 1 (nothing transferred is nothing
  // wasted) so downstream histograms are not polluted with zeros.
  EXPECT_DOUBLE_EQ(job.gld_efficiency, 1.0);
  EXPECT_DOUBLE_EQ(job.gst_efficiency, 1.0);
}

TEST(JobProfileTest, WindowMatchesTheRawKernelLog) {
  auto coo = graph::GenerateRmat({.scale = 8, .edge_factor = 8, .seed = 5})
                 .value();
  graph::CsrBuildOptions build;
  build.remove_duplicates = true;
  build.remove_self_loops = true;
  build.make_undirected = true;
  const auto g = graph::CsrGraph::FromCoo(coo, build).value();
  Device dev(A100Config());
  auto noop = [](Ctx& c) -> KernelTask {
    c.Add(c.GlobalThreadId(), 1u);
    co_return;
  };
  ASSERT_TRUE(dev.Launch("before", {4, 64}, noop).ok());
  Session session(&dev);
  ASSERT_TRUE(core::Run(&dev, {core::Algo::kBfs}, g,
                        core::Params(core::BfsOptions{.source = 0}))
                  .ok());
  ASSERT_TRUE(core::Run(&dev, {core::Algo::kTriangleCount}, g,
                        core::Params(core::TcOptions{}))
                  .ok());
  const JobProfile job = session.Finish();

  // The reference, summed from the raw log entries of the window in log
  // order: what an ncu / hiprof run over the same launches reports.
  const std::vector<KernelStats>& log = dev.kernel_log();
  vgpu::KernelCounters counters;
  double total_ms = 0, total_cycles = 0, valu = 0, smem = 0, dram = 0;
  double exposed = 0, occupancy_weighted = 0;
  std::vector<std::string> first_seen;
  std::map<std::string, std::pair<uint64_t, double>> by_name;
  for (size_t i = 1; i < log.size(); ++i) {
    counters.Merge(log[i].counters);
    total_ms += log[i].time_ms;
    total_cycles += log[i].cycles;
    valu += log[i].valu_cycles;
    smem += log[i].smem_cycles;
    dram += log[i].dram_cycles;
    exposed += log[i].exposed_latency_cycles;
    occupancy_weighted += log[i].achieved_occupancy * log[i].cycles;
    auto [it, inserted] = by_name.try_emplace(log[i].kernel_name);
    if (inserted) first_seen.push_back(log[i].kernel_name);
    it->second.first += 1;
    it->second.second += log[i].cycles;
  }
  ASSERT_GE(first_seen.size(), 3u) << "BFS and TC kernels fold by name";

  EXPECT_EQ(job.num_kernels, log.size() - 1) << "the window excludes 'before'";
  EXPECT_TRUE(job.counters == counters);
  EXPECT_EQ(job.total_ms, total_ms);
  EXPECT_EQ(job.total_cycles, total_cycles);
  EXPECT_EQ(job.valu_cycles, valu);
  EXPECT_EQ(job.smem_cycles, smem);
  EXPECT_EQ(job.dram_cycles, dram);
  EXPECT_EQ(job.exposed_latency_cycles, exposed);
  EXPECT_EQ(job.achieved_occupancy, occupancy_weighted / total_cycles);
  EXPECT_EQ(job.warp_inst_issued, counters.warp_inst_issued);
  EXPECT_EQ(job.branches, counters.branches);
  EXPECT_EQ(job.divergent_branches, counters.divergent_branches);
  EXPECT_EQ(job.dram_bytes,
            counters.dram_read_bytes + counters.dram_write_bytes);
  EXPECT_EQ(job.divergent_branch_ratio, counters.divergent_branch_ratio());
  EXPECT_EQ(job.gld_efficiency, counters.gld_efficiency());
  EXPECT_EQ(job.gst_efficiency, counters.gst_efficiency());
  EXPECT_EQ(job.l1_hit_rate, counters.l1_hit_rate());
  EXPECT_EQ(job.l2_hit_rate, counters.l2_hit_rate());

  // At most five by cycles; ties keep first-seen order.
  std::stable_sort(first_seen.begin(), first_seen.end(),
                   [&](const std::string& a, const std::string& b) {
                     return by_name[a].second > by_name[b].second;
                   });
  if (first_seen.size() > 5) first_seen.resize(5);
  ASSERT_EQ(job.top_kernels.size(), first_seen.size());
  for (size_t i = 0; i < first_seen.size(); ++i) {
    EXPECT_EQ(job.top_kernels[i].kernel_name, first_seen[i]) << i;
    EXPECT_EQ(job.top_kernels[i].launches, by_name[first_seen[i]].first)
        << first_seen[i];
  }
}

TEST(ReportTest, TraceSummaryWarnsOnDroppedSpans) {
  std::vector<trace::TraceEvent> events;
  trace::TraceEvent event;
  event.name = "algo:bfs";
  event.category = "engine";
  event.phase = 'X';
  event.dur_us = 10;
  events.push_back(event);
  std::string clean = FormatTraceSummary(events, 0);
  EXPECT_EQ(clean.find("WARNING"), std::string::npos) << clean;
  std::string lossy = FormatTraceSummary(events, 7);
  EXPECT_NE(lossy.find("WARNING: 7"), std::string::npos) << lossy;
  EXPECT_NE(lossy.find("adgraph_trace_dropped_spans_total"),
            std::string::npos)
      << "the warning must name the counter to alert on";
}

// ---------------------------------------------------------- Percentile
//
// Pins the nearest-rank definition: the value at 1-based sorted rank
// ceil(p*n), clamped to [1, n].  The previous scheduler-local
// implementation rounded p*(n-1), which e.g. returned the *minimum* of a
// two-sample distribution for p95.

TEST(PercentileTest, EmptySampleIsZero) {
  EXPECT_DOUBLE_EQ(Percentile({}, 0.95), 0.0);
}

TEST(PercentileTest, SingleSampleReturnsItForAnyP) {
  EXPECT_DOUBLE_EQ(Percentile({3.25}, 0.0), 3.25);
  EXPECT_DOUBLE_EQ(Percentile({3.25}, 0.5), 3.25);
  EXPECT_DOUBLE_EQ(Percentile({3.25}, 0.95), 3.25);
  EXPECT_DOUBLE_EQ(Percentile({3.25}, 1.0), 3.25);
}

TEST(PercentileTest, TwoSamples) {
  // ceil(0.5 * 2) = 1 -> the smaller; ceil(0.95 * 2) = 2 -> the larger.
  EXPECT_DOUBLE_EQ(Percentile({10.0, 20.0}, 0.5), 10.0);
  EXPECT_DOUBLE_EQ(Percentile({20.0, 10.0}, 0.95), 20.0);
  EXPECT_DOUBLE_EQ(Percentile({20.0, 10.0}, 1.0), 20.0);
}

TEST(PercentileTest, P95OfTwentyIsNineteenthValue) {
  // ceil(0.95 * 20) = 19: exactly 95% of the sample is <= the result.
  std::vector<double> values;
  for (int i = 20; i >= 1; --i) values.push_back(i);  // unsorted on purpose
  EXPECT_DOUBLE_EQ(Percentile(values, 0.95), 19.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 0.50), 10.0);
}

TEST(PercentileTest, OutOfRangePClamped) {
  std::vector<double> values = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(Percentile(values, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 1.5), 3.0);
}

}  // namespace
}  // namespace adgraph::prof
