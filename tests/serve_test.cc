// Tests of the src/serve/ job scheduler: registry dispatch, concurrent
// submission correctness (identical results to serial execution),
// backpressure, memory-aware admission control, and stats reporting.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <future>
#include <map>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include <cmath>
#include <limits>
#include <mutex>

#include "core/api.h"
#include "core/host_ref.h"
#include "core/residency.h"
#include "graph/builder.h"
#include "graph/csr.h"
#include "graph/datasets.h"
#include "graph/delta.h"
#include "graph/generate.h"
#include "obs/registry.h"
#include "ooc/ooc_csr.h"
#include "prof/report.h"
#include "serve/admission.h"
#include "serve/graph_cache.h"
#include "serve/job.h"
#include "serve/registry.h"
#include "serve/scheduler.h"
#include "trace_window.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"

namespace adgraph::serve {
namespace {

using graph::CsrGraph;

/// Shared small test graph: symmetric, weighted R-MAT.
std::shared_ptr<const CsrGraph> TestGraph(uint32_t scale = 8,
                                          uint64_t seed = 42) {
  auto coo = graph::GenerateRmat({.scale = scale, .edge_factor = 8.0,
                                  .seed = seed}).value();
  graph::AttachRandomWeights(&coo, 0.1, 1.0, 7);
  graph::CsrBuildOptions options;
  options.remove_duplicates = true;
  options.remove_self_loops = true;
  options.make_undirected = true;
  return std::make_shared<const CsrGraph>(
      CsrGraph::FromCoo(coo, options).value());
}

JobSpec BfsJob(std::shared_ptr<const CsrGraph> g, graph::vid_t source,
               std::string arch = "") {
  core::BfsOptions options;
  options.source = source;
  options.assume_symmetric = true;
  return {.graph = std::move(g), .params = options,
          .arch_preference = std::move(arch), .tag = "bfs"};
}

TEST(JobTest, AlgorithmNamesRoundTrip) {
  for (size_t i = 0; i < std::variant_size_v<JobParams>; ++i) {
    auto algo = static_cast<Algorithm>(i);
    auto parsed = ParseAlgorithm(AlgorithmName(algo));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, algo);
  }
  EXPECT_TRUE(ParseAlgorithm("quantum-pagerank").status().IsNotFound());
}

TEST(JobTest, SpecAlgorithmFollowsParamsAlternative) {
  auto g = TestGraph();
  EXPECT_EQ(BfsJob(g, 0).algorithm(), Algorithm::kBfs);
  JobSpec tc{.graph = g, .params = core::TcOptions{}};
  EXPECT_EQ(tc.algorithm(), Algorithm::kTriangleCount);
}

TEST(RegistryTest, EstimatesCoverTheGraphUpload) {
  auto g = TestGraph();
  for (const AlgorithmHandler& handler : AlgorithmRegistry()) {
    JobSpec spec{.graph = g, .params = {}};
    // Give every handler its own params alternative.
    switch (handler.algo) {
      case Algorithm::kBfs: spec.params = core::BfsOptions{}; break;
      case Algorithm::kSssp: spec.params = core::SsspOptions{}; break;
      case Algorithm::kPageRank: spec.params = core::PageRankOptions{}; break;
      case Algorithm::kTriangleCount: spec.params = core::TcOptions{}; break;
      case Algorithm::kConnectedComponents:
        spec.params = core::CcOptions{}; break;
      case Algorithm::kKCore: spec.params = core::KCoreOptions{}; break;
      case Algorithm::kJaccard: spec.params = core::JaccardOptions{}; break;
      case Algorithm::kWidestPath:
        spec.params = core::WidestPathOptions{}; break;
      case Algorithm::kColoring: spec.params = core::ColoringOptions{}; break;
      case Algorithm::kEsbv: spec.params = core::EsbvOptions{}; break;
      case Algorithm::kBetweenness: spec.params = core::BcOptions{}; break;
    }
    EXPECT_GE(EstimateJobDeviceBytes(spec), g->DeviceFootprintBytes() / 2)
        << AlgorithmName(handler.algo);
  }
}

TEST(RegistryTest, EstimatesCoverColdRunPeakOnGoldenProxies) {
  // Admission must never let a job die mid-run with OOM, so the estimate
  // bounds the peak device bytes of a cold core::Run on a fresh device.
  const auto& datasets = graph::PaperDatasets();
  for (size_t d = 0; d < 3; ++d) {
    auto directed = graph::Materialize(datasets[d], 32.0).value();
    auto coo = directed.ToCoo();
    graph::AttachRandomWeights(&coo, 0.1, 1.0, 1000 + d);
    core::BfsOptions parents;
    parents.compute_parents = true;
    core::TcOptions bisson_fatica;
    bisson_fatica.orient = false;
    for (auto g : {std::make_shared<const CsrGraph>(std::move(directed)),
                   std::make_shared<const CsrGraph>(
                       CsrGraph::FromCoo(coo).value())}) {
      core::EsbvOptions esbv;
      esbv.vertices = core::SelectPseudoCluster(g->num_vertices(), 0.5, 7);
      for (const JobParams& params : {JobParams(core::BfsOptions{}),
                                      JobParams(parents),
                                      JobParams(core::SsspOptions{}),
                                      JobParams(core::PageRankOptions{
                                          .max_iterations = 2}),
                                      JobParams(core::TcOptions{}),
                                      JobParams(bisson_fatica),
                                      JobParams(core::CcOptions{}),
                                      JobParams(core::KCoreOptions{}),
                                      JobParams(core::JaccardOptions{}),
                                      JobParams(core::WidestPathOptions{}),
                                      JobParams(core::ColoringOptions{}),
                                      JobParams(esbv),
                                      JobParams(core::BcOptions{})}) {
        JobSpec spec{.graph = g, .params = params};
        // ESBV jobs on unweighted graphs fail validation instead.
        if (!ValidateJobSpec(spec).ok()) continue;
        vgpu::Device dev(vgpu::A100Config());
        ASSERT_TRUE(core::Run(&dev, {spec.algorithm()}, *g, params).ok());
        const bool with_parents =
            spec.algorithm() == Algorithm::kBfs &&
            std::get<core::BfsOptions>(params).compute_parents;
        const bool unoriented =
            spec.algorithm() == Algorithm::kTriangleCount &&
            !std::get<core::TcOptions>(params).orient;
        EXPECT_GE(EstimateJobDeviceBytes(spec), dev.memory_peak_bytes())
            << datasets[d].name << " " << AlgorithmName(spec.algorithm())
            << (with_parents ? " with parents" : "")
            << (unoriented ? " unoriented" : "")
            << (g->has_weights() ? ", weighted" : ", unweighted");
      }
    }
  }
}

TEST(RegistryTest, EsbvRequiresWeights) {
  auto coo = graph::GenerateRmat({.scale = 6, .edge_factor = 4.0, .seed = 1})
                 .value();
  auto unweighted = std::make_shared<const CsrGraph>(
      CsrGraph::FromCoo(coo, {}).value());
  JobSpec spec{.graph = unweighted, .params = core::EsbvOptions{}};
  EXPECT_TRUE(ValidateJobSpec(spec).IsInvalidArgument());
}

TEST(SchedulerTest, SubmitValidation) {
  Scheduler::Options options;
  options.devices = {{.arch = &vgpu::A100Config(), .options = {}}};
  auto scheduler = Scheduler::Create(std::move(options)).value();
  EXPECT_TRUE(scheduler
                  ->Submit({.graph = nullptr, .params = core::BfsOptions{}})
                  .status()
                  .IsInvalidArgument());
  auto g = TestGraph();
  EXPECT_TRUE(scheduler->Submit(BfsJob(g, 0, "H100")).status().IsNotFound());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double weight : {nan, 0.0, -1.0}) {
    JobSpec spec = BfsJob(g, 0);
    spec.fair_weight = weight;
    EXPECT_TRUE(scheduler->Submit(spec).status().IsInvalidArgument())
        << "weight " << weight;
  }
  for (double deadline : {nan, -1.0}) {
    JobSpec spec = BfsJob(g, 0);
    spec.deadline_ms = deadline;
    EXPECT_TRUE(scheduler->Submit(spec).status().IsInvalidArgument())
        << "deadline " << deadline;
  }
}

TEST(SchedulerTest, SingleJobMatchesDirectExecution) {
  auto g = TestGraph();
  auto scheduler = Scheduler::Create({}).value();  // default 4-GPU pool
  auto future = scheduler->Submit(BfsJob(g, 0, "A100")).value();
  JobOutcome outcome = future.get();
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.device_name, "A100");
  EXPECT_GT(outcome.modeled_ms, 0);
  EXPECT_GT(outcome.job_profile.num_kernels, 0u);

  const auto& result = std::get<core::BfsResult>(outcome.payload);
  auto expected = core::host_ref::BfsLevels(*g, 0);
  EXPECT_EQ(result.levels, expected);

  vgpu::Device direct(vgpu::A100Config());
  core::BfsOptions bfs_options;
  bfs_options.source = 0;
  bfs_options.assume_symmetric = true;
  auto direct_result =
      core::Run<core::Algo::kBfs>(&direct, *g, bfs_options).value();
  EXPECT_EQ(FingerprintPayload(outcome.payload),
            FingerprintPayload(JobPayload(std::move(direct_result))));
}

// The headline concurrency test: N submitter threads race mixed algorithm
// jobs into a multi-worker pool; every outcome must be byte-identical to a
// serial run of the same job on the same architecture.
TEST(SchedulerTest, BetweennessJobRunsThroughTheEngine) {
  auto g = TestGraph(7);
  Scheduler::Options options;
  options.devices = {{.arch = &vgpu::A100Config(), .options = {}}};
  auto scheduler = Scheduler::Create(std::move(options)).value();
  JobSpec spec{.graph = g, .params = core::BcOptions{.source = 0}};
  ASSERT_EQ(spec.algorithm(), Algorithm::kBetweenness);
  auto submitted = scheduler->Submit(std::move(spec));
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  JobOutcome outcome = submitted->get();
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  const auto& bc = std::get<core::BcResult>(outcome.payload);
  EXPECT_EQ(bc.centrality.size(), g->num_vertices());
  EXPECT_EQ(bc.sigma.size(), g->num_vertices());
  EXPECT_GT(bc.depth, 0u);
  // Fingerprinting must understand the new payload alternative.
  EXPECT_NE(FingerprintPayload(outcome.payload), 0u);
  scheduler->Shutdown();
}

TEST(SchedulerTest, ConcurrentSubmissionMatchesSerial) {
  auto g = TestGraph(8);
  // Two identical A100s: any worker that picks a job produces the same
  // bits, so assignment nondeterminism cannot leak into results.
  Scheduler::Options options;
  options.devices = {{.arch = &vgpu::A100Config(), .options = {}},
                     {.arch = &vgpu::A100Config(), .options = {}}};
  options.queue_capacity = 8;  // small: exercises blocking backpressure too
  auto scheduler = Scheduler::Create(std::move(options)).value();

  auto make_job = [&g](int i) -> JobSpec {
    switch (i % 4) {
      case 0: return BfsJob(g, static_cast<graph::vid_t>(i) %
                                   g->num_vertices());
      case 1: {
        core::TcOptions tc;
        return {.graph = g, .params = tc};
      }
      case 2: {
        core::PageRankOptions pr;
        pr.max_iterations = 10;
        return {.graph = g, .params = pr};
      }
      default: {
        core::EsbvOptions esbv;
        esbv.vertices = core::SelectPseudoCluster(g->num_vertices(), 0.4, 3);
        return {.graph = g, .params = esbv};
      }
    }
  };

  constexpr int kThreads = 4;
  constexpr int kJobsPerThread = 6;
  std::vector<std::future<JobOutcome>> futures(kThreads * kJobsPerThread);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int j = 0; j < kJobsPerThread; ++j) {
        int i = t * kJobsPerThread + j;
        auto submitted = scheduler->Submit(make_job(i));
        ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
        futures[static_cast<size_t>(i)] = std::move(submitted).value();
      }
    });
  }
  for (auto& thread : submitters) thread.join();

  // Serial reference on a single fresh A100.
  vgpu::Device serial_device(vgpu::A100Config());
  for (int i = 0; i < kThreads * kJobsPerThread; ++i) {
    JobOutcome outcome = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(outcome.status.ok())
        << "job " << i << ": " << outcome.status.ToString();
    JobSpec spec = make_job(i);
    auto serial = core::Run(&serial_device, core::AlgoSpec{spec.algorithm()},
                            *spec.graph, spec.params);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ(FingerprintPayload(outcome.payload),
              FingerprintPayload(*serial))
        << "job " << i << " (" << AlgorithmName(spec.algorithm()) << ")";
    serial_device.ResetCounters();
  }

  scheduler->Drain();
  prof::ServerStats stats = scheduler->Snapshot();
  EXPECT_EQ(stats.jobs_submitted,
            static_cast<uint64_t>(kThreads * kJobsPerThread));
  EXPECT_EQ(stats.jobs_completed,
            static_cast<uint64_t>(kThreads * kJobsPerThread));
  EXPECT_EQ(stats.jobs_queued, 0u);
  EXPECT_EQ(stats.jobs_failed, 0u);
  uint64_t per_device = 0;
  for (const auto& d : stats.devices) per_device += d.jobs_completed;
  EXPECT_EQ(per_device, stats.jobs_completed);
}

TEST(SchedulerTest, RejectPolicyRefusesWhenQueueFull) {
  auto g = TestGraph(6);
  Scheduler::Options options;
  options.devices = {{.arch = &vgpu::A100Config(), .options = {}}};
  options.queue_capacity = 1;
  options.overflow = Scheduler::OverflowPolicy::kReject;
  // Slow the worker down so the queue actually fills.
  options.device_occupancy_floor_ms = 30;
  auto scheduler = Scheduler::Create(std::move(options)).value();

  int accepted = 0;
  int rejected = 0;
  std::vector<std::future<JobOutcome>> futures;
  for (int i = 0; i < 12; ++i) {
    auto submitted = scheduler->Submit(BfsJob(g, 0));
    if (submitted.ok()) {
      futures.push_back(std::move(submitted).value());
      ++accepted;
    } else {
      EXPECT_TRUE(submitted.status().IsResourceExhausted());
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0) << "queue of 1 should have overflowed";
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
  prof::ServerStats stats = scheduler->Snapshot();
  EXPECT_EQ(stats.jobs_rejected_backpressure,
            static_cast<uint64_t>(rejected));
  EXPECT_EQ(stats.jobs_completed, static_cast<uint64_t>(accepted));
}

TEST(SchedulerTest, BlockPolicyEventuallyAcceptsEverything) {
  auto g = TestGraph(6);
  Scheduler::Options options;
  options.devices = {{.arch = &vgpu::A100Config(), .options = {}}};
  options.queue_capacity = 1;
  options.overflow = Scheduler::OverflowPolicy::kBlock;
  auto scheduler = Scheduler::Create(std::move(options)).value();
  std::vector<std::future<JobOutcome>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(scheduler->Submit(BfsJob(g, 0)).value());
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
  EXPECT_EQ(scheduler->Snapshot().jobs_rejected_backpressure, 0u);
}

// The paper's twitter-mpi ESBV OOM, served politely: the job is *admitted*
// into the queue, then rejected by admission control on the device with
// kResourceExhausted — and the pool keeps serving afterwards.
TEST(SchedulerTest, OversizedEsbvRejectedGracefully) {
  auto g = TestGraph(10);
  uint64_t upload = g->DeviceFootprintBytes();
  JobSpec esbv_spec{.graph = g, .params = core::EsbvOptions{}};
  std::get<core::EsbvOptions>(esbv_spec.params).vertices =
      core::SelectPseudoCluster(g->num_vertices(), 0.6, 7);
  uint64_t esbv_estimate = EstimateJobDeviceBytes(esbv_spec);
  ASSERT_GT(esbv_estimate, upload);

  // Scale the device so the graph (and BFS) fit but ESBV's extraction
  // working set does not: capacity halfway between.
  uint64_t target_capacity = upload + (esbv_estimate - upload) / 2;
  Scheduler::Options options;
  Scheduler::DeviceSlot slot;
  slot.arch = &vgpu::A100Config();
  slot.options.memory_scale =
      static_cast<double>(vgpu::A100Config().dram_capacity_bytes) /
      static_cast<double>(target_capacity);
  options.devices = {slot};
  auto scheduler = Scheduler::Create(std::move(options)).value();

  // Admitted (Submit succeeds)...
  auto esbv_future = scheduler->Submit(std::move(esbv_spec)).value();
  JobOutcome esbv_outcome = esbv_future.get();
  // ...then rejected with kResourceExhausted, not a crash and not plain OOM.
  EXPECT_TRUE(esbv_outcome.status.IsResourceExhausted())
      << esbv_outcome.status.ToString();
  EXPECT_GT(esbv_outcome.estimated_bytes, target_capacity);

  // The pool keeps serving: a BFS on the same graph still completes.
  JobOutcome bfs_outcome = scheduler->Submit(BfsJob(g, 0)).value().get();
  ASSERT_TRUE(bfs_outcome.status.ok()) << bfs_outcome.status.ToString();
  EXPECT_EQ(std::get<core::BfsResult>(bfs_outcome.payload).levels,
            core::host_ref::BfsLevels(*g, 0));

  prof::ServerStats stats = scheduler->Snapshot();
  EXPECT_EQ(stats.jobs_rejected_admission, 1u);
  EXPECT_EQ(stats.jobs_completed, 1u);
  EXPECT_EQ(stats.devices.size(), 1u);
  EXPECT_EQ(stats.devices[0].jobs_rejected, 1u);
}

TEST(AdmissionTest, DecisionFieldsAreCoherent) {
  auto g = TestGraph(8);
  vgpu::Device device(vgpu::A100Config());
  JobSpec spec = BfsJob(g, 0);
  AdmissionDecision decision = CheckAdmission(device, spec);
  EXPECT_TRUE(decision.admit);
  EXPECT_EQ(decision.capacity_bytes, device.memory_capacity_bytes());
  EXPECT_GT(decision.estimated_bytes, 0u);

  vgpu::Device::Options tiny;
  tiny.memory_scale = 1e7;  // ~8 KB device
  vgpu::Device small(vgpu::A100Config(), tiny);
  AdmissionDecision refusal = CheckAdmission(small, spec);
  EXPECT_FALSE(refusal.admit);
  EXPECT_TRUE(AdmissionError(refusal).IsResourceExhausted());
  EXPECT_FALSE(refusal.reason.empty());
}

TEST(SchedulerTest, ShutdownFailsQueuedJobsButFinishesRunning) {
  auto g = TestGraph(6);
  Scheduler::Options options;
  options.devices = {{.arch = &vgpu::A100Config(), .options = {}}};
  options.queue_capacity = 16;
  options.device_occupancy_floor_ms = 20;
  auto scheduler = Scheduler::Create(std::move(options)).value();
  std::vector<std::future<JobOutcome>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(scheduler->Submit(BfsJob(g, 0)).value());
  }
  scheduler->Shutdown();
  int ok = 0;
  int failed = 0;
  for (auto& f : futures) {
    JobOutcome outcome = f.get();  // every future resolves
    outcome.status.ok() ? ++ok : ++failed;
  }
  EXPECT_EQ(ok + failed, 6);
  // Submitting after shutdown fails cleanly.
  EXPECT_FALSE(scheduler->Submit(BfsJob(g, 0)).ok());
}

TEST(SchedulerTest, DeadlineShedsQueuedJobBeforeExecution) {
  auto g = TestGraph(6);
  Scheduler::Options options;
  options.devices = {{.arch = &vgpu::A100Config(), .options = {}}};
  options.queue_capacity = 16;
  options.device_occupancy_floor_ms = 50;
  auto scheduler = Scheduler::Create(std::move(options)).value();
  // The blocker occupies the only worker for >= 50 ms; by the time the
  // doomed job is dequeued its queue wait has blown its 1 ms budget.
  auto blocker = scheduler->Submit(BfsJob(g, 0)).value();
  JobSpec doomed = BfsJob(g, 1);
  doomed.deadline_ms = 1.0;
  doomed.tenant = "latency-sensitive";
  auto shed = scheduler->Submit(doomed).value();
  JobOutcome outcome = shed.get();
  EXPECT_TRUE(outcome.status.IsDeadlineExceeded()) << outcome.status.ToString();
  EXPECT_TRUE(blocker.get().status.ok());
  scheduler->Drain();
  auto stats = scheduler->Snapshot();
  EXPECT_EQ(stats.jobs_shed_deadline, 1u);
  ASSERT_EQ(stats.tenants.size(), 2u);  // "" (anonymous) + latency-sensitive
  bool found = false;
  for (const auto& tenant : stats.tenants) {
    if (tenant.name == "latency-sensitive") {
      EXPECT_EQ(tenant.jobs_shed_deadline, 1u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(SchedulerTest, StrictPriorityClassesDequeueLowClassFirst) {
  auto g = TestGraph(6);
  Scheduler::Options options;
  options.devices = {{.arch = &vgpu::A100Config(), .options = {}}};
  options.queue_capacity = 16;
  options.device_occupancy_floor_ms = 30;
  auto scheduler = Scheduler::Create(std::move(options)).value();
  auto blocker = scheduler->Submit(BfsJob(g, 0)).value();
  // Submitted in *reverse* priority order while the worker is busy: the
  // class-0 job must still run before the class-1 job.
  JobSpec low = BfsJob(g, 1);
  low.priority = 1;
  low.tenant = "batch";
  auto low_future = scheduler->Submit(low).value();
  JobSpec high = BfsJob(g, 2);
  high.priority = 0;
  high.tenant = "interactive";
  auto high_future = scheduler->Submit(high).value();
  JobOutcome high_outcome = high_future.get();
  JobOutcome low_outcome = low_future.get();
  ASSERT_TRUE(high_outcome.status.ok());
  ASSERT_TRUE(low_outcome.status.ok());
  EXPECT_LT(high_outcome.queue_wall_ms, low_outcome.queue_wall_ms);
  (void)blocker.get();
}

TEST(SchedulerTest, WeightedFairShareFavorsHeavierTenant) {
  auto g = TestGraph(6);
  Scheduler::Options options;
  options.devices = {{.arch = &vgpu::A100Config(), .options = {}}};
  options.queue_capacity = 32;
  options.device_occupancy_floor_ms = 10;
  auto scheduler = Scheduler::Create(std::move(options)).value();
  auto blocker = scheduler->Submit(BfsJob(g, 0)).value();
  // Equal backlogs; "heavy" holds 3x the fair-share weight, so its jobs
  // should dequeue earlier on average (start-time fair queuing).
  std::vector<std::future<JobOutcome>> heavy;
  std::vector<std::future<JobOutcome>> light;
  for (int i = 0; i < 4; ++i) {
    JobSpec h = BfsJob(g, 1 + i);
    h.tenant = "heavy";
    h.fair_weight = 3.0;
    heavy.push_back(scheduler->Submit(h).value());
    JobSpec l = BfsJob(g, 10 + i);
    l.tenant = "light";
    l.fair_weight = 1.0;
    light.push_back(scheduler->Submit(l).value());
  }
  double heavy_wait = 0;
  double light_wait = 0;
  for (auto& f : heavy) heavy_wait += f.get().queue_wall_ms;
  for (auto& f : light) light_wait += f.get().queue_wall_ms;
  (void)blocker.get();
  EXPECT_LT(heavy_wait, light_wait);
}

// Regression: a Snapshot() taken immediately after Create() used to divide
// by a near-zero uptime, producing absurd jobs_per_sec / utilization values.
TEST(ServerStatsTest, SnapshotImmediatelyAfterCreateHasSaneRates) {
  auto scheduler = Scheduler::Create({}).value();
  prof::ServerStats stats = scheduler->Snapshot();
  EXPECT_TRUE(std::isfinite(stats.jobs_per_sec));
  EXPECT_DOUBLE_EQ(stats.jobs_per_sec, 0.0) << "no jobs have completed";
  for (const auto& d : stats.devices) {
    EXPECT_TRUE(std::isfinite(d.utilization)) << d.name;
    EXPECT_GE(d.utilization, 0.0) << d.name;
    EXPECT_LE(d.utilization, 1.0) << d.name;
  }
}

// ---------------------------------------------------------- graph cache

TEST(GraphCacheTest, RepeatAcquireHitsAndSkipsTransfer) {
  vgpu::Device device(vgpu::A100Config());
  GraphCache cache(&device, {});
  auto g = TestGraph(7);

  auto first = cache.Acquire(&device, *g, core::GraphVariant::kAsIs);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first->from_cache());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_GT(cache.stats().resident_bytes, 0u);
  const double transfer_after_miss = device.transfer_ms();
  EXPECT_GT(transfer_after_miss, 0) << "the miss models a PCIe upload";

  auto second = cache.Acquire(&device, *g, core::GraphVariant::kAsIs);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_DOUBLE_EQ(device.transfer_ms(), transfer_after_miss)
      << "a hit must not re-upload";
  EXPECT_EQ(&**first, &**second) << "both handles pin the same DeviceCsr";

  // A different *variant* of the same graph is a distinct entry.
  auto sym = cache.Acquire(&device, *g, core::GraphVariant::kSymSimple);
  ASSERT_TRUE(sym.ok());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.num_entries(), 2u);
}

TEST(GraphCacheTest, ContentKeyedAcrossGraphObjects) {
  vgpu::Device device(vgpu::A100Config());
  GraphCache cache(&device, {});
  auto a = TestGraph(7);
  auto b = TestGraph(7);  // distinct object, identical content
  ASSERT_NE(a.get(), b.get());
  { auto h = cache.Acquire(&device, *a, core::GraphVariant::kAsIs);
    ASSERT_TRUE(h.ok()); }
  auto h = cache.Acquire(&device, *b, core::GraphVariant::kAsIs);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(cache.stats().hits, 1u) << "residency is content-addressed";
}

TEST(GraphCacheTest, EvictsLeastRecentlyUsedUnderBytePressure) {
  vgpu::Device device(vgpu::A100Config());
  auto a = TestGraph(7, 1);
  auto b = TestGraph(7, 2);
  auto c = TestGraph(7, 3);

  // Measure one upload, then budget the cache for two entries at most.
  uint64_t one_entry;
  {
    GraphCache probe(&device, {});
    auto h = probe.Acquire(&device, *a, core::GraphVariant::kAsIs);
    ASSERT_TRUE(h.ok());
    one_entry = probe.stats().resident_bytes;
  }
  GraphCache::Options options;
  options.capacity_bytes = one_entry * 2 + one_entry / 2;
  GraphCache cache(&device, options);

  { auto h = cache.Acquire(&device, *a, core::GraphVariant::kAsIs);
    ASSERT_TRUE(h.ok()); }
  { auto h = cache.Acquire(&device, *b, core::GraphVariant::kAsIs);
    ASSERT_TRUE(h.ok()); }
  // Touch `a` so `b` becomes the LRU victim.
  { auto h = cache.Acquire(&device, *a, core::GraphVariant::kAsIs);
    ASSERT_TRUE(h.ok()); }
  EXPECT_EQ(cache.num_entries(), 2u);

  { auto h = cache.Acquire(&device, *c, core::GraphVariant::kAsIs);
    ASSERT_TRUE(h.ok()); }
  EXPECT_EQ(cache.num_entries(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_GT(cache.stats().bytes_evicted, 0u);
  EXPECT_GT(cache.ResidentBytesFor(*a, core::GraphVariant::kAsIs), 0u)
      << "recently used entry survives";
  EXPECT_EQ(cache.ResidentBytesFor(*b, core::GraphVariant::kAsIs), 0u)
      << "LRU entry was evicted";
}

TEST(GraphCacheTest, PinnedEntriesAreNeverEvicted) {
  vgpu::Device device(vgpu::A100Config());
  GraphCache cache(&device, {});
  auto g = TestGraph(7);
  auto pin = cache.Acquire(&device, *g, core::GraphVariant::kAsIs);
  ASSERT_TRUE(pin.ok());

  const uint64_t used_while_pinned = device.memory_used_bytes();
  EXPECT_EQ(cache.EvictForSpace(std::numeric_limits<uint64_t>::max()), 0u)
      << "a pinned entry must survive even an evict-everything request";
  EXPECT_EQ(cache.num_entries(), 1u);
  EXPECT_EQ(device.memory_used_bytes(), used_while_pinned);

  pin = core::ResidentCsr();  // drop the handle: unpin
  EXPECT_GT(cache.EvictForSpace(std::numeric_limits<uint64_t>::max()), 0u);
  EXPECT_EQ(cache.num_entries(), 0u);
  EXPECT_LT(device.memory_used_bytes(), used_while_pinned)
      << "eviction frees the device buffers";
}

TEST(GraphCacheTest, AdmissionChargesOnlyNonResidentBytes) {
  vgpu::Device device(vgpu::A100Config());
  GraphCache cache(&device, {});
  auto g = TestGraph(8);
  JobSpec spec = BfsJob(g, 0);

  AdmissionDecision cold = CheckAdmission(device, spec, 1.0, &cache);
  EXPECT_TRUE(cold.admit);
  EXPECT_EQ(cold.resident_bytes, 0u);
  EXPECT_EQ(cold.charged_bytes, cold.estimated_bytes);

  { auto h = cache.Acquire(&device, *g, GraphVariantFor(spec));
    ASSERT_TRUE(h.ok()); }
  AdmissionDecision warm = CheckAdmission(device, spec, 1.0, &cache);
  EXPECT_TRUE(warm.admit);
  EXPECT_GT(warm.resident_bytes, 0u);
  EXPECT_EQ(warm.charged_bytes, warm.estimated_bytes - warm.resident_bytes);
}

TEST(GraphCacheTest, AdmissionEvictsUnpinnedEntriesToAdmit) {
  auto a = TestGraph(8, 5);
  auto b = TestGraph(8, 6);
  JobSpec spec_b = BfsJob(b, 0);
  const uint64_t estimate = EstimateJobDeviceBytes(spec_b);

  // Device with room for ~1.8 jobs: once `a` is cached, `b` only fits if
  // admission control reclaims the cached copy.
  vgpu::Device::Options dopt;
  dopt.memory_scale =
      static_cast<double>(vgpu::A100Config().dram_capacity_bytes) /
      (1.8 * static_cast<double>(estimate));
  vgpu::Device device(vgpu::A100Config(), dopt);
  GraphCache::Options copt;
  copt.capacity_fraction = 1.0;
  GraphCache cache(&device, copt);

  { auto h = cache.Acquire(&device, *a, core::GraphVariant::kAsIs);
    ASSERT_TRUE(h.ok()) << h.status().ToString(); }
  ASSERT_LT(device.memory_free_bytes(), estimate)
      << "precondition: b does not fit beside the cached a";

  AdmissionDecision decision = CheckAdmission(device, spec_b, 1.0, &cache);
  EXPECT_TRUE(decision.admit) << decision.reason;
  EXPECT_GT(decision.evicted_bytes, 0u);
  EXPECT_EQ(cache.ResidentBytesFor(*a, core::GraphVariant::kAsIs), 0u);
  EXPECT_GE(device.memory_free_bytes(), estimate);
}

TEST(SchedulerTest, RepeatedGraphServedFromCache) {
  auto g = TestGraph(8);
  Scheduler::Options options;
  options.devices = {{.arch = &vgpu::A100Config(), .options = {}}};
  auto scheduler = Scheduler::Create(std::move(options)).value();

  std::vector<JobOutcome> outcomes;
  for (int i = 0; i < 4; ++i) {
    outcomes.push_back(scheduler->Submit(BfsJob(g, i)).value().get());
  }
  for (const auto& o : outcomes) {
    ASSERT_TRUE(o.status.ok()) << o.status.ToString();
  }
  EXPECT_FALSE(outcomes[0].cache_hit);
  EXPECT_GT(outcomes[0].modeled_transfer_ms, 0);
  for (int i = 1; i < 4; ++i) {
    EXPECT_TRUE(outcomes[i].cache_hit) << "job " << i;
    // Hits still download their result (D2H), but skip the graph upload.
    EXPECT_LT(outcomes[i].modeled_transfer_ms,
              outcomes[0].modeled_transfer_ms / 2)
        << "job " << i;
  }

  prof::ServerStats stats = scheduler->Snapshot();
  EXPECT_EQ(stats.cache_hits, 3u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_GT(stats.cache_resident_bytes, 0u);
  ASSERT_EQ(stats.devices.size(), 1u);
  EXPECT_EQ(stats.devices[0].cache_hits, 3u);

  std::string report = prof::FormatServerStats(stats);
  EXPECT_NE(report.find("graph cache"), std::string::npos);
}

TEST(SchedulerTest, CacheOnAndOffProduceIdenticalResults) {
  auto g = TestGraph(8);
  auto jobs = [&]() -> std::vector<JobSpec> {
    core::PageRankOptions pr;
    pr.max_iterations = 10;
    core::TcOptions tc;
    std::vector<JobSpec> specs;
    for (int repeat = 0; repeat < 2; ++repeat) {  // repeats exercise hits
      specs.push_back(BfsJob(g, 3));
      specs.push_back({.graph = g, .params = pr});
      specs.push_back({.graph = g, .params = tc});
      specs.push_back({.graph = g, .params = core::CcOptions{}});
    }
    return specs;
  }();

  auto run_all = [&](bool enabled) {
    Scheduler::Options options;
    options.devices = {{.arch = &vgpu::A100Config(), .options = {}}};
    options.cache.enabled = enabled;
    auto scheduler = Scheduler::Create(std::move(options)).value();
    std::vector<uint64_t> fingerprints;
    for (const JobSpec& spec : jobs) {
      JobOutcome outcome = scheduler->Submit(spec).value().get();
      EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
      fingerprints.push_back(FingerprintPayload(outcome.payload));
    }
    prof::ServerStats stats = scheduler->Snapshot();
    return std::make_pair(std::move(fingerprints), stats);
  };

  auto [on_fp, on_stats] = run_all(true);
  auto [off_fp, off_stats] = run_all(false);
  EXPECT_EQ(on_fp, off_fp) << "results must be byte-identical cache on/off";
  EXPECT_GT(on_stats.cache_hits, 0u);
  EXPECT_EQ(off_stats.cache_hits, 0u);
  EXPECT_EQ(off_stats.cache_misses, 0u);
  EXPECT_EQ(off_stats.cache_resident_bytes, 0u);
}

// Memory pressure end to end: a device sized for ~1.8 working sets serving
// two alternating graphs must keep answering correctly, evicting between
// jobs instead of dying of OOM or rejecting everything.
TEST(SchedulerTest, CacheEvictionUnderMemoryPressureStaysCorrect) {
  auto a = TestGraph(8, 11);
  auto b = TestGraph(8, 12);
  const uint64_t estimate = EstimateJobDeviceBytes(BfsJob(a, 0));

  Scheduler::Options options;
  Scheduler::DeviceSlot slot;
  slot.arch = &vgpu::A100Config();
  slot.options.memory_scale =
      static_cast<double>(vgpu::A100Config().dram_capacity_bytes) /
      (1.8 * static_cast<double>(estimate));
  options.devices = {slot};
  options.cache.capacity_fraction = 1.0;
  auto scheduler = Scheduler::Create(std::move(options)).value();

  for (int i = 0; i < 6; ++i) {
    const auto& g = (i % 2 == 0) ? a : b;
    JobOutcome outcome = scheduler->Submit(BfsJob(g, 0)).value().get();
    ASSERT_TRUE(outcome.status.ok()) << "job " << i << ": "
                                     << outcome.status.ToString();
    EXPECT_EQ(std::get<core::BfsResult>(outcome.payload).levels,
              core::host_ref::BfsLevels(*g, 0))
        << "job " << i;
  }

  prof::ServerStats stats = scheduler->Snapshot();
  EXPECT_EQ(stats.jobs_completed, 6u);
  EXPECT_GT(stats.cache_evictions, 0u)
      << "both graphs cannot stay resident on this device";
  EXPECT_GT(stats.cache_bytes_evicted, 0u);
}

TEST(SchedulerTest, CacheSpansAppearOnDeviceTrack) {
  auto g = TestGraph(7);
  TraceWindowGuard window;
  Scheduler::Options options;
  options.devices = {{.arch = &vgpu::A100Config(), .options = {}}};
  auto scheduler = Scheduler::Create(std::move(options)).value();
  scheduler->Submit(BfsJob(g, 0)).value().get();
  scheduler->Submit(BfsJob(g, 1)).value().get();
  scheduler->Drain();
  bool saw_miss = false;
  bool saw_hit = false;
  for (const auto& event : trace::GlobalEvents()) {
    if (event.name == "cache.miss") saw_miss = true;
    if (event.name == "cache.hit") saw_hit = true;
  }
  EXPECT_TRUE(saw_miss);
  EXPECT_TRUE(saw_hit);
}

// Regression: Submit racing Shutdown used to touch freed queue state; now
// every loser of the race gets a deterministic kUnavailable (from Submit
// itself or as the queued job's outcome) and nothing crashes.  Run under
// TSan in CI.
TEST(SchedulerTest, SubmitRacingShutdownGetsUnavailable) {
  auto g = TestGraph(6);
  Scheduler::Options options;
  options.devices = {{.arch = &vgpu::A100Config(), .options = {}},
                     {.arch = &vgpu::A100Config(), .options = {}}};
  options.queue_capacity = 4;
  options.overflow =
      Scheduler::OverflowPolicy::kReject;  // submitters must not block
  auto scheduler = Scheduler::Create(std::move(options)).value();

  constexpr int kThreads = 4;
  constexpr int kJobsPerThread = 8;
  std::vector<std::thread> submitters;
  std::mutex mu;
  std::vector<Result<std::future<JobOutcome>>> submitted;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kJobsPerThread; ++i) {
        auto result = scheduler->Submit(
            BfsJob(g, static_cast<graph::vid_t>((t * kJobsPerThread + i) %
                                                g->num_vertices())));
        std::lock_guard<std::mutex> lock(mu);
        submitted.push_back(std::move(result));
      }
    });
  }
  scheduler->Shutdown();  // races the submitters by design
  for (auto& thread : submitters) thread.join();

  ASSERT_EQ(submitted.size(),
            static_cast<size_t>(kThreads * kJobsPerThread));
  for (auto& result : submitted) {
    if (!result.ok()) {
      // Lost the race before enqueueing (or bounced off the full queue).
      EXPECT_TRUE(result.status().code() == StatusCode::kUnavailable ||
                  result.status().code() == StatusCode::kResourceExhausted)
          << result.status().ToString();
      continue;
    }
    JobOutcome outcome = result->get();  // accepted futures all resolve
    if (!outcome.status.ok()) {
      EXPECT_EQ(outcome.status.code(), StatusCode::kUnavailable)
          << outcome.status.ToString();
    }
  }
}

TEST(SchedulerTest, CreateRejectsPathologicalArch) {
  static vgpu::ArchConfig broken = vgpu::A100Config();
  broken.num_sms = 0;
  Scheduler::Options options;
  options.devices = {{.arch = &broken, .options = {}}};
  auto scheduler = Scheduler::Create(std::move(options));
  ASSERT_FALSE(scheduler.ok());
  EXPECT_EQ(scheduler.status().code(), StatusCode::kInvalidArgument);
}

TEST(SchedulerTest, GangJobMatchesSingleDeviceAndReportsExchange) {
  auto g = TestGraph(8);
  Scheduler::Options options;
  options.devices = {{.arch = &vgpu::A100Config(), .options = {}},
                     {.arch = &vgpu::A100Config(), .options = {}}};
  auto scheduler = Scheduler::Create(std::move(options)).value();

  // Gangs only support top-down traversal, so the single-device baseline
  // must run top-down too for the payloads to be byte-identical.  Start at
  // the biggest hub so the traversal actually crosses the shard boundary
  // (an unlucky low-degree source could be isolated).
  graph::vid_t source = 0;
  for (graph::vid_t v = 0; v < g->num_vertices(); ++v) {
    if (g->degree(v) > g->degree(source)) source = v;
  }
  core::BfsOptions bfs;
  bfs.source = source;
  bfs.direction_optimizing = false;
  JobSpec single{.graph = g, .params = bfs, .tag = "bfs-single"};
  JobOutcome single_outcome = scheduler->Submit(single).value().get();
  ASSERT_TRUE(single_outcome.status.ok())
      << single_outcome.status.ToString();

  JobSpec gang{.graph = g, .params = bfs, .tag = "bfs-gang"};
  gang.gang_devices = 2;
  JobOutcome gang_outcome = scheduler->Submit(gang).value().get();
  ASSERT_TRUE(gang_outcome.status.ok()) << gang_outcome.status.ToString();
  scheduler->Drain();

  EXPECT_EQ(gang_outcome.gang_devices, 2u);
  EXPECT_GT(gang_outcome.exchange_bytes, 0u);
  EXPECT_GT(gang_outcome.exchange_rounds, 0u);
  EXPECT_EQ(FingerprintPayload(gang_outcome.payload),
            FingerprintPayload(single_outcome.payload))
      << "partitioned gang BFS must match the single-device payload";

  prof::ServerStats stats = scheduler->Snapshot();
  EXPECT_EQ(stats.gang_jobs_completed, 1u);
  EXPECT_EQ(stats.exchange_bytes_total, gang_outcome.exchange_bytes);
  EXPECT_EQ(stats.exchange_rounds_total, gang_outcome.exchange_rounds);
}

TEST(SchedulerTest, GangLargerThanPoolRejected) {
  auto g = TestGraph(6);
  Scheduler::Options options;
  options.devices = {{.arch = &vgpu::A100Config(), .options = {}}};
  auto scheduler = Scheduler::Create(std::move(options)).value();
  core::BfsOptions bfs;
  bfs.direction_optimizing = false;
  JobSpec gang{.graph = g, .params = bfs};
  gang.gang_devices = 4;
  auto result = scheduler->Submit(gang);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------- out-of-core streamed serving

/// Sum of every series of one family in `registry`, or only of those
/// carrying `label` when it is set; histograms contribute their
/// observation sum.
double SeriesTotal(const obs::Registry& registry, const std::string& name,
                   const std::pair<std::string, std::string>& label = {}) {
  double total = 0;
  for (const auto& family : registry.Scrape()) {
    if (family.name != name) continue;
    for (const auto& series : family.series) {
      if (!label.first.empty() &&
          std::find(series.labels.begin(), series.labels.end(), label) ==
              series.labels.end()) {
        continue;
      }
      total += family.kind == obs::MetricKind::kHistogram
                   ? series.histogram.sum
                   : series.value;
    }
  }
  return total;
}

/// A device slot whose capacity is exactly `budget` bytes
/// (Device::Options::memory_scale *divides* the arch capacity).
Scheduler::DeviceSlot BudgetedSlot(uint64_t budget) {
  Scheduler::DeviceSlot slot;
  slot.arch = &vgpu::A100Config();
  slot.options.memory_scale =
      static_cast<double>(vgpu::A100Config().dram_capacity_bytes) /
      static_cast<double>(budget);
  return slot;
}

/// A PageRank spec opted into the out-of-core tier, plus the device budget
/// that makes the whole-graph working set a hard reject while the streamed
/// working set still fits.
struct StreamedFixture {
  JobSpec spec;
  uint64_t full_bytes = 0;
  uint64_t budget = 0;
};

StreamedFixture OverBudgetPageRank(std::shared_ptr<const CsrGraph> g) {
  StreamedFixture f;
  core::PageRankOptions pr;
  pr.max_iterations = 12;
  f.spec = {.graph = std::move(g), .params = pr, .tag = "pr-ooc"};
  f.spec.allow_streamed = true;
  f.spec.ooc_shard_bytes = 4 << 10;
  f.full_bytes = EstimateJobDeviceBytes(f.spec);
  const uint64_t streamed =
      ooc::EstimateStreamedBytes(f.spec.params, *f.spec.graph,
                                 f.spec.ooc_shard_bytes)
          .value();
  f.budget = std::max<uint64_t>(f.full_bytes * 3 / 5,
                                streamed + streamed / 4);
  return f;
}

// Satellite regression: with every resident entry pinned by an in-flight
// job, the evict-to-admit loop used to retry the upload forever (evict
// frees 0 bytes -> OOM -> evict -> ...).  It must now give up after one
// bounded pass with a deterministic kResourceExhausted.
TEST(GraphCacheTest, AllPinnedCacheFailsAcquireDeterministically) {
  auto a = TestGraph(8, 21);
  auto b = TestGraph(8, 22);
  // Room for ~1.3 uploads: `a` fits, `b` only fits if `a` is evicted.
  vgpu::Device::Options dopt;
  dopt.memory_scale =
      static_cast<double>(vgpu::A100Config().dram_capacity_bytes) /
      (1.3 * static_cast<double>(a->DeviceFootprintBytes()));
  vgpu::Device device(vgpu::A100Config(), dopt);
  GraphCache::Options copt;
  copt.capacity_fraction = 1.0;
  GraphCache cache(&device, copt);

  auto pin = cache.Acquire(&device, *a, core::GraphVariant::kAsIs);
  ASSERT_TRUE(pin.ok()) << pin.status().ToString();

  auto blocked = cache.Acquire(&device, *b, core::GraphVariant::kAsIs);
  ASSERT_FALSE(blocked.ok());
  EXPECT_TRUE(blocked.status().IsResourceExhausted())
      << blocked.status().ToString();
  EXPECT_NE(blocked.status().message().find("pinned"), std::string::npos)
      << blocked.status().ToString();

  // Dropping the pin turns the same acquire into a successful evict-to-fit.
  pin = core::ResidentCsr();
  auto retry = cache.Acquire(&device, *b, core::GraphVariant::kAsIs);
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(GraphCacheTest, EmptyCacheOnTinyDeviceFailsAcquireDeterministically) {
  auto g = TestGraph(8, 23);
  vgpu::Device::Options dopt;
  dopt.memory_scale =
      static_cast<double>(vgpu::A100Config().dram_capacity_bytes) /
      (0.5 * static_cast<double>(g->DeviceFootprintBytes()));
  vgpu::Device device(vgpu::A100Config(), dopt);
  GraphCache cache(&device, {});
  auto blocked = cache.Acquire(&device, *g, core::GraphVariant::kAsIs);
  ASSERT_FALSE(blocked.ok());
  EXPECT_TRUE(blocked.status().IsResourceExhausted())
      << blocked.status().ToString();
  EXPECT_NE(blocked.status().message().find("no cached entries"),
            std::string::npos)
      << blocked.status().ToString();
}

TEST(AdmissionTest, StreamedTierAdmitsOverBudgetJob) {
  StreamedFixture f = OverBudgetPageRank(TestGraph(8, 24));
  vgpu::Device device(*BudgetedSlot(f.budget).arch,
                      BudgetedSlot(f.budget).options);

  JobSpec whole = f.spec;
  whole.allow_streamed = false;
  AdmissionDecision rejected = CheckAdmission(device, whole, 1.0, nullptr);
  ASSERT_FALSE(rejected.admit) << "budget must be below the whole-graph set";
  EXPECT_FALSE(rejected.reason.empty());

  AdmissionDecision admitted = CheckAdmission(device, f.spec, 1.0, nullptr);
  EXPECT_TRUE(admitted.admit) << admitted.reason;
  EXPECT_TRUE(admitted.streamed);
  EXPECT_GT(admitted.streamed_bytes, 0u);
  EXPECT_EQ(admitted.charged_bytes, admitted.streamed_bytes);
  EXPECT_LT(admitted.charged_bytes, admitted.estimated_bytes)
      << "the streamed tier must be charged less than the whole graph";
}

TEST(SchedulerTest, OverBudgetJobStreamsWhenAllowedAndMatchesInMemory) {
  auto g = TestGraph(8, 25);
  StreamedFixture f = OverBudgetPageRank(g);
  Scheduler::Options options;
  options.devices = {BudgetedSlot(f.budget)};
  auto scheduler = Scheduler::Create(std::move(options)).value();

  // Without the opt-in the whole-graph working set is a hard reject.
  JobSpec whole = f.spec;
  whole.allow_streamed = false;
  JobOutcome rejected = scheduler->Submit(whole).value().get();
  ASSERT_TRUE(rejected.status.IsResourceExhausted())
      << rejected.status.ToString();
  EXPECT_FALSE(rejected.streamed);

  // With it, the same job lands in the streamed tier...
  JobOutcome outcome = scheduler->Submit(f.spec).value().get();
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_TRUE(outcome.streamed);
  EXPECT_GT(outcome.ooc_shards, 1u);
  EXPECT_GT(outcome.ooc_staged_bytes, 0u);
  EXPECT_GT(outcome.ooc_overlap_speedup, 1.0);

  // ...and its payload is byte-identical to an in-memory run.
  vgpu::Device roomy(vgpu::A100Config());
  auto direct =
      core::Run(&roomy, {core::Algo::kPageRank}, *g,
                std::get<core::PageRankOptions>(f.spec.params))
          .value();
  EXPECT_EQ(FingerprintPayload(outcome.payload), FingerprintPayload(direct));

  EXPECT_GE(SeriesTotal(scheduler->metrics_registry(),
                        "adgraph_streamed_jobs_total"),
            1.0);
}

// Satellite 4 on the serve path: streamed jobs whose shard staging must
// carve device memory race cached whole-graph jobs whose entries are being
// evicted and re-uploaded.  Everything must complete with correct payloads
// regardless of arrival order.
TEST(SchedulerTest, StreamedJobsRaceCachedJobsUnderMemoryPressure) {
  auto big = TestGraph(8, 31);
  auto small = TestGraph(6, 32);
  StreamedFixture f = OverBudgetPageRank(big);
  JobSpec cached = BfsJob(small, 0);
  ASSERT_LE(EstimateJobDeviceBytes(cached), f.budget)
      << "the cached job must fit the budgeted device";

  Scheduler::Options options;
  options.devices = {BudgetedSlot(f.budget)};
  options.cache.capacity_fraction = 1.0;
  auto scheduler = Scheduler::Create(std::move(options)).value();

  constexpr int kThreads = 2;
  constexpr int kJobsPerThread = 8;
  std::mutex mu;
  std::vector<std::pair<bool, std::future<JobOutcome>>> submitted;
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kJobsPerThread; ++i) {
        const bool streamed = (t + i) % 2 == 0;
        auto result = scheduler->Submit(streamed ? f.spec : cached);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        std::lock_guard<std::mutex> lock(mu);
        submitted.emplace_back(streamed, std::move(*result));
      }
    });
  }
  for (auto& thread : submitters) thread.join();

  vgpu::Device roomy(vgpu::A100Config());
  const uint64_t pr_fingerprint = FingerprintPayload(
      core::Run(&roomy, {core::Algo::kPageRank}, *big,
                std::get<core::PageRankOptions>(f.spec.params))
          .value());
  const auto bfs_levels = core::host_ref::BfsLevels(*small, 0);

  int streamed_jobs = 0;
  for (auto& [streamed, future] : submitted) {
    JobOutcome outcome = future.get();
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    if (streamed) {
      EXPECT_TRUE(outcome.streamed);
      EXPECT_EQ(FingerprintPayload(outcome.payload), pr_fingerprint);
      ++streamed_jobs;
    } else {
      EXPECT_FALSE(outcome.streamed);
      EXPECT_EQ(std::get<core::BfsResult>(outcome.payload).levels,
                bfs_levels);
    }
  }
  EXPECT_EQ(streamed_jobs, kThreads * kJobsPerThread / 2);
  prof::ServerStats stats = scheduler->Snapshot();
  EXPECT_EQ(stats.jobs_completed,
            static_cast<uint64_t>(kThreads * kJobsPerThread));
}

// ------------------------------------------- incremental serving (§2.12)

/// What the front door captures at SUBMIT: the previous result, computed at
/// `version`, and the delta's updates since.
std::shared_ptr<const core::WarmStart> WarmFrom(
    const graph::DeltaGraph& delta, std::shared_ptr<const JobPayload> previous,
    uint64_t version) {
  auto warm = std::make_shared<core::WarmStart>();
  warm->previous = std::move(previous);
  warm->updates = delta.UpdatesSince(version);
  return warm;
}

TEST(SchedulerTest, WarmStartRunsIncrementallyAndFallbackIsObservable) {
  auto g = TestGraph(8, 41);
  auto delta = graph::DeltaGraph::Create(*g).value();
  core::BfsOptions bfs;
  bfs.source = 0;

  Scheduler::Options options;
  options.devices = {{.arch = &vgpu::A100Config(), .options = {}}};
  auto scheduler = Scheduler::Create(std::move(options)).value();

  // Full run on the v0 snapshot seeds the warm-start payload.
  auto snap0 = delta.Snapshot().value();
  JobOutcome base =
      scheduler->Submit({.graph = snap0, .params = bfs}).value().get();
  ASSERT_TRUE(base.status.ok()) << base.status.ToString();
  EXPECT_FALSE(base.incremental_requested);
  auto previous = std::make_shared<const JobPayload>(base.payload);
  const uint64_t v0 = delta.version();

  // One inserted edge: well under the full-recompute threshold, and BFS
  // re-expansion handles inserts, so the delta path must actually run.
  graph::vid_t u = 0;
  graph::vid_t v = 1;
  bool inserted = false;
  for (; u < g->num_vertices() && !inserted; ++u) {
    for (v = 0; v < g->num_vertices(); ++v) {
      if (u == v) continue;
      auto n = g->neighbors(u);
      if (std::find(n.begin(), n.end(), v) != n.end()) continue;
      inserted = delta.AddEdge(u, v).value();
      break;
    }
  }
  ASSERT_TRUE(inserted);

  auto snap1 = delta.Snapshot().value();
  JobSpec warm{.graph = snap1, .params = bfs};
  warm.warm_start = WarmFrom(delta, previous, v0);
  JobOutcome incremental = scheduler->Submit(warm).value().get();
  ASSERT_TRUE(incremental.status.ok()) << incremental.status.ToString();
  EXPECT_TRUE(incremental.incremental_requested);
  EXPECT_TRUE(incremental.incremental) << incremental.fallback_reason;
  EXPECT_TRUE(incremental.fallback_reason.empty())
      << incremental.fallback_reason;
  EXPECT_EQ(incremental.result_version, delta.version());

  // The incremental fixpoint agrees with a cold full recompute.
  vgpu::Device direct(vgpu::A100Config());
  auto full = core::Run<core::Algo::kBfs>(&direct, *snap1, bfs).value();
  EXPECT_EQ(std::get<core::BfsResult>(incremental.payload).levels,
            full.levels);
  EXPECT_EQ(SeriesTotal(scheduler->metrics_registry(),
                        "adgraph_incremental_fallbacks_total"),
            0.0);

  // A deletion forces the fall back to full recompute — and unlike the old
  // silent path, the outcome says so and the counter moves.
  auto live = snap1->neighbors(0);
  ASSERT_FALSE(live.empty());
  ASSERT_TRUE(delta.RemoveEdge(0, live[0]).value());
  auto previous2 = std::make_shared<const JobPayload>(incremental.payload);
  const uint64_t v1 = incremental.result_version;
  auto snap2 = delta.Snapshot().value();
  JobSpec fell{.graph = snap2, .params = bfs};
  fell.warm_start = WarmFrom(delta, previous2, v1);
  JobOutcome fallback = scheduler->Submit(fell).value().get();
  ASSERT_TRUE(fallback.status.ok()) << fallback.status.ToString();
  EXPECT_TRUE(fallback.incremental_requested);
  EXPECT_FALSE(fallback.incremental);
  EXPECT_NE(fallback.fallback_reason.find("deletion"), std::string::npos)
      << fallback.fallback_reason;
  EXPECT_EQ(fallback.result_version, delta.version());
  auto full2 = core::Run<core::Algo::kBfs>(&direct, *snap2, bfs).value();
  EXPECT_EQ(std::get<core::BfsResult>(fallback.payload).levels,
            full2.levels);
  EXPECT_EQ(SeriesTotal(scheduler->metrics_registry(),
                        "adgraph_incremental_fallbacks_total"),
            1.0);
}

TEST(SchedulerTest, WarmStartValidationRejectsIllFormedSpecs) {
  auto g = TestGraph(7, 42);
  auto warm = std::make_shared<core::WarmStart>();
  warm->previous = std::make_shared<const JobPayload>(core::BfsResult{});
  warm->updates.emplace();

  Scheduler::Options options;
  options.devices = {{.arch = &vgpu::A100Config(), .options = {}},
                     {.arch = &vgpu::A100Config(), .options = {}}};
  auto scheduler = Scheduler::Create(std::move(options)).value();

  // The payload must come from the same algorithm as the job.
  JobSpec wrong_algo{.graph = g, .params = core::PageRankOptions{}};
  wrong_algo.warm_start = warm;
  EXPECT_TRUE(
      scheduler->Submit(wrong_algo).status().IsInvalidArgument());

  // A warm start in a gang runs the gang in full and says so.
  core::BfsOptions bfs;
  bfs.direction_optimizing = false;
  JobSpec gang{.graph = g, .params = bfs};
  gang.warm_start = warm;
  gang.gang_devices = 2;
  JobOutcome ran = scheduler->Submit(gang).value().get();
  ASSERT_TRUE(ran.status.ok()) << ran.status.ToString();
  EXPECT_EQ(ran.gang_devices, 2u);
  EXPECT_TRUE(ran.incremental_requested);
  EXPECT_FALSE(ran.incremental);
  EXPECT_NE(ran.fallback_reason.find("gang"), std::string::npos)
      << ran.fallback_reason;
  vgpu::Device direct(vgpu::A100Config());
  EXPECT_EQ(std::get<core::BfsResult>(ran.payload).levels,
            core::Run<core::Algo::kBfs>(&direct, *g, bfs).value().levels);
  EXPECT_EQ(SeriesTotal(scheduler->metrics_registry(),
                        "adgraph_incremental_fallbacks_total"),
            1.0);
}

// Regression: a warm-started job used to run on whatever snapshot the
// mutable graph had when a worker picked it up, not on the one it was
// admitted (and pinned, and estimated) for.
TEST(SchedulerTest, WarmStartAnswersForTheSnapshotItWasSubmittedWith) {
  auto coo = graph::GenerateRmat({.scale = 10, .edge_factor = 8, .seed = 5})
                 .value();
  auto delta =
      graph::DeltaGraph::Create(
          CsrGraph::FromCoo(coo, graph::GraphBuilder::DefaultBuildOptions())
              .value())
          .value();
  core::BfsOptions bfs;
  bfs.source = 0;
  vgpu::Device direct(vgpu::A100Config());
  auto previous = std::make_shared<const JobPayload>(
      core::Run<core::Algo::kBfs>(&direct, *delta.Snapshot().value(), bfs)
          .value());
  const uint64_t v0 = delta.version();
  // One insert makes epoch k, the job's snapshot ...
  graph::vid_t far = 1;
  while (!delta.AddEdge(far, 0).value()) ++far;
  auto snapshot = delta.Snapshot().value();
  const uint64_t k = snapshot->mutation_epoch();
  ASSERT_GT(k, 0u);
  JobSpec spec{.graph = snapshot, .params = bfs};
  spec.warm_start = WarmFrom(delta, previous, v0);
  // ... and one more lands before the job runs: an edge from the source
  // to a vertex its levels put further away, so epoch k + 1's levels
  // differ from epoch k's.
  const std::vector<uint32_t> levels_k =
      core::Run<core::Algo::kBfs>(&direct, *snapshot, bfs).value().levels;
  graph::vid_t target = 1;
  while (target < snapshot->num_vertices() &&
         (levels_k[target] <= 1 || !delta.AddEdge(0, target).value())) {
    ++target;
  }
  ASSERT_LT(target, snapshot->num_vertices());
  ASSERT_NE(core::Run<core::Algo::kBfs>(&direct, *delta.Snapshot().value(),
                                        bfs)
                .value()
                .levels,
            levels_k);

  auto scheduler = Scheduler::Create({}).value();
  JobOutcome outcome = scheduler->Submit(spec).value().get();
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_TRUE(outcome.incremental) << outcome.fallback_reason;
  EXPECT_EQ(outcome.result_version, k);
  EXPECT_EQ(std::get<core::BfsResult>(outcome.payload).levels, levels_k);
}

// A writer mutates one graph while readers submit warm-started and plain
// jobs, capturing snapshot and warm start under the writer's mutex as the
// front door's SUBMIT does.  No job may see a version other than its own.
TEST(SchedulerTest, WarmStartsUnderConcurrentMutationSeeOneVersionEach) {
  auto g = TestGraph(8, 43);
  auto delta = graph::DeltaGraph::Create(*g).value();
  std::mutex mutex;  // guards delta, published and previous
  std::shared_ptr<const CsrGraph> published = delta.Snapshot().value();
  struct Previous {
    std::shared_ptr<const JobPayload> payload;
    uint64_t version = 0;
  };
  std::map<size_t, Previous> previous;

  Scheduler::Options options;
  options.devices = {{.arch = &vgpu::A100Config(), .options = {}},
                     {.arch = &vgpu::A100Config(), .options = {}}};
  auto scheduler = Scheduler::Create(std::move(options)).value();

  core::BfsOptions bfs;
  bfs.source = 0;
  core::PageRankOptions pr;
  pr.max_iterations = 200;
  pr.tolerance = 1e-10;
  const std::vector<std::pair<JobParams, bool>> kinds = {
      {bfs, true}, {core::CcOptions{}, true}, {pr, true}, {bfs, false}};

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::mt19937_64 rng(17);
    std::uniform_int_distribution<graph::vid_t> pick(0, g->num_vertices() - 1);
    while (!stop.load()) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        while (!delta.AddEdge(pick(rng), pick(rng)).value()) {
        }
        published = delta.Snapshot().value();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  constexpr int kReaders = 2;
  constexpr int kJobsPerReader = 8;
  std::atomic<int> failures{0};
  std::atomic<int> incremental{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      vgpu::Device direct(vgpu::A100Config());
      for (int i = 0; i < kJobsPerReader; ++i) {
        const auto& [params, warm] = kinds[(r + i) % kinds.size()];
        JobSpec spec{.graph = nullptr, .params = params};
        {
          std::lock_guard<std::mutex> lock(mutex);
          spec.graph = published;
          if (warm) {
            auto w = std::make_shared<core::WarmStart>();
            // However far the writer ran ahead, take the delta path: the
            // point is which version each job sees.
            w->full_threshold = 1.0;
            if (auto it = previous.find(params.index());
                it != previous.end()) {
              w->previous = it->second.payload;
              w->updates = delta.UpdatesSince(it->second.version);
            }
            spec.warm_start = std::move(w);
          }
        }
        const auto snapshot = spec.graph;
        JobOutcome outcome = scheduler->Submit(spec).value().get();
        if (!outcome.status.ok() ||
            outcome.result_version != snapshot->mutation_epoch()) {
          ++failures;
          continue;
        }
        if (outcome.incremental) ++incremental;
        const auto cold = core::Run(&direct, {spec.algorithm()}, *snapshot,
                                    params)
                              .value();
        if (const auto* p =
                std::get_if<core::PageRankResult>(&outcome.payload)) {
          const auto& want = std::get<core::PageRankResult>(cold).ranks;
          for (size_t v = 0; v < want.size(); ++v) {
            if (std::abs(p->ranks[v] - want[v]) > 1e-6) {
              ++failures;
              break;
            }
          }
        } else if (FingerprintPayload(outcome.payload) !=
                   FingerprintPayload(cold)) {
          ++failures;
        }
        std::lock_guard<std::mutex> lock(mutex);
        Previous& prev = previous[params.index()];
        if (prev.payload == nullptr ||
            outcome.result_version >= prev.version) {
          prev.payload = std::make_shared<const JobPayload>(outcome.payload);
          prev.version = outcome.result_version;
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true);
  writer.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(incremental.load(), 0);
  EXPECT_GT(delta.version(), 0u);
}

// --- placements: one rule, one path ----------------------------------------

template <size_t... I>
std::vector<JobParams> DefaultParams(std::index_sequence<I...>) {
  return {JobParams(std::in_place_index<I>)...};
}

/// One default request of every algorithm, plus BFS with parents.
std::vector<JobParams> EveryRequest() {
  std::vector<JobParams> out = DefaultParams(
      std::make_index_sequence<std::variant_size_v<JobParams>>{});
  core::BfsOptions parents;
  parents.compute_parents = true;
  out.push_back(parents);
  return out;
}

TEST(PlacementTest, OneRuleDecidesGangsAndStreamsCaseByCase) {
  auto g = TestGraph(8, 51);
  const uint64_t slot_bytes = 4 << 10;
  // A device below every algorithm's whole-graph working set but above the
  // streamed ones, so admission's streamed eligibility decides each case.
  uint64_t streamed_max = 0;
  for (const JobParams& params :
       {JobParams(core::BfsOptions{}), JobParams(core::PageRankOptions{})}) {
    streamed_max = std::max(
        streamed_max,
        ooc::EstimateStreamedBytes(params, *g, slot_bytes).value());
  }
  const uint64_t budget = streamed_max + streamed_max / 4;
  Scheduler::DeviceSlot slot = BudgetedSlot(budget);
  vgpu::Device device(*slot.arch, slot.options);

  for (const JobParams& params : EveryRequest()) {
    const auto algo = static_cast<Algorithm>(params.index());
    const bool parents = algo == Algorithm::kBfs &&
                         std::get<core::BfsOptions>(params).compute_parents;
    const std::string name =
        std::string(AlgorithmName(algo)) + (parents ? " with parents" : "");
    const bool placeable =
        (algo == Algorithm::kBfs && !parents) || algo == Algorithm::kPageRank;

    EXPECT_TRUE(core::CheckPlacement(core::Placement{}, params).ok()) << name;
    const Status gang = core::CheckPlacement(core::Placement::Gang(2), params);
    const Status streamed =
        core::CheckPlacement(core::Placement::Streamed(slot_bytes), params);
    EXPECT_EQ(gang.ok(), placeable) << name;
    EXPECT_EQ(streamed.ok(), placeable) << name;
    if (!placeable) {
      EXPECT_EQ(gang.code(), StatusCode::kFailedPrecondition) << name;
      EXPECT_EQ(streamed.code(), StatusCode::kFailedPrecondition) << name;
    }

    JobSpec gang_spec{.graph = g, .params = params};
    gang_spec.gang_devices = 2;
    EXPECT_EQ(ValidateJobSpec(gang_spec).code(), gang.code()) << name;

    JobSpec stream_spec{.graph = g, .params = params};
    stream_spec.allow_streamed = true;
    stream_spec.ooc_shard_bytes = slot_bytes;
    ASSERT_GT(EstimateJobDeviceBytes(stream_spec), budget) << name;
    const AdmissionDecision decision =
        CheckAdmission(device, stream_spec, 1.0, nullptr);
    EXPECT_EQ(decision.admit, streamed.ok()) << name;
    EXPECT_EQ(decision.streamed, streamed.ok()) << name;
  }

  // A gang's size is capped; so is a gang's interconnect checked.
  const JobParams bfs = core::BfsOptions{};
  EXPECT_TRUE(core::CheckPlacement(core::Placement::Gang(0), bfs)
                  .IsInvalidArgument());
  EXPECT_TRUE(core::CheckPlacement(
                  core::Placement::Gang(core::kMaxGangDevices + 1), bfs)
                  .IsInvalidArgument());
  EXPECT_TRUE(
      core::CheckPlacement(core::Placement::Gang(core::kMaxGangDevices), bfs)
          .ok());
}

// Regression: the streamed branch used to be tested before the warm-start
// one, so a warm-started job admitted to the streamed tier ran cold and
// reported neither the ask nor the fallback.
TEST(PlacementTest, WarmStartThatStreamsReportsTheFallback) {
  auto g = TestGraph(8, 52);
  auto delta = graph::DeltaGraph::Create(*g).value();
  core::PageRankOptions pr;
  pr.max_iterations = 12;
  vgpu::Device cold_device(vgpu::A100Config());
  auto previous = std::make_shared<const JobPayload>(
      core::Run(&cold_device, {core::Algo::kPageRank}, *g, pr).value());
  const uint64_t v0 = delta.version();
  graph::vid_t v = 1;
  while (!delta.AddEdge(0, v).value()) ++v;
  auto snapshot = delta.Snapshot().value();
  ASSERT_GT(snapshot->mutation_epoch(), 0u);

  StreamedFixture f = OverBudgetPageRank(snapshot);
  f.spec.params = pr;
  f.spec.warm_start = WarmFrom(delta, previous, v0);

  Scheduler::Options options;
  options.devices = {BudgetedSlot(f.budget)};
  auto starved = Scheduler::Create(std::move(options)).value();
  JobOutcome streamed = starved->Submit(f.spec).value().get();
  ASSERT_TRUE(streamed.status.ok()) << streamed.status.ToString();
  EXPECT_TRUE(streamed.streamed);
  EXPECT_TRUE(streamed.incremental_requested);
  EXPECT_FALSE(streamed.incremental);
  EXPECT_NE(streamed.fallback_reason.find("streamed"), std::string::npos)
      << streamed.fallback_reason;
  EXPECT_EQ(streamed.result_version, snapshot->mutation_epoch());
  EXPECT_EQ(SeriesTotal(starved->metrics_registry(),
                        "adgraph_incremental_fallbacks_total"),
            1.0);
  vgpu::Device roomy(vgpu::A100Config());
  EXPECT_EQ(FingerprintPayload(streamed.payload),
            FingerprintPayload(
                core::Run(&roomy, {core::Algo::kPageRank}, *snapshot, pr)
                    .value()));

  // The same spec on a roomy device runs incrementally.
  auto roomy_pool = Scheduler::Create({}).value();
  JobOutcome warm = roomy_pool->Submit(f.spec).value().get();
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
  EXPECT_FALSE(warm.streamed);
  EXPECT_TRUE(warm.incremental) << warm.fallback_reason;
}

// Regression: gang jobs used to return before the occupancy floor, so a
// 2-device gang held its slots for only its own wall time.
TEST(PlacementTest, GangJobsHonorTheOccupancyFloor) {
  auto g = TestGraph(8, 53);
  Scheduler::Options options;
  options.devices = {{.arch = &vgpu::A100Config(), .options = {}},
                     {.arch = &vgpu::A100Config(), .options = {}}};
  options.device_occupancy_floor_ms = 50;
  auto scheduler = Scheduler::Create(std::move(options)).value();
  core::BfsOptions bfs;
  bfs.direction_optimizing = false;
  JobSpec gang{.graph = g, .params = bfs};
  gang.gang_devices = 2;
  JobOutcome outcome = scheduler->Submit(gang).value().get();
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.gang_devices, 2u);
  EXPECT_GE(outcome.exec_wall_ms, 50.0);
}

// --- per-job observability (§2.14) -----------------------------------------

TEST(JobProfileTest, OutcomeCarriesKernelAttribution) {
  auto g = TestGraph();
  Scheduler::Options options;
  options.devices = {{.arch = &vgpu::A100Config(), .options = {}}};
  auto scheduler = Scheduler::Create(std::move(options)).value();
  JobOutcome outcome = scheduler->Submit(BfsJob(g, 0)).value().get();
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();

  EXPECT_NE(outcome.trace_id, 0u) << "scheduler mints ids for in-process "
                                     "submits";
  const prof::JobProfile& p = outcome.job_profile;
  ASSERT_GT(p.num_kernels, 0u);
  EXPECT_GT(p.total_cycles, 0.0);
  EXPECT_GT(p.total_ms, 0.0);
  EXPECT_GT(p.warp_inst_issued, 0u);
  // Ratios are ratios.
  EXPECT_GE(p.divergent_branch_ratio, 0.0);
  EXPECT_LE(p.divergent_branch_ratio, 1.0);
  EXPECT_GE(p.l2_hit_rate, 0.0);
  EXPECT_LE(p.l2_hit_rate, 1.0);
  EXPECT_GT(p.achieved_occupancy, 0.0);
  EXPECT_LE(p.achieved_occupancy, 1.0);
  // The top-N table is by cycles, descending, and never exceeds the
  // kernel-name population.
  ASSERT_FALSE(p.top_kernels.empty());
  EXPECT_LE(p.top_kernels.size(), 5u);
  uint64_t launches = 0;
  for (size_t i = 0; i < p.top_kernels.size(); ++i) {
    launches += p.top_kernels[i].launches;
    if (i > 0) {
      EXPECT_LE(p.top_kernels[i].cycles, p.top_kernels[i - 1].cycles);
    }
  }
  EXPECT_LE(launches, p.num_kernels);
}

// The metrics sampler, per-job profiles and the flight recorder are host
// bookkeeping: they must not move the modeled clock by a single bit.
TEST(JobProfileTest, ObservabilityLeavesModeledTimeBitIdentical) {
  auto g = TestGraph();
  std::vector<JobSpec> jobs;
  for (uint32_t i = 0; i < 16; ++i) {
    jobs.push_back(BfsJob(g, (i * 131) % g->num_vertices()));
  }
  auto run = [&](bool observed) {
    Scheduler::Options options;
    options.devices = {{.arch = &vgpu::A100Config(), .options = {}}};
    options.queue_capacity = jobs.size();
    // 16 jobs x 2 ms spans several 10 ms sampler ticks.
    options.device_occupancy_floor_ms = 2;
    options.metrics.enabled = observed;
    options.metrics.interval_ms = 10;
    options.metrics.quiet = true;
    options.flight_recorder.enabled = observed;
    auto scheduler = Scheduler::Create(std::move(options)).value();
    std::vector<std::future<JobOutcome>> futures;
    for (const JobSpec& job : jobs) {
      futures.push_back(scheduler->Submit(job).value());
    }
    std::vector<JobOutcome> outcomes;
    for (auto& future : futures) outcomes.push_back(future.get());
    scheduler->Drain();
    EXPECT_EQ(!scheduler->MetricsBatches().empty(), observed);
    EXPECT_EQ(!scheduler->flight_recorder()->Records().empty(), observed);
    return outcomes;
  };
  const std::vector<JobOutcome> quiet = run(false);
  const std::vector<JobOutcome> observed = run(true);
  ASSERT_EQ(quiet.size(), jobs.size());
  ASSERT_EQ(observed.size(), jobs.size());
  auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  for (size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(quiet[i].status.ok()) << quiet[i].status.ToString();
    ASSERT_TRUE(observed[i].status.ok()) << observed[i].status.ToString();
    EXPECT_GT(observed[i].job_profile.num_kernels, 0u) << "job " << i;
    EXPECT_EQ(bits(quiet[i].modeled_ms), bits(observed[i].modeled_ms))
        << "job " << i;
    EXPECT_EQ(bits(quiet[i].modeled_transfer_ms),
              bits(observed[i].modeled_transfer_ms))
        << "job " << i;

    vgpu::Device fresh(vgpu::A100Config());
    auto direct = core::Run(&fresh, core::AlgoSpec{jobs[i].algorithm()}, *g,
                            jobs[i].params)
                      .value();
    EXPECT_EQ(FingerprintPayload(observed[i].payload),
              FingerprintPayload(direct))
        << "job " << i;
    EXPECT_EQ(FingerprintPayload(quiet[i].payload), FingerprintPayload(direct))
        << "job " << i;
  }
}

namespace {
FlightRecorder::JobRecord MakeRecord(uint64_t id, double exec_ms,
                                     Status status = Status::OK()) {
  FlightRecorder::JobRecord record;
  record.trace_id = id;
  record.sched_job_id = id;
  record.wire_job_id = id + 1000;
  record.algorithm = "bfs";
  record.device = "A100";
  record.status = std::move(status);
  record.exec_wall_ms = exec_ms;
  return record;
}
}  // namespace

TEST(FlightRecorderTest, KeepsKWorstPerClassAfterOverflow) {
  FlightRecorder::Options options;
  options.per_class_capacity = 2;
  FlightRecorder recorder(options);
  // Five jobs, walls 10..50: only the two slowest survive the latency ring.
  for (uint64_t i = 1; i <= 5; ++i) {
    recorder.Record(MakeRecord(i, 10.0 * i));
  }
  auto records = recorder.Records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0]->trace_id, 5u) << "worst first";
  EXPECT_EQ(records[1]->trace_id, 4u);
  EXPECT_EQ(records[0]->triggers, std::vector<std::string>{"latency"});

  // A failed fast job still lands via the status class...
  recorder.Record(MakeRecord(6, 0.001, Status::DeadlineExceeded("shed")));
  EXPECT_NE(recorder.FindByTraceId(6), nullptr);
  // ...and one retained record is findable by every id it carries.
  EXPECT_NE(recorder.FindBySchedId(5), nullptr);
  EXPECT_NE(recorder.FindByWireId(1005), nullptr);
  EXPECT_EQ(recorder.FindByTraceId(3), nullptr) << "evicted";
  EXPECT_EQ(recorder.FindByTraceId(0), nullptr) << "0 never matches";
}

TEST(FlightRecorderTest, AlertClassFollowsFiringRules) {
  FlightRecorder::Options options;
  options.per_class_capacity = 4;
  // A huge latency threshold: nothing qualifies by latency alone.
  options.latency_threshold_ms = 1e9;
  FlightRecorder recorder(options);
  recorder.Record(MakeRecord(1, 5.0));
  EXPECT_TRUE(recorder.Records().empty()) << "no trigger, no retention";

  recorder.NoteAlert(true);
  recorder.Record(MakeRecord(2, 5.0));
  recorder.NoteAlert(false);
  recorder.Record(MakeRecord(3, 5.0));
  auto records = recorder.Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0]->trace_id, 2u);
  EXPECT_EQ(records[0]->triggers, std::vector<std::string>{"alert"});
  EXPECT_EQ(recorder.alerts_active(), 0u);
}

TEST(FlightRecorderTest, DisabledRecorderRetainsNothing) {
  FlightRecorder::Options options;
  options.enabled = false;
  FlightRecorder recorder(options);
  recorder.Record(MakeRecord(1, 100.0));
  EXPECT_FALSE(recorder.enabled());
  EXPECT_TRUE(recorder.Records().empty());
}

// The TSan target: 8 writer threads race Record/NoteAlert against readers
// walking Records()/FindBy* — the INSPECT handler's exact access pattern.
TEST(FlightRecorderTest, ConcurrentRecordAndInspectHammer) {
  FlightRecorder::Options options;
  options.per_class_capacity = 4;
  FlightRecorder recorder(options);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const uint64_t id = static_cast<uint64_t>(t) * kPerThread + i + 1;
        if (i % 7 == 0) recorder.NoteAlert(true);
        recorder.Record(MakeRecord(id, static_cast<double>(id % 97)));
        if (i % 7 == 0) recorder.NoteAlert(false);
        if (i % 3 == 0) {
          for (const auto& r : recorder.Records()) {
            ASSERT_NE(r, nullptr);
            ASSERT_NE(r->trace_id, 0u);
          }
          (void)recorder.FindByTraceId(id);
          (void)recorder.FindBySchedId(id / 2);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  auto records = recorder.Records();
  EXPECT_FALSE(records.empty());
  EXPECT_LE(records.size(), 12u) << "at most 3 classes x capacity 4";
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_LE(records[i]->wall_ms(), records[i - 1]->wall_ms());
  }
}

TEST(FlightRecorderTest, SchedulerRetainsSpanTreeAfterGlobalRingWrap) {
  auto g = TestGraph();
  // A ring far too small for even one job's kernel spans: the window
  // overwrites, the per-job captures must not.
  TraceWindowGuard window({.path = "", .ring_capacity = 4});
  Scheduler::Options options;
  options.devices = {{.arch = &vgpu::A100Config(), .options = {}}};
  options.flight_recorder.per_class_capacity = 3;
  auto scheduler = Scheduler::Create(std::move(options)).value();

  std::vector<JobOutcome> outcomes;
  for (int i = 0; i < 5; ++i) {
    outcomes.push_back(scheduler->Submit(BfsJob(g, 0)).value().get());
    ASSERT_TRUE(outcomes.back().status.ok());
  }
  scheduler->Drain();
  EXPECT_LE(trace::GlobalEvents().size(), 4u) << "the ring wrapped";

  auto records = scheduler->flight_recorder()->Records();
  ASSERT_EQ(records.size(), 3u) << "K worst retained";
  for (const auto& record : records) {
    EXPECT_NE(record->trace_id, 0u);
    ASSERT_FALSE(record->spans.empty())
        << "full span tree survives the ring wrap";
    bool saw_algo = false, saw_kernel = false;
    for (const auto& span : record->spans) {
      saw_algo |= span.name.rfind("algo:", 0) == 0;
      saw_kernel |= span.category == "kernel";
      // Every captured span is stamped with the owning job's identity.
      bool stamped = false;
      for (const auto& arg : span.args) {
        stamped |= arg.key == "trace_id" &&
                   arg.value == trace::TraceIdHex(record->trace_id);
      }
      EXPECT_TRUE(stamped) << span.name;
    }
    EXPECT_TRUE(saw_algo);
    EXPECT_TRUE(saw_kernel);
    EXPECT_GT(record->profile.num_kernels, 0u);
  }
  // The retained record is the one the outcome's ids point at.
  auto found =
      scheduler->flight_recorder()->FindByTraceId(records[0]->trace_id);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->sched_job_id, records[0]->sched_job_id);
}

// ------------------------------------- one source of truth for counts

/// The monotonic counts of a snapshot, flattened by a stable key.
std::map<std::string, double> MonotonicCounts(const prof::ServerStats& s) {
  std::map<std::string, double> counts = {
      {"submitted", double(s.jobs_submitted)},
      {"completed", double(s.jobs_completed)},
      {"failed", double(s.jobs_failed)},
      {"rejected_admission", double(s.jobs_rejected_admission)},
      {"rejected_backpressure", double(s.jobs_rejected_backpressure)},
      {"shed_deadline", double(s.jobs_shed_deadline)},
      {"cache_hits", double(s.cache_hits)},
      {"cache_misses", double(s.cache_misses)},
      {"cache_evictions", double(s.cache_evictions)},
      {"cache_bytes_evicted", double(s.cache_bytes_evicted)},
      {"cache_stale_invalidated", double(s.cache_stale_invalidated)},
      {"gang_jobs", double(s.gang_jobs_completed)},
      {"exchange_bytes", double(s.exchange_bytes_total)},
      {"exchange_rounds", double(s.exchange_rounds_total)}};
  for (size_t i = 0; i < s.devices.size(); ++i) {
    const prof::DeviceStats& d = s.devices[i];
    const std::string key = "device" + std::to_string(i) + ".";
    counts[key + "completed"] = double(d.jobs_completed);
    counts[key + "failed"] = double(d.jobs_failed);
    counts[key + "rejected"] = double(d.jobs_rejected);
    counts[key + "busy_ms"] = d.busy_wall_ms;
    counts[key + "modeled_ms"] = d.modeled_ms;
    counts[key + "cache_hits"] = double(d.cache_hits);
    counts[key + "cache_misses"] = double(d.cache_misses);
  }
  for (const prof::TenantStats& t : s.tenants) {
    const std::string key = "tenant." + t.name + ".";
    counts[key + "submitted"] = double(t.jobs_submitted);
    counts[key + "completed"] = double(t.jobs_completed);
    counts[key + "failed"] = double(t.jobs_failed);
    counts[key + "rejected"] = double(t.jobs_rejected);
    counts[key + "shed"] = double(t.jobs_shed_deadline);
    counts[key + "queue_wait_ms"] = t.queue_wait_ms_total;
  }
  return counts;
}

// ROADMAP aim 4: STATS and the scrape cannot disagree.  Four submitters
// across two tenants produce every verdict (OK, admission reject, deadline
// shed, failure, backpressure, one 2-device gang) while a reader loops
// Snapshot() + Scrape(); every snapshot must satisfy the job identity and
// never move a count backwards, and after Drain() every count must equal
// the sum of its registry series.
TEST(SchedulerTest, SnapshotAndScrapeAgreeUnderConcurrentLoad) {
  auto g = TestGraph(8);
  JobSpec esbv{.graph = g, .params = core::EsbvOptions{}};
  std::get<core::EsbvOptions>(esbv.params).vertices =
      core::SelectPseudoCluster(g->num_vertices(), 0.6, 7);
  const uint64_t upload = g->DeviceFootprintBytes();
  const uint64_t esbv_estimate = EstimateJobDeviceBytes(esbv);
  ASSERT_GT(esbv_estimate, upload);
  Scheduler::DeviceSlot slot =
      BudgetedSlot(upload + (esbv_estimate - upload) / 2);
  Scheduler::Options options;
  options.devices = {slot, slot};
  options.queue_capacity = 2;
  options.overflow = Scheduler::OverflowPolicy::kReject;
  options.device_occupancy_floor_ms = 5;
  auto scheduler = Scheduler::Create(std::move(options)).value();

  auto make_job = [&](int thread, int i) {
    JobSpec spec = BfsJob(g, static_cast<graph::vid_t>(thread * 7 + i));
    spec.tenant = thread < 2 ? "alpha" : "beta";
    switch (i) {
      case 1:  // estimate above device memory
        spec.params = esbv.params;
        break;
      case 2:  // any queue wait misses a 1 ns deadline
        spec.deadline_ms = 1e-6;
        break;
      case 3:  // engine rejects the source vertex
        std::get<core::BfsOptions>(spec.params).source = g->num_vertices() + 5;
        break;
      case 5:
        if (thread == 0) {
          spec.gang_devices = 2;
          std::get<core::BfsOptions>(spec.params).direction_optimizing = false;
        }
        break;
    }
    return spec;
  };

  std::atomic<bool> done{false};
  std::thread reader([&] {
    std::map<std::string, double> last;
    while (!done.load()) {
      const prof::ServerStats s = scheduler->Snapshot();
      (void)scheduler->metrics_registry().Scrape();
      ASSERT_EQ(s.jobs_submitted, s.jobs_queued + s.jobs_running +
                                      s.jobs_completed + s.jobs_failed +
                                      s.jobs_rejected_admission +
                                      s.jobs_shed_deadline);
      for (const auto& [key, value] : MonotonicCounts(s)) {
        ASSERT_GE(value, last[key]) << key;
        last[key] = value;
      }
    }
  });

  constexpr int kThreads = 4;
  constexpr int kJobsPerThread = 6;
  std::atomic<uint64_t> backpressure{0};
  std::mutex mu;
  std::map<StatusCode, uint64_t> verdicts;
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      std::vector<std::future<JobOutcome>> futures;
      for (int i = 0; i < kJobsPerThread; ++i) {
        for (;;) {
          auto submitted = scheduler->Submit(make_job(t, i));
          if (submitted.ok()) {
            futures.push_back(std::move(submitted).value());
            break;
          }
          ASSERT_TRUE(submitted.status().IsResourceExhausted())
              << submitted.status().ToString();
          backpressure.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      for (auto& future : futures) {
        const StatusCode code = future.get().status.code();
        std::lock_guard<std::mutex> lock(mu);
        verdicts[code] += 1;
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  scheduler->Drain();
  done.store(true);
  reader.join();

  const prof::ServerStats stats = scheduler->Snapshot();
  auto sum = [&](const std::string& name,
                 const std::pair<std::string, std::string>& label = {}) {
    return SeriesTotal(scheduler->metrics_registry(), name, label);
  };
  // Every verdict happened, exactly as the submitters saw it.
  EXPECT_EQ(stats.jobs_submitted, uint64_t{kThreads * kJobsPerThread});
  EXPECT_EQ(stats.jobs_completed, verdicts[StatusCode::kOk]);
  EXPECT_EQ(stats.jobs_rejected_admission,
            verdicts[StatusCode::kResourceExhausted]);
  EXPECT_EQ(stats.jobs_shed_deadline, verdicts[StatusCode::kDeadlineExceeded]);
  EXPECT_EQ(stats.jobs_failed, verdicts[StatusCode::kInvalidArgument]);
  EXPECT_EQ(stats.jobs_rejected_backpressure, backpressure.load());
  EXPECT_GT(stats.jobs_completed, 0u);
  EXPECT_EQ(stats.jobs_rejected_admission, uint64_t{kThreads});
  EXPECT_EQ(stats.jobs_shed_deadline, uint64_t{kThreads});
  EXPECT_EQ(stats.jobs_failed, uint64_t{kThreads});
  EXPECT_GT(stats.jobs_rejected_backpressure, 0u);
  EXPECT_EQ(stats.gang_jobs_completed, 1u);

  // ServerStats is the registry, summed.
  EXPECT_EQ(stats.jobs_submitted, sum("adgraph_jobs_submitted_total"));
  EXPECT_EQ(stats.jobs_completed, sum("adgraph_jobs_completed_total"));
  EXPECT_EQ(stats.jobs_failed, sum("adgraph_jobs_failed_total"));
  EXPECT_EQ(stats.jobs_rejected_admission,
            sum("adgraph_jobs_rejected_admission_total"));
  EXPECT_EQ(stats.jobs_rejected_backpressure,
            sum("adgraph_jobs_rejected_backpressure_total"));
  EXPECT_EQ(stats.jobs_shed_deadline, sum("adgraph_jobs_shed_deadline_total"));
  EXPECT_EQ(stats.cache_hits, sum("adgraph_cache_hits_total"));
  EXPECT_EQ(stats.cache_misses, sum("adgraph_cache_misses_total"));
  EXPECT_EQ(stats.cache_evictions, sum("adgraph_cache_evictions_total"));
  EXPECT_EQ(stats.cache_bytes_evicted,
            sum("adgraph_cache_evicted_bytes_total"));
  EXPECT_EQ(stats.cache_resident_bytes, sum("adgraph_cache_resident_bytes"));
  EXPECT_EQ(stats.cache_stale_invalidated,
            sum("adgraph_cache_stale_invalidated_total"));
  EXPECT_EQ(stats.gang_jobs_completed, sum("adgraph_gang_jobs_total"));
  EXPECT_EQ(stats.exchange_bytes_total, sum("adgraph_exchange_bytes_total"));
  EXPECT_EQ(stats.exchange_rounds_total, sum("adgraph_exchange_rounds_total"));
  ASSERT_EQ(stats.devices.size(), 2u);
  for (size_t i = 0; i < stats.devices.size(); ++i) {
    const prof::DeviceStats& d = stats.devices[i];
    const std::pair<std::string, std::string> worker = {"worker",
                                                        std::to_string(i)};
    EXPECT_EQ(d.jobs_completed, sum("adgraph_jobs_completed_total", worker));
    EXPECT_EQ(d.jobs_failed, sum("adgraph_jobs_failed_total", worker));
    EXPECT_EQ(d.jobs_rejected,
              sum("adgraph_jobs_rejected_admission_total", worker));
    EXPECT_EQ(d.busy_wall_ms, sum("adgraph_worker_busy_ms", worker));
    EXPECT_EQ(d.modeled_ms, sum("adgraph_worker_modeled_ms", worker));
    EXPECT_EQ(d.cache_hits, sum("adgraph_cache_hits_total", worker));
    EXPECT_EQ(d.cache_misses, sum("adgraph_cache_misses_total", worker));
    EXPECT_EQ(d.cache_resident_bytes,
              sum("adgraph_cache_resident_bytes", worker));
  }
  ASSERT_EQ(stats.tenants.size(), 2u);
  uint64_t tenant_submitted = 0;
  for (const prof::TenantStats& t : stats.tenants) {
    const std::pair<std::string, std::string> tenant = {"tenant", t.name};
    EXPECT_EQ(t.jobs_submitted,
              sum("adgraph_tenant_jobs_submitted_total", tenant));
    EXPECT_EQ(t.jobs_completed,
              sum("adgraph_tenant_jobs_completed_total", tenant));
    EXPECT_EQ(t.jobs_failed, sum("adgraph_tenant_jobs_failed_total", tenant));
    EXPECT_EQ(t.jobs_rejected,
              sum("adgraph_tenant_jobs_rejected_total", tenant));
    EXPECT_EQ(t.jobs_shed_deadline,
              sum("adgraph_tenant_jobs_shed_total", tenant));
    EXPECT_EQ(t.queue_wait_ms_total,
              sum("adgraph_tenant_queue_wait_ms", tenant));
    EXPECT_EQ(t.jobs_submitted, t.jobs_completed + t.jobs_failed +
                                    t.jobs_rejected + t.jobs_shed_deadline);
    tenant_submitted += t.jobs_submitted;
  }
  EXPECT_EQ(tenant_submitted, stats.jobs_submitted);
}

TEST(ServerStatsTest, FormatMentionsDevicesAndLatency) {
  auto g = TestGraph(6);
  Scheduler::Options options;
  options.devices = {{.arch = &vgpu::Z100Config(), .options = {}}};
  auto scheduler = Scheduler::Create(std::move(options)).value();
  scheduler->Submit(BfsJob(g, 0)).value().get();
  scheduler->Drain();
  std::string report = prof::FormatServerStats(scheduler->Snapshot());
  EXPECT_NE(report.find("Z100"), std::string::npos);
  EXPECT_NE(report.find("jobs/s"), std::string::npos);
  EXPECT_NE(report.find("p95"), std::string::npos);
}

}  // namespace
}  // namespace adgraph::serve
