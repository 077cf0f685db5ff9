// bench_serve_throughput — wall-clock jobs/sec of the src/serve/ scheduler
// as a function of worker-pool size, on a mixed BFS / TC / ESBV batch.
//
// The pool uses identical A100 slots so that per-job results are
// byte-identical across pool sizes (warp width changes FP reduction order
// between vendors); every outcome is fingerprint-checked against a serial
// core::Run of the same spec on a fresh device.
//
// The simulator executes kernels on the host, so host CPU time — not the
// modeled GPU time — is what a wall-clock throughput bench measures.  To
// model a real serving host (which is mostly *waiting* on asynchronous
// devices), each worker keeps its device occupied for a wall-time floor per
// job (--floor-ms, default auto-calibrated from the serial run).  Those
// waits overlap across workers, so pool scaling shows up even on a
// single-core container.
//
// Usage: bench_serve_throughput [--scale=11] [--jobs=24] [--floor-ms=F]
//        [--workers=1,2,4]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/bfs.h"
#include "core/subgraph.h"
#include "core/triangle_count.h"
#include "graph/generate.h"
#include "net/client.h"
#include "net/server.h"
#include "net/tenant.h"
#include "net/wire.h"
#include "prof/report.h"
#include "serve/job.h"
#include "serve/registry.h"
#include "serve/scheduler.h"
#include "util/flags.h"
#include "util/table.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"

namespace adgraph {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::vector<serve::JobSpec> BuildBatch(
    const std::shared_ptr<const graph::CsrGraph>& g, int count) {
  std::vector<serve::JobSpec> jobs;
  jobs.reserve(count);
  for (int i = 0; i < count; ++i) {
    serve::JobSpec spec;
    spec.graph = g;
    spec.tag = "job" + std::to_string(i);
    switch (i % 3) {
      case 0: {
        core::BfsOptions o;
        o.source = static_cast<graph::vid_t>(
            (i * 97) % g->num_vertices());
        o.assume_symmetric = true;
        spec.params = o;
        break;
      }
      case 1: {
        core::TcOptions o;
        spec.params = o;
        break;
      }
      default: {
        core::EsbvOptions o;
        o.vertices = core::SelectPseudoCluster(
            g->num_vertices(), 0.3 + 0.05 * (i % 4),
            static_cast<uint64_t>(i));
        spec.params = o;
        break;
      }
    }
    jobs.push_back(std::move(spec));
  }
  return jobs;
}

int Main(int argc, char** argv) {
  auto flags = Flags::Parse(argc, argv).value();
  uint32_t scale = static_cast<uint32_t>(flags.GetInt("scale", 11));
  int job_count = static_cast<int>(flags.GetInt("jobs", 24));

  auto coo =
      graph::GenerateRmat({.scale = scale, .edge_factor = 8.0, .seed = 42})
          .value();
  graph::AttachRandomWeights(&coo, 0.0, 1.0, 7);
  graph::CsrBuildOptions build;
  build.remove_duplicates = true;
  build.remove_self_loops = true;
  build.make_undirected = true;
  auto g = std::make_shared<const graph::CsrGraph>(
      graph::CsrGraph::FromCoo(coo, build).value());
  std::printf("graph: R-MAT scale %u, %u vertices, %llu edges\n", scale,
              g->num_vertices(),
              static_cast<unsigned long long>(g->num_edges()));

  std::vector<serve::JobSpec> jobs = BuildBatch(g, job_count);

  // Serial reference: every job on one fresh A100, fingerprints recorded.
  std::vector<uint64_t> serial_fp(jobs.size());
  vgpu::Device serial_device(vgpu::A100Config());
  auto serial_start = Clock::now();
  for (size_t i = 0; i < jobs.size(); ++i) {
    auto payload = core::Run(&serial_device,
                             core::AlgoSpec{jobs[i].algorithm()},
                             *jobs[i].graph, jobs[i].params)
                       .value();
    serial_fp[i] = serve::FingerprintPayload(payload);
    serial_device.ResetCounters();
  }
  double serial_ms = MsSince(serial_start);
  double mean_job_ms = serial_ms / jobs.size();
  std::printf("serial reference: %d jobs in %.1f ms (%.2f ms/job)\n\n",
              job_count, serial_ms, mean_job_ms);

  // Each job occupies its device for at least ~4x the host simulation cost,
  // mimicking a host that spends most of each job waiting on the device.
  double floor_ms = flags.GetDouble("floor-ms", 0.0);
  if (floor_ms <= 0) floor_ms = std::max(4.0, 4.0 * mean_job_ms);
  std::printf("device occupancy floor: %.1f ms/job\n\n", floor_ms);

  std::vector<int> worker_counts;
  {
    std::istringstream list(flags.GetString("workers", "1,2,4"));
    std::string tok;
    while (std::getline(list, tok, ',')) worker_counts.push_back(std::stoi(tok));
  }

  TablePrinter table({"workers", "wall (ms)", "jobs/s", "speedup", "match"});
  double base_jobs_per_sec = 0;
  std::string last_snapshot;
  for (int workers : worker_counts) {
    serve::Scheduler::Options options;
    for (int w = 0; w < workers; ++w) {
      options.devices.push_back({.arch = &vgpu::A100Config(), .options = {}});
    }
    options.queue_capacity = jobs.size();
    options.device_occupancy_floor_ms = floor_ms;
    auto scheduler = serve::Scheduler::Create(std::move(options)).value();

    auto start = Clock::now();
    std::vector<std::future<serve::JobOutcome>> futures;
    futures.reserve(jobs.size());
    for (const auto& job : jobs) {
      futures.push_back(scheduler->Submit(job).value());
    }
    size_t matched = 0;
    for (size_t i = 0; i < futures.size(); ++i) {
      serve::JobOutcome outcome = futures[i].get();
      if (outcome.status.ok() &&
          serve::FingerprintPayload(outcome.payload) == serial_fp[i]) {
        ++matched;
      }
    }
    double wall_ms = MsSince(start);
    double jobs_per_sec = 1e3 * jobs.size() / wall_ms;
    if (base_jobs_per_sec == 0) base_jobs_per_sec = jobs_per_sec;
    table.AddRow({std::to_string(workers), FormatFixed(wall_ms, 1),
                  FormatFixed(jobs_per_sec, 2),
                  FormatFixed(jobs_per_sec / base_jobs_per_sec, 2) + "x",
                  std::to_string(matched) + "/" +
                      std::to_string(futures.size())});
    scheduler->Drain();
    last_snapshot = prof::FormatServerStats(scheduler->Snapshot());
  }
  std::ostringstream rendered;
  table.Print(rendered);
  std::printf("%s\n%s", rendered.str().c_str(), last_snapshot.c_str());

  // --- graph residency cache: the repeated-graph serving workload --------
  //
  // Many queries over one resident graph is the serving-layer common case
  // (the reason DESIGN.md §2.6 exists).  Compare *modeled* device time —
  // kernel ms plus PCIe transfer ms — for the same single-worker batch with
  // the cache on and off; results must stay byte-identical.
  int cache_job_count = static_cast<int>(flags.GetInt("cache-jobs", 16));
  std::vector<serve::JobSpec> repeat_jobs;
  std::vector<uint64_t> repeat_fp;
  for (int i = 0; i < cache_job_count; ++i) {
    core::BfsOptions o;
    o.source = static_cast<graph::vid_t>((i * 131) % g->num_vertices());
    o.assume_symmetric = true;
    serve::JobSpec spec;
    spec.graph = g;
    spec.params = o;
    spec.tag = "repeat" + std::to_string(i);
    auto payload = core::Run(&serial_device, core::AlgoSpec{spec.algorithm()},
                             *spec.graph, spec.params)
                       .value();
    repeat_fp.push_back(serve::FingerprintPayload(payload));
    serial_device.ResetCounters();
    repeat_jobs.push_back(std::move(spec));
  }

  std::printf("\ngraph residency cache: %d BFS jobs over one graph, "
              "single worker (modeled device time)\n",
              cache_job_count);
  TablePrinter cache_table(
      {"cache", "modeled (ms)", "modeled jobs/s", "speedup", "hits", "match"});
  double off_jobs_per_sec = 0;
  for (bool enabled : {false, true}) {
    serve::Scheduler::Options options;
    options.devices = {{.arch = &vgpu::A100Config(), .options = {}}};
    options.queue_capacity = repeat_jobs.size();
    options.cache.enabled = enabled;
    auto scheduler = serve::Scheduler::Create(std::move(options)).value();
    std::vector<std::future<serve::JobOutcome>> futures;
    for (const auto& job : repeat_jobs) {
      futures.push_back(scheduler->Submit(job).value());
    }
    double modeled_total_ms = 0;
    size_t matched = 0;
    for (size_t i = 0; i < futures.size(); ++i) {
      serve::JobOutcome outcome = futures[i].get();
      modeled_total_ms += outcome.modeled_ms + outcome.modeled_transfer_ms;
      if (outcome.status.ok() &&
          serve::FingerprintPayload(outcome.payload) == repeat_fp[i]) {
        ++matched;
      }
    }
    scheduler->Drain();
    auto stats = scheduler->Snapshot();
    double jobs_per_sec = 1e3 * repeat_jobs.size() / modeled_total_ms;
    if (!enabled) off_jobs_per_sec = jobs_per_sec;
    cache_table.AddRow(
        {enabled ? "on" : "off", FormatFixed(modeled_total_ms, 2),
         FormatFixed(jobs_per_sec, 1),
         FormatFixed(jobs_per_sec / off_jobs_per_sec, 2) + "x",
         std::to_string(stats.cache_hits) + "/" +
             std::to_string(stats.cache_hits + stats.cache_misses),
         std::to_string(matched) + "/" + std::to_string(futures.size())});
  }
  std::ostringstream cache_rendered;
  cache_table.Print(cache_rendered);
  std::printf("%s", cache_rendered.str().c_str());

  // --- metrics sampling overhead (DESIGN.md §2.9) -------------------------
  //
  // Same single-worker repeated-graph batch, metrics sampler off vs. on at
  // an aggressive 10 ms interval.  Registry updates are always on (relaxed
  // atomics); what this measures is the marginal cost of the background
  // sampler thread re-entering Snapshot() and scraping every series.  The
  // modeled jobs/s (simulated device time, which the sampler cannot touch)
  // must agree within noise; wall jobs/s shows the host-side cost.
  double metrics_interval_ms = flags.GetDouble("metrics-interval-ms", 10.0);
  std::printf("\nmetrics sampling overhead: %d BFS jobs, single worker, "
              "%.0f ms sample interval\n",
              cache_job_count, metrics_interval_ms);
  TablePrinter obs_table({"metrics", "wall (ms)", "modeled (ms)",
                          "modeled jobs/s", "samples", "match"});
  double modeled_off = 0;
  double modeled_on = 0;
  for (bool enabled : {false, true}) {
    serve::Scheduler::Options options;
    options.devices = {{.arch = &vgpu::A100Config(), .options = {}}};
    options.queue_capacity = repeat_jobs.size();
    options.metrics.enabled = enabled;
    options.metrics.interval_ms = metrics_interval_ms;
    options.metrics.quiet = true;
    auto scheduler = serve::Scheduler::Create(std::move(options)).value();
    auto start = Clock::now();
    std::vector<std::future<serve::JobOutcome>> futures;
    for (const auto& job : repeat_jobs) {
      futures.push_back(scheduler->Submit(job).value());
    }
    double modeled_total_ms = 0;
    size_t matched = 0;
    for (size_t i = 0; i < futures.size(); ++i) {
      serve::JobOutcome outcome = futures[i].get();
      modeled_total_ms += outcome.modeled_ms + outcome.modeled_transfer_ms;
      if (outcome.status.ok() &&
          serve::FingerprintPayload(outcome.payload) == repeat_fp[i]) {
        ++matched;
      }
    }
    scheduler->Drain();
    double wall_ms = MsSince(start);
    size_t samples = scheduler->MetricsBatches().size();
    double jobs_per_sec = 1e3 * repeat_jobs.size() / modeled_total_ms;
    (enabled ? modeled_on : modeled_off) = jobs_per_sec;
    obs_table.AddRow({enabled ? "on" : "off", FormatFixed(wall_ms, 1),
                      FormatFixed(modeled_total_ms, 2),
                      FormatFixed(jobs_per_sec, 1), std::to_string(samples),
                      std::to_string(matched) + "/" +
                          std::to_string(futures.size())});
  }
  std::ostringstream obs_rendered;
  obs_table.Print(obs_rendered);
  double overhead_pct =
      modeled_off > 0 ? 100.0 * (modeled_off - modeled_on) / modeled_off : 0;
  std::printf("%smetrics overhead on modeled jobs/s: %.2f%% (acceptance "
              "bound: 5%%)\n",
              obs_rendered.str().c_str(), overhead_pct);

  // --- per-job profile attribution overhead (DESIGN.md §2.14) -------------
  //
  // Same single-worker repeated-graph batch with per-job kernel attribution
  // plus the flight recorder off vs. on (both default on in production).
  // "On" folds every job's kernel window into a JobProfile, feeds the
  // adgraph_job_* histograms, and retains the K-worst records; all of that
  // is host-side bookkeeping, so the modeled jobs/s (simulated device
  // time) must agree within noise — the observability tentpole's 5%
  // acceptance bound.  Wall jobs/s shows the host cost for reference.
  std::printf("\nper-job profile attribution overhead: %d BFS jobs, "
              "single worker\n",
              cache_job_count);
  TablePrinter prof_table({"profiles", "wall (ms)", "modeled (ms)",
                           "modeled jobs/s", "profiled", "match"});
  double prof_modeled_off = 0;
  double prof_modeled_on = 0;
  for (bool enabled : {false, true}) {
    serve::Scheduler::Options options;
    options.devices = {{.arch = &vgpu::A100Config(), .options = {}}};
    options.queue_capacity = repeat_jobs.size();
    options.job_profiles = enabled;
    options.flight_recorder.enabled = enabled;
    auto scheduler = serve::Scheduler::Create(std::move(options)).value();
    auto start = Clock::now();
    std::vector<std::future<serve::JobOutcome>> futures;
    for (const auto& job : repeat_jobs) {
      futures.push_back(scheduler->Submit(job).value());
    }
    double modeled_total_ms = 0;
    size_t matched = 0;
    size_t profiled = 0;
    for (size_t i = 0; i < futures.size(); ++i) {
      serve::JobOutcome outcome = futures[i].get();
      modeled_total_ms += outcome.modeled_ms + outcome.modeled_transfer_ms;
      if (outcome.job_profile.num_kernels > 0) ++profiled;
      if (outcome.status.ok() &&
          serve::FingerprintPayload(outcome.payload) == repeat_fp[i]) {
        ++matched;
      }
    }
    scheduler->Drain();
    double wall_ms = MsSince(start);
    double jobs_per_sec = 1e3 * repeat_jobs.size() / modeled_total_ms;
    (enabled ? prof_modeled_on : prof_modeled_off) = jobs_per_sec;
    prof_table.AddRow({enabled ? "on" : "off", FormatFixed(wall_ms, 1),
                       FormatFixed(modeled_total_ms, 2),
                       FormatFixed(jobs_per_sec, 1),
                       std::to_string(profiled) + "/" +
                           std::to_string(futures.size()),
                       std::to_string(matched) + "/" +
                           std::to_string(futures.size())});
  }
  std::ostringstream prof_rendered;
  prof_table.Print(prof_rendered);
  double prof_overhead_pct =
      prof_modeled_off > 0
          ? 100.0 * (prof_modeled_off - prof_modeled_on) / prof_modeled_off
          : 0;
  std::printf("%sprofile overhead on modeled jobs/s: %.2f%% (acceptance "
              "bound: 5%%)\n",
              prof_rendered.str().c_str(), prof_overhead_pct);
  if (prof_overhead_pct > 5.0) {
    std::printf("FAIL: profile attribution overhead exceeds the 5%% "
                "acceptance bound\n");
    return 1;
  }

  // --- TCP front door (DESIGN.md §2.10) -----------------------------------
  //
  // A high-frequency mixed-tenant workload replayed two ways: straight into
  // Scheduler::Submit (in-process baseline) and over loopback TCP through
  // net::Server with one session per tenant.  Four tenants across two
  // priority classes; "capped" carries a deliberately tight token-bucket
  // quota so the front door sheds its excess while the compliant tenants
  // keep flowing.  Acceptance: socket jobs/s >= 80% of in-process at the
  // same worker count; compliant-tenant p99 queue-wait within 1.5x of a
  // solo run without the capped tenant; responses byte-identical
  // (fingerprint) to the serial reference.
  int net_job_count = static_cast<int>(flags.GetInt("net-jobs", 48));
  int net_workers = static_cast<int>(flags.GetInt("net-workers", 4));
  std::printf("\nTCP front door: %d jobs, 4 tenants / 2 priority classes, "
              "%d workers\n",
              net_job_count, net_workers);

  std::vector<net::TenantConfig> tenants(4);
  tenants[0] = {.name = "gold-a", .priority = 0, .weight = 2.0};
  tenants[1] = {.name = "gold-b", .priority = 0, .weight = 1.0};
  tenants[2] = {.name = "silver", .priority = 1, .weight = 1.0};
  tenants[3] = {.name = "capped",
                .rate_per_sec = 40.0,
                .burst = 4.0,
                .priority = 1,
                .weight = 1.0};

  struct NetJob {
    int tenant = 0;
    serve::Algorithm algo = serve::Algorithm::kBfs;
    std::map<std::string, std::string> kv;
    uint64_t serial_fp = 0;
  };
  std::vector<NetJob> net_jobs(net_job_count);
  for (int i = 0; i < net_job_count; ++i) {
    NetJob& job = net_jobs[i];
    job.tenant = i % 4;
    switch (i % 3) {
      case 0:
        job.algo = serve::Algorithm::kBfs;
        job.kv["source"] = std::to_string((i * 97) % g->num_vertices());
        job.kv["symmetric"] = "1";
        break;
      case 1:
        job.algo = serve::Algorithm::kTriangleCount;
        break;
      default:
        job.algo = serve::Algorithm::kEsbv;
        job.kv["fraction"] = "0.3";
        job.kv["seed"] = std::to_string(i);
        break;
    }
    // Serial reference fingerprint via the *same* wire param mapping the
    // server uses, so a mismatch can only come from the transport.
    serve::JobSpec spec;
    spec.graph = g;
    spec.params = net::BuildJobParams(job.algo, job.kv, g->num_vertices())
                      .value();
    job.serial_fp = serve::FingerprintPayload(
        core::Run(&serial_device, core::AlgoSpec{job.algo}, *spec.graph,
                  spec.params)
            .value());
    serial_device.ResetCounters();
  }

  auto make_pool_options = [&](size_t queue_capacity) {
    serve::Scheduler::Options options;
    for (int w = 0; w < net_workers; ++w) {
      options.devices.push_back({.arch = &vgpu::A100Config(), .options = {}});
    }
    options.queue_capacity = queue_capacity;
    options.device_occupancy_floor_ms = floor_ms;
    return options;
  };
  auto p99 = [](std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    return v[static_cast<size_t>(std::ceil(0.99 * v.size())) - 1];
  };

  // In-process baseline: same jobs, same tenant QoS fields, no socket.
  double inproc_jobs_per_sec = 0;
  {
    auto scheduler =
        serve::Scheduler::Create(make_pool_options(net_jobs.size())).value();
    auto start = Clock::now();
    std::vector<std::future<serve::JobOutcome>> futures;
    for (const NetJob& job : net_jobs) {
      serve::JobSpec spec;
      spec.graph = g;
      spec.params =
          net::BuildJobParams(job.algo, job.kv, g->num_vertices()).value();
      const net::TenantConfig& t = tenants[job.tenant];
      spec.tenant = t.name;
      spec.priority = t.priority;
      spec.fair_weight = t.weight;
      futures.push_back(scheduler->Submit(spec).value());
    }
    size_t completed = 0;
    for (auto& future : futures) {
      if (future.get().status.ok()) ++completed;
    }
    double wall_ms = MsSince(start);
    inproc_jobs_per_sec = 1e3 * completed / wall_ms;
    scheduler->Drain();
    std::printf("in-process baseline: %zu jobs in %.1f ms (%.1f jobs/s)\n",
                completed, wall_ms, inproc_jobs_per_sec);
  }

  // Socket replay: one session per tenant, each on its own thread; submits
  // are pipelined per session, then every job is polled to completion.
  struct TenantRun {
    int submitted = 0;
    int completed = 0;
    int rejected_quota = 0;
    int shed = 0;
    int failed = 0;
    int mismatched = 0;
    std::vector<double> queue_ms;
  };
  struct SocketRun {
    double wall_ms = 0;
    double jobs_per_sec = 0;
    std::vector<TenantRun> per_tenant;
  };
  auto run_socket = [&](bool include_capped) -> SocketRun {
    auto scheduler =
        serve::Scheduler::Create(make_pool_options(net_jobs.size())).value();
    net::ServerOptions server_options;
    server_options.handler_threads = 2;
    server_options.tenants = tenants;
    net::Server::GraphMap graphs;
    graphs["default"] = g;
    auto server =
        net::Server::Start(scheduler.get(), std::move(graphs), server_options)
            .value();

    SocketRun run;
    run.per_tenant.resize(tenants.size());
    std::mutex mu;
    auto start = Clock::now();
    std::vector<std::thread> threads;
    for (size_t t = 0; t < tenants.size(); ++t) {
      if (!include_capped && tenants[t].name == "capped") continue;
      threads.emplace_back([&, t] {
        TenantRun local;
        auto client =
            net::Client::Connect("127.0.0.1", server->port()).value();
        (void)client.Hello(tenants[t].name).value();
        std::vector<std::pair<uint64_t, const NetJob*>> in_flight;
        for (const NetJob& job : net_jobs) {
          if (job.tenant != static_cast<int>(t)) continue;
          net::Json request = net::Json::MakeObject();
          request.Set("op", "SUBMIT");
          request.Set("algo",
                      std::string(serve::AlgorithmName(job.algo)));
          net::Json params = net::Json::MakeObject();
          for (const auto& [key, value] : job.kv) params.Set(key, value);
          request.Set("params", std::move(params));
          ++local.submitted;
          net::Json response = client.Call(request).value();
          if (!response.GetBool("ok", false)) {
            ++local.rejected_quota;
            continue;
          }
          in_flight.emplace_back(
              static_cast<uint64_t>(response.GetNumber("job", 0)), &job);
        }
        for (const auto& [job_id, job] : in_flight) {
          net::Json done = client.WaitJob(job_id).value();
          std::string status = done.GetString("status", "?");
          if (status == "ok") {
            ++local.completed;
            local.queue_ms.push_back(done.GetNumber("queue_ms", 0));
            if (done.GetString("fingerprint", "") !=
                net::FingerprintHex(job->serial_fp)) {
              ++local.mismatched;
            }
          } else if (status == "deadline_exceeded") {
            ++local.shed;
          } else {
            ++local.failed;
          }
        }
        std::lock_guard<std::mutex> lock(mu);
        run.per_tenant[t] = std::move(local);
      });
    }
    for (auto& thread : threads) thread.join();
    run.wall_ms = MsSince(start);
    size_t completed = 0;
    for (const TenantRun& t : run.per_tenant) completed += t.completed;
    run.jobs_per_sec = 1e3 * completed / run.wall_ms;
    server->Shutdown();
    scheduler->Drain();
    return run;
  };

  SocketRun solo = run_socket(/*include_capped=*/false);
  SocketRun full = run_socket(/*include_capped=*/true);

  TablePrinter net_table({"tenant", "class", "submitted", "done", "quota rej",
                          "shed", "mismatch", "p99 queue (ms)"});
  std::vector<double> class_queue[2];
  int mismatched_total = 0;
  for (size_t t = 0; t < tenants.size(); ++t) {
    const TenantRun& tenant_run = full.per_tenant[t];
    mismatched_total += tenant_run.mismatched;
    auto& pooled = class_queue[tenants[t].priority == 0 ? 0 : 1];
    pooled.insert(pooled.end(), tenant_run.queue_ms.begin(),
                  tenant_run.queue_ms.end());
    net_table.AddRow(
        {tenants[t].name, tenants[t].priority == 0 ? "gold" : "silver",
         std::to_string(tenant_run.submitted),
         std::to_string(tenant_run.completed),
         std::to_string(tenant_run.rejected_quota),
         std::to_string(tenant_run.shed), std::to_string(tenant_run.mismatched),
         FormatFixed(p99(tenant_run.queue_ms), 2)});
  }
  std::ostringstream net_rendered;
  net_table.Print(net_rendered);
  std::printf("%s", net_rendered.str().c_str());

  double ratio =
      inproc_jobs_per_sec > 0 ? full.jobs_per_sec / inproc_jobs_per_sec : 0;
  std::printf("socket: %.1f jobs/s over TCP vs %.1f in-process — %.0f%% "
              "(acceptance bound: >= 80%%)\n",
              full.jobs_per_sec, inproc_jobs_per_sec, 100.0 * ratio);
  std::printf("p99 queue-wait: gold %.2f ms, silver %.2f ms\n",
              p99(class_queue[0]), p99(class_queue[1]));

  // Compliant-tenant isolation: p99 with the capped tenant hammering the
  // pool vs. a solo run without it.
  std::vector<double> compliant_full;
  std::vector<double> compliant_solo;
  for (size_t t = 0; t < tenants.size(); ++t) {
    if (tenants[t].name == "capped") continue;
    compliant_full.insert(compliant_full.end(),
                          full.per_tenant[t].queue_ms.begin(),
                          full.per_tenant[t].queue_ms.end());
    compliant_solo.insert(compliant_solo.end(),
                          solo.per_tenant[t].queue_ms.begin(),
                          solo.per_tenant[t].queue_ms.end());
  }
  double solo_p99 = p99(compliant_solo);
  double full_p99 = p99(compliant_full);
  std::printf("compliant p99 queue-wait: %.2f ms with capped tenant vs "
              "%.2f ms solo (%.2fx, acceptance bound: <= 1.5x)\n",
              full_p99, solo_p99, solo_p99 > 0 ? full_p99 / solo_p99 : 0.0);
  std::printf("fingerprint mismatches vs serial reference: %d\n",
              mismatched_total);
  return 0;
}

}  // namespace
}  // namespace adgraph

int main(int argc, char** argv) { return adgraph::Main(argc, argv); }
