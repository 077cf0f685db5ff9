#include "serve/scheduler.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "capi/adgraph.h"
#include "prof/metrics.h"
#include "prof/session.h"
#include "serve/admission.h"
#include "serve/registry.h"
#include "trace/trace.h"

namespace adgraph::serve {

namespace {

constexpr size_t kNone = static_cast<size_t>(-1);

/// Latency histogram layout shared by every worker's modeled/wall/queue
/// series: 1 us to ~67 s in doubling buckets.  Identical layouts are what
/// make the per-worker histograms mergeable into pool-wide percentiles.
obs::HistogramOptions LatencyBuckets() {
  obs::HistogramOptions options;
  options.first_bound = 0.001;  // ms
  options.growth = 2.0;
  options.num_buckets = 26;
  return options;
}

std::string VersionString() {
  return std::to_string(ADGRAPH_VERSION_MAJOR) + "." +
         std::to_string(ADGRAPH_VERSION_MINOR) + "." +
         std::to_string(ADGRAPH_VERSION_PATCH);
}

/// Below this uptime the wall-clock rates are meaningless noise (a
/// Snapshot() taken right after Create()); report them as zero instead of
/// dividing by (near-)nothing.
constexpr double kMinUptimeMs = 1e-3;

double MsBetween(std::chrono::steady_clock::time_point a,
                 std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

Scheduler::Scheduler(Options options) : options_(std::move(options)) {
  started_at_ = Clock::now();
  flight_recorder_ = std::make_unique<FlightRecorder>(options_.flight_recorder);
}

Result<std::unique_ptr<Scheduler>> Scheduler::Create(Options options) {
  if (options.devices.empty()) {
    for (const vgpu::ArchConfig* arch : vgpu::PaperGpus()) {
      options.devices.push_back({.arch = arch, .options = {}});
    }
  }
  for (const DeviceSlot& slot : options.devices) {
    if (slot.arch == nullptr) {
      return Status::InvalidArgument("device slot with null arch config");
    }
    // Reject pathological configs (zero SMs, zero clock, non-finite
    // bandwidth, ...) here, before a worker thread constructs a Device
    // whose timing model would divide by them.
    ADGRAPH_RETURN_NOT_OK(vgpu::ValidateArchConfig(*slot.arch));
  }
  options.queue_capacity = std::max<size_t>(options.queue_capacity, 1);

  auto scheduler = std::unique_ptr<Scheduler>(new Scheduler(std::move(options)));
  for (const DeviceSlot& slot : scheduler->options_.devices) {
    auto worker = std::make_unique<Worker>(slot);
    worker->arch_name = slot.arch->name;
    scheduler->workers_.push_back(std::move(worker));
  }
  // Metric series exist before any thread runs: registration is the only
  // registry operation that locks, so doing it all here keeps the worker
  // hot path down to relaxed atomics on cached handles.
  scheduler->RegisterMetrics();
  if (scheduler->options_.metrics.enabled) {
    Scheduler* s = scheduler.get();
    scheduler->sampler_ = std::make_unique<obs::Sampler>(
        &scheduler->registry_, scheduler->options_.metrics,
        [s] { return s->PollMetrics(); },
        [s](const obs::AlertEvent& event) {
          // The flight recorder tracks firing rules regardless of tracing:
          // jobs completing under a firing alert qualify for its "alert"
          // class even when no trace sink is attached.
          s->flight_recorder_->NoteAlert(event.state ==
                                         obs::AlertEvent::State::kFiring);
          if (!trace::Enabled()) return;
          uint64_t track = s->alerts_track_.load(std::memory_order_relaxed);
          if (track == 0) {
            track = trace::RegisterTrack("alerts");
            s->alerts_track_.store(track, std::memory_order_relaxed);
          }
          char value[32];
          std::snprintf(value, sizeof(value), "%.3f", event.value);
          trace::EmitInstant(
              track, "alert:" + event.rule, "alert",
              {{"state",
                event.state == obs::AlertEvent::State::kFiring ? "firing"
                                                               : "resolved",
                false},
               {"value", value, true},
               {"metric", event.metric, false}});
        });
  }
  // Start the threads only after the worker array is final (threads index
  // into it).
  for (auto& worker : scheduler->workers_) {
    Worker* w = worker.get();
    w->thread = std::thread([s = scheduler.get(), w] { s->WorkerLoop(w); });
  }
  if (scheduler->sampler_) scheduler->sampler_->Start();
  return scheduler;
}

void Scheduler::RegisterMetrics() {
  const std::string version = VersionString();
  for (size_t i = 0; i < workers_.size(); ++i) {
    Worker& worker = *workers_[i];
    const obs::LabelSet id = {{"worker", std::to_string(i)},
                              {"device", worker.arch_name}};
    // build_info leads every scrape so dashboards can tell runs (and
    // pools) apart before reading a single sample.
    registry_.GetGauge("adgraph_build_info",
                       "Library version and device inventory; value is "
                       "always 1.",
                       {{"version", version},
                        {"worker", std::to_string(i)},
                        {"device", worker.arch_name},
                        {"vendor", worker.slot.arch->vendor}})
        ->Set(1);
  }
  metric_submitted_ = registry_.GetCounter(
      "adgraph_jobs_submitted_total", "Jobs accepted into the queue.");
  metric_rejected_backpressure_ = registry_.GetCounter(
      "adgraph_jobs_rejected_backpressure_total",
      "Submissions refused because the bounded queue was full.");
  metric_queue_depth_ = registry_.GetGauge(
      "adgraph_queue_depth", "Jobs waiting in the submission queue.");
  metric_jobs_running_ = registry_.GetGauge(
      "adgraph_jobs_running", "Jobs resident on a device right now.");
  metric_uptime_ms_ =
      registry_.GetGauge("adgraph_uptime_ms", "Pool uptime, milliseconds.");
  metric_jobs_per_sec_ = registry_.GetGauge(
      "adgraph_jobs_per_sec", "Completed-job throughput over the lifetime.");
  // One series per span sink: the trace window's ring and the per-job
  // SpanCaptures.  A nonzero value means a trace summary / flight record
  // is missing events (DESIGN.md §2.14).
  metric_trace_dropped_global_ = registry_.GetCounter(
      "adgraph_trace_dropped_spans_total",
      "Spans evicted from a trace sink before being read.",
      {{"track", "global"}});
  metric_trace_dropped_capture_ = registry_.GetCounter(
      "adgraph_trace_dropped_spans_total",
      "Spans evicted from a trace sink before being read.",
      {{"track", "capture"}});
  for (size_t i = 0; i < workers_.size(); ++i) {
    Worker& worker = *workers_[i];
    const obs::LabelSet id = {{"worker", std::to_string(i)},
                              {"device", worker.arch_name}};
    WorkerMetricHandles& m = worker.metrics;
    m.jobs[kCompleted] = registry_.GetCounter(
        "adgraph_jobs_completed_total", "Jobs finished OK.", id);
    m.jobs[kFailed] = registry_.GetCounter(
        "adgraph_jobs_failed_total", "Jobs that ended with a non-OK status.",
        id);
    m.jobs[kRejectedAdmission] = registry_.GetCounter(
        "adgraph_jobs_rejected_admission_total",
        "Jobs rejected by memory-aware admission control.", id);
    m.jobs[kShedDeadline] = registry_.GetCounter(
        "adgraph_jobs_shed_deadline_total",
        "Jobs shed at dequeue: queue-wait exceeded their deadline.", id);
    m.admission_headroom_bytes = registry_.GetGauge(
        "adgraph_admission_headroom_bytes",
        "Device memory still admittable (free bytes) after the last job.",
        id);
    m.cache_hits = registry_.GetCounter(
        "adgraph_cache_hits_total",
        "Graph residency cache: Acquire() served from device memory.", id);
    m.cache_misses = registry_.GetCounter(
        "adgraph_cache_misses_total",
        "Graph residency cache: Acquire() had to build and upload.", id);
    m.cache_evictions = registry_.GetCounter(
        "adgraph_cache_evictions_total",
        "Graph residency cache: entries evicted (LRU / for space).", id);
    m.cache_evicted_bytes = registry_.GetCounter(
        "adgraph_cache_evicted_bytes_total",
        "Graph residency cache: device bytes freed by eviction.", id);
    m.cache_stale_invalidated = registry_.GetCounter(
        "adgraph_cache_stale_invalidated_total",
        "Graph residency cache: stale epochs dropped after a mutation.", id);
    m.cache_resident_bytes = registry_.GetGauge(
        "adgraph_cache_resident_bytes",
        "Graph residency cache: device bytes currently cached.", id);
    m.busy_wall_ms = registry_.GetGauge(
        "adgraph_worker_busy_ms", "Wall time spent executing jobs.", id);
    m.modeled_ms = registry_.GetGauge(
        "adgraph_worker_modeled_ms",
        "Modeled device time of every job this worker ran.", id);
    m.utilization = registry_.GetGauge(
        "adgraph_worker_utilization",
        "busy_wall_ms / uptime, clamped to [0,1].", id);
    m.warp_inst = registry_.GetCounter(
        "adgraph_device_warp_inst_total",
        "Warp instructions issued by completed jobs (Table 6 Type 1).", id);
    m.dram_bytes = registry_.GetCounter(
        "adgraph_device_dram_bytes_total",
        "Modeled DRAM traffic (read+write bytes) of completed jobs.", id);
    m.l2_hits = registry_.GetCounter("adgraph_device_l2_hits_total",
                                     "L2 hits of completed jobs.", id);
    m.l2_misses = registry_.GetCounter("adgraph_device_l2_misses_total",
                                       "L2 misses of completed jobs.", id);
    m.gang_jobs = registry_.GetCounter(
        "adgraph_gang_jobs_total", "Gang jobs this worker drove to OK.", id);
    m.exchange_bytes = registry_.GetCounter(
        "adgraph_exchange_bytes_total",
        "Interconnect bytes moved by gang jobs this worker drove.", id);
    m.exchange_rounds = registry_.GetCounter(
        "adgraph_exchange_rounds_total",
        "Bulk-synchronous exchange rounds of gang jobs.", id);
    m.incremental_fallbacks = registry_.GetCounter(
        "adgraph_incremental_fallbacks_total",
        "Warm-started jobs that fell back to full recompute (deletions, "
        "trimmed history, algorithm mismatch, ...).",
        id);
    m.streamed_jobs = registry_.GetCounter(
        "adgraph_streamed_jobs_total",
        "Jobs admitted past a whole-graph reject and run via the "
        "out-of-core streamed path.",
        id);
    m.modeled_latency = registry_.GetHistogram(
        "adgraph_job_modeled_ms", "Modeled device time per completed job.",
        id, LatencyBuckets());
    m.wall_latency = registry_.GetHistogram(
        "adgraph_job_latency_ms",
        "Submit-to-done wall latency per completed job.", id,
        LatencyBuckets());
    m.queue_wait = registry_.GetHistogram(
        "adgraph_queue_wait_ms", "Queue wait before execution, every job.",
        id, LatencyBuckets());
  }
}

Scheduler::~Scheduler() { Shutdown(); }

std::vector<std::string> Scheduler::device_names() const {
  std::vector<std::string> names;
  names.reserve(workers_.size());
  for (const auto& worker : workers_) names.push_back(worker->arch_name);
  return names;
}

Result<std::future<JobOutcome>> Scheduler::Submit(JobSpec spec) {
  ADGRAPH_RETURN_NOT_OK(ValidateJobSpec(spec));
  if (spec.gang_devices > workers_.size()) {
    return Status::InvalidArgument(
        "gang of " + std::to_string(spec.gang_devices) +
        " devices exceeds the pool (" + std::to_string(workers_.size()) +
        " workers)");
  }
  if (!spec.arch_preference.empty()) {
    bool found = false;
    for (const auto& worker : workers_) {
      found |= worker->arch_name == spec.arch_preference;
    }
    if (!found) {
      return Status::NotFound("no device named '" + spec.arch_preference +
                              "' in the pool");
    }
  }

  std::unique_lock<std::mutex> lock(mutex_);
  // kUnavailable (not kInternal): the caller did nothing wrong — the pool
  // went away.  Both shutdown checks below return it so a Submit racing
  // Shutdown() gets one deterministic verdict whether it lost the race
  // before or during the backpressure wait.
  if (shutdown_) return Status::Unavailable("scheduler is shut down");
  if (queue_.size() >= options_.queue_capacity) {
    if (options_.overflow == OverflowPolicy::kReject) {
      metric_rejected_backpressure_->Increment();
      return Status::ResourceExhausted(
          "submission queue full (" +
          std::to_string(options_.queue_capacity) + " jobs queued)");
    }
    space_cv_.wait(lock, [this] {
      return shutdown_ || queue_.size() < options_.queue_capacity;
    });
    if (shutdown_) {
      // The blocked submission never entered the queue; nothing (admission
      // bytes, queue slot) is held on this path.
      return Status::Unavailable("scheduler shut down while waiting");
    }
  }

  PendingJob job;
  job.id = next_job_id_++;
  job.spec = std::move(spec);
  // Trace-context propagation (DESIGN.md §2.14): a submission that arrived
  // without an id (in-process callers) gets one here — the scheduler is
  // the outermost layer it ever crossed.  The flight recorder needs each
  // job's span tree, so give recorder-eligible jobs a capture too.
  if (job.spec.trace_id == 0) job.spec.trace_id = trace::MintTraceId();
  if (job.spec.capture == nullptr && options_.flight_recorder.enabled) {
    job.spec.capture = std::make_shared<trace::SpanCapture>();
  }
  job.enqueued_at = Clock::now();
  job.tenant = TenantStateLocked(job.spec);
  job.tenant->metric_submitted->Increment();
  // An idle tenant re-enters the fair-share race at the pool's current
  // virtual time — no banked credit from its quiet period.
  job.tenant->vtime = std::max(job.tenant->vtime, vtime_floor_);
  std::future<JobOutcome> future = job.promise.get_future();
  queue_.push_back(std::move(job));
  metric_submitted_->Increment();
  // Live (not just sampler-refreshed) queue depth, so saturation alert
  // rules see spikes between Snapshot() calls.
  metric_queue_depth_->Set(static_cast<double>(queue_.size()));
  // notify_all: the woken worker must also *match* the job's arch
  // preference, so waking just one could strand a pinned job.
  queue_cv_.notify_all();
  return future;
}

size_t Scheduler::FindRunnableLocked(const Worker& worker) const {
  // Workers neither running a job nor reserved by a running gang.  The
  // calling worker is idle, so available >= 1 unless a gang reserved it.
  const uint64_t available = workers_.size() - running_ - gang_reserved_;
  if (available == 0) return kNone;
  size_t best = kNone;
  for (size_t i = 0; i < queue_.size(); ++i) {
    const std::string& pref = queue_[i].spec.arch_preference;
    if (!pref.empty() && pref != worker.arch_name) continue;
    const uint64_t gang = std::max<uint32_t>(1, queue_[i].spec.gang_devices);
    // A gang needs its full complement of unreserved slots before it
    // starts; smaller jobs behind it may overtake in the meantime.
    if (gang > available) continue;
    if (best == kNone) {
      best = i;
      continue;
    }
    // Strict priority between classes, weighted fair share within one:
    // smaller tenant vtime wins, FIFO (earlier index) breaks ties.
    const JobSpec& cand = queue_[i].spec;
    const JobSpec& incumbent = queue_[best].spec;
    if (cand.priority != incumbent.priority) {
      if (cand.priority < incumbent.priority) best = i;
      continue;
    }
    if (queue_[i].tenant->vtime < queue_[best].tenant->vtime) best = i;
  }
  return best;
}

Scheduler::TenantState* Scheduler::TenantStateLocked(const JobSpec& spec) {
  // Keyed by the series label, so each tenant state owns its series alone.
  // "-" stands in for the anonymous tenant: a label value is never empty.
  const std::string name = spec.tenant.empty() ? "-" : spec.tenant;
  auto [it, inserted] = tenants_.try_emplace(name);
  TenantState& state = it->second;
  state.priority = spec.priority;
  if (inserted) {
    const obs::LabelSet id = {{"tenant", name}};
    state.metric_submitted = registry_.GetCounter(
        "adgraph_tenant_jobs_submitted_total",
        "Jobs this tenant got accepted into the queue.", id);
    state.metric_jobs[kCompleted] = registry_.GetCounter(
        "adgraph_tenant_jobs_completed_total",
        "Jobs this tenant finished OK.", id);
    state.metric_jobs[kFailed] = registry_.GetCounter(
        "adgraph_tenant_jobs_failed_total",
        "Jobs this tenant ended with a non-OK status.", id);
    state.metric_jobs[kRejectedAdmission] = registry_.GetCounter(
        "adgraph_tenant_jobs_rejected_total",
        "Jobs this tenant lost to memory-aware admission control.", id);
    state.metric_jobs[kShedDeadline] = registry_.GetCounter(
        "adgraph_tenant_jobs_shed_total",
        "Jobs this tenant had shed for a missed deadline.", id);
    state.metric_queue_wait = registry_.GetHistogram(
        "adgraph_tenant_queue_wait_ms",
        "Queue wait before execution (or shedding), per tenant and "
        "priority class.",
        {{"priority", std::to_string(spec.priority)}, {"tenant", name}},
        LatencyBuckets());
  }
  return &state;
}

void Scheduler::WorkerLoop(Worker* worker) {
  // The device is constructed *on the worker thread* and never escapes it:
  // the single-threaded vgpu::Device (and any rt::Stream a kernel wrapper
  // creates) stays confined to its owner, which is the whole concurrency
  // story of the pool.
  vgpu::Device device(*worker->slot.arch, worker->slot.options);
  // The residency cache shares the device's confinement: constructed after
  // it (so destroyed first, while the device can still free buffers) and
  // touched only from this thread.
  GraphCache cache(&device, options_.cache);
  worker->trace_track = trace::RegisterTrack("worker " + worker->arch_name);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    worker->memory_capacity_bytes = device.memory_capacity_bytes();
  }
  // Publish the idle-device headroom up front so a worker that never runs
  // a job exports its full capacity rather than a default 0.
  worker->metrics.admission_headroom_bytes->Set(
      static_cast<double>(device.memory_free_bytes()));
  // Cache stats are lifetime-absolute; the registry counters are
  // monotonic, so the worker keeps the last published values and adds the
  // delta after each job.  Thread-confined, like the cache itself.
  GraphCache::Stats published_cache;
  // Per-algorithm completion counters ({algo, worker, device} labels) are
  // registered lazily on first sight of each algorithm; the handle is then
  // memoized here so steady state never touches the registry lock.
  std::map<Algorithm, obs::Counter*> by_algo;
  // Per-job attribution histograms (DESIGN.md §2.14), one family per
  // JobProfile ratio with {algo, device, tenant} identity — registered
  // lazily per (algorithm, tenant) pair seen on this worker, memoized the
  // same way.
  struct JobProfileHandles {
    obs::Histogram* divergence = nullptr;
    obs::Histogram* gld_efficiency = nullptr;
    obs::Histogram* l2_hit = nullptr;
    obs::Histogram* occupancy = nullptr;
  };
  std::map<std::pair<Algorithm, std::string>, JobProfileHandles> by_profile;
  size_t worker_index = 0;
  for (size_t i = 0; i < workers_.size(); ++i) {
    if (workers_[i].get() == worker) worker_index = i;
  }

  for (;;) {
    PendingJob job;
    std::vector<std::pair<uint64_t, uint64_t>> invalidations;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait(lock, [this, worker] {
        return shutdown_ || FindRunnableLocked(*worker) != kNone;
      });
      if (shutdown_) return;
      invalidations.swap(worker->pending_invalidations);
      size_t index = FindRunnableLocked(*worker);
      job = std::move(queue_[index]);
      queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(index));
      running_ += 1;
      if (job.spec.gang_devices > 1) {
        gang_reserved_ += job.spec.gang_devices - 1;
      }
      // Advance the tenant's fair-share clock: this dequeue consumed one
      // weighted share.  The pre-increment vtime becomes the floor where
      // newly arriving tenants start.
      vtime_floor_ = std::max(vtime_floor_, job.tenant->vtime);
      job.tenant->vtime +=
          1.0 / std::max(job.spec.fair_weight, 1e-6);
      metric_queue_depth_->Set(static_cast<double>(queue_.size()));
      space_cv_.notify_one();
    }

    // Apply queued residency invalidations on the cache's owning thread
    // before this job stages anything (stale epochs can't be served either
    // way — the versioned key guarantees that — this frees their memory).
    for (const auto& [fp, keep] : invalidations) cache.Invalidate(fp, keep);

    const uint32_t gang_size = std::max<uint32_t>(1, job.spec.gang_devices);
    const Algorithm algo = job.spec.algorithm();
    std::promise<JobOutcome> promise = std::move(job.promise);
    TenantState* tenant = job.tenant;
    // Job identity, saved before the spec is consumed: the trace context
    // installed below stamps these onto every span this thread emits for
    // the job, and the flight recorder files the job under them.
    const uint64_t trace_id = job.spec.trace_id;
    const uint64_t wire_job_id = job.spec.wire_job_id;
    const uint64_t sched_job_id = job.id;
    const std::string tenant_name = job.spec.tenant;
    std::shared_ptr<trace::SpanCapture> capture = job.spec.capture;
    trace::ScopedTraceContext trace_scope(
        trace::TraceContext{trace_id, wire_job_id, sched_job_id, capture});
    JobOutcome outcome;
    const double queue_wait_ms = MsBetween(job.enqueued_at, Clock::now());
    if (job.spec.deadline_ms > 0 && queue_wait_ms > job.spec.deadline_ms) {
      // Deadline-based load shedding: the answer is already late, so spend
      // zero device time on it and fail fast — the caller may retry with a
      // fresh deadline against a less-loaded pool.
      outcome.job_id = job.id;
      outcome.tag = std::move(job.spec.tag);
      outcome.device_name = worker->arch_name;
      outcome.queue_wall_ms = queue_wait_ms;
      outcome.status = Status::DeadlineExceeded(
          "queue wait " + std::to_string(queue_wait_ms) +
          " ms exceeded the job's deadline of " +
          std::to_string(job.spec.deadline_ms) + " ms");
      if (trace::Enabled()) {
        trace::TraceEvent shed;
        shed.name = "shed:deadline";
        shed.category = "serve";
        shed.track = worker->trace_track;
        shed.ts_us = trace::ToUs(job.enqueued_at);
        shed.dur_us = trace::ToUs(Clock::now()) - shed.ts_us;
        shed.args.push_back({"job_id", std::to_string(job.id), true});
        shed.args.push_back(
            {"deadline_ms", std::to_string(job.spec.deadline_ms), true});
        trace::Emit(std::move(shed));
      }
    } else {
      outcome = Execute(worker, &device, &cache, std::move(job));
    }
    outcome.trace_id = trace_id;
    outcome.wire_job_id = wire_job_id;

    // Registry updates first — lock-free, and outside mutex_ so a
    // concurrent scrape never waits on the bookkeeping below.
    const Verdict verdict = Classify(outcome.status);
    WorkerMetricHandles& m = worker->metrics;
    m.queue_wait->Observe(outcome.queue_wall_ms);
    m.busy_wall_ms->Add(outcome.exec_wall_ms);
    m.modeled_ms->Add(outcome.modeled_ms);
    if (verdict == kCompleted) {
      m.modeled_latency->Observe(outcome.modeled_ms);
      m.wall_latency->Observe(outcome.queue_wall_ms + outcome.exec_wall_ms);
      if (gang_size > 1) {
        m.gang_jobs->Increment();
        m.exchange_bytes->Increment(outcome.exchange_bytes);
        m.exchange_rounds->Increment(outcome.exchange_rounds);
      }
      auto it = by_algo.find(algo);
      if (it == by_algo.end()) {
        obs::Counter* counter = registry_.GetCounter(
            "adgraph_jobs_by_algo_total", "Completed jobs per algorithm.",
            {{"algo", std::string(AlgorithmName(algo))},
             {"worker", std::to_string(worker_index)},
             {"device", worker->arch_name}});
        it = by_algo.emplace(algo, counter).first;
      }
      it->second->Increment();
      if (outcome.job_profile.num_kernels > 0) {
        auto key = std::make_pair(algo, tenant_name);
        auto pit = by_profile.find(key);
        if (pit == by_profile.end()) {
          const obs::LabelSet id = {
              {"algo", std::string(AlgorithmName(algo))},
              {"device", worker->arch_name},
              {"tenant", tenant_name.empty() ? "-" : tenant_name}};
          JobProfileHandles handles;
          handles.divergence = registry_.GetHistogram(
              "adgraph_job_divergent_branch_ratio",
              "Per-job divergent/executed branch ratio (Table 6).", id,
              obs::RatioBuckets());
          handles.gld_efficiency = registry_.GetHistogram(
              "adgraph_job_gld_efficiency",
              "Per-job global-load coalescing efficiency (requested / "
              "transferred bytes).",
              id, obs::RatioBuckets());
          handles.l2_hit = registry_.GetHistogram(
              "adgraph_job_l2_hit_rate", "Per-job L2 hit rate.", id,
              obs::RatioBuckets());
          handles.occupancy = registry_.GetHistogram(
              "adgraph_job_achieved_occupancy",
              "Per-job time-weighted achieved occupancy.", id,
              obs::RatioBuckets());
          pit = by_profile.emplace(key, handles).first;
        }
        const prof::JobProfile& jp = outcome.job_profile;
        pit->second.divergence->Observe(jp.divergent_branch_ratio);
        pit->second.gld_efficiency->Observe(jp.gld_efficiency);
        pit->second.l2_hit->Observe(jp.l2_hit_rate);
        pit->second.occupancy->Observe(jp.achieved_occupancy);
      }
    }
    // The queue-wait histogram alert rules watch per priority class; its
    // sum over the tenant's dequeued jobs is also the tenant's mean wait.
    tenant->metric_queue_wait->Observe(outcome.queue_wall_ms);
    // Live saturation signal: free device bytes right after the job (the
    // graph cache's resident entries count as used until evicted).
    m.admission_headroom_bytes->Set(
        static_cast<double>(device.memory_free_bytes()));
    {
      const GraphCache::Stats& cs = cache.stats();
      m.cache_hits->Increment(cs.hits - published_cache.hits);
      m.cache_misses->Increment(cs.misses - published_cache.misses);
      m.cache_evictions->Increment(cs.evictions - published_cache.evictions);
      m.cache_evicted_bytes->Increment(cs.bytes_evicted -
                                       published_cache.bytes_evicted);
      m.cache_stale_invalidated->Increment(cs.stale_invalidated -
                                           published_cache.stale_invalidated);
      m.cache_resident_bytes->Set(static_cast<double>(cs.resident_bytes));
      published_cache = cs;
    }

    // Flight-recorder candidacy (DESIGN.md §2.14): hand over the span tree
    // and profile; the recorder decides which trigger classes (if any)
    // retain the job.  Done outside mutex_ — the recorder has its own lock.
    if (flight_recorder_->enabled()) {
      FlightRecorder::JobRecord record;
      record.trace_id = trace_id;
      record.wire_job_id = wire_job_id;
      record.sched_job_id = sched_job_id;
      record.tag = outcome.tag;
      record.tenant = tenant_name;
      record.algorithm = std::string(AlgorithmName(algo));
      record.device = worker->arch_name;
      record.status = outcome.status;
      record.queue_wall_ms = outcome.queue_wall_ms;
      record.exec_wall_ms = outcome.exec_wall_ms;
      record.modeled_ms = outcome.modeled_ms;
      record.profile = outcome.job_profile;
      if (capture != nullptr) {
        record.spans = capture->Events();
        record.spans_dropped = capture->dropped();
      }
      flight_recorder_->Record(std::move(record));
    }
    if (capture != nullptr) {
      metric_trace_dropped_capture_->Increment(capture->dropped());
    }

    {
      std::lock_guard<std::mutex> lock(mutex_);
      running_ -= 1;
      // The job's verdict is counted in the same critical section that
      // stops counting it as running, so Snapshot() never sees it as both
      // or neither.
      m.jobs[verdict]->Increment();
      tenant->metric_jobs[verdict]->Increment();
      if (gang_size > 1) {
        gang_reserved_ -= gang_size - 1;
        // Freed slots may unblock queued jobs (including other gangs).
        queue_cv_.notify_all();
      }
      // A finished job frees a slot, which can make a queued gang runnable
      // for *other* idle workers — availability is part of their wait
      // predicate now, so they must be re-woken.
      if (!queue_.empty()) queue_cv_.notify_all();
      if (queue_.empty() && running_ == 0) idle_cv_.notify_all();
    }
    promise.set_value(std::move(outcome));
  }
}

JobOutcome Scheduler::Execute(Worker* worker, vgpu::Device* device,
                              GraphCache* cache, PendingJob job) {
  JobOutcome outcome;
  outcome.job_id = job.id;
  outcome.tag = std::move(job.spec.tag);
  outcome.device_name = worker->arch_name;
  Clock::time_point exec_start = Clock::now();
  outcome.queue_wall_ms = MsBetween(job.enqueued_at, exec_start);

  if (trace::Enabled()) {
    // The wait already happened, so the span is emitted retroactively with
    // explicit timestamps rather than through the RAII helper.
    trace::TraceEvent wait;
    wait.name = "queue_wait";
    wait.category = "serve";
    wait.track = worker->trace_track;
    wait.ts_us = trace::ToUs(job.enqueued_at);
    wait.dur_us = trace::ToUs(exec_start) - wait.ts_us;
    wait.args.push_back({"job_id", std::to_string(job.id), true});
    trace::Emit(std::move(wait));
  }

  trace::Span job_span(
      worker->trace_track,
      "job:" + std::string(AlgorithmName(job.spec.algorithm())), "serve");
  job_span.ArgNum("job_id", job.id);
  if (!outcome.tag.empty()) job_span.Arg("tag", outcome.tag);

  const JobSpec& spec = job.spec;
  core::AlgoSpec algo_spec{spec.algorithm(), spec.placement()};
  const bool gang = algo_spec.placement.kind == core::Placement::Kind::kGang;
  core::ResidentCsr self_pin;
  AdmissionDecision decision;
  if (gang) {
    // A gang runs on fresh devices, not this worker's, so there is nothing
    // to admit it against here; a mid-run OOM still resolves gracefully.
    job_span.ArgNum("gang_devices", static_cast<uint64_t>(spec.gang_devices));
  } else {
    // Pin the job's own resident graph (if any) before admission, so that
    // eviction-for-space can free every *other* unpinned entry but never
    // the one this job is about to read.  Not a hit: Acquire re-pins and
    // counts.
    if (cache != nullptr && cache->enabled()) {
      self_pin = cache->PinIfResident(*spec.graph, GraphVariantFor(spec));
    }
    {
      trace::Span admission_span(worker->trace_track, "admission", "serve");
      decision =
          CheckAdmission(*device, spec, options_.admission_headroom, cache);
      admission_span.ArgNum("estimated_bytes", decision.estimated_bytes);
      admission_span.ArgNum("resident_bytes", decision.resident_bytes);
      admission_span.ArgNum("charged_bytes", decision.charged_bytes);
      if (decision.evicted_bytes > 0) {
        admission_span.ArgNum("evicted_bytes", decision.evicted_bytes);
      }
      admission_span.Arg("admit", decision.admit ? "true" : "false");
    }
    outcome.estimated_bytes = decision.estimated_bytes;
    if (!decision.admit) {
      outcome.status = AdmissionError(decision);
      job_span.Arg("status", "rejected_admission");
      outcome.exec_wall_ms = MsBetween(exec_start, Clock::now());
      return outcome;
    }
    // Out-of-core tier (DESIGN.md §2.13): the whole graph never becomes
    // device-resident; admission charged only the streamed working set.
    if (decision.streamed) {
      algo_spec.placement = core::Placement::Streamed(spec.ooc_shard_bytes);
    }
  }
  const core::Placement& placement = algo_spec.placement;

  prof::Session session(device);
  double modeled_before = device->elapsed_ms();
  double transfer_before = device->transfer_ms();
  uint64_t hits_before = cache != nullptr ? cache->stats().hits : 0;
  core::GraphResidency* residency =
      (cache != nullptr && cache->enabled()) ? cache : nullptr;
  // The warm start is a value (DESIGN.md §2.12), so no graph lock is held
  // whichever path core::Run takes, and a fallback is reported, not silent.
  algo_spec.warm_start = spec.warm_start.get();
  core::RunReport report;
  Result<JobPayload> payload = core::Run(device, algo_spec, *spec.graph,
                                         spec.params, residency, &report);
  outcome.incremental_requested = spec.warm_start != nullptr;
  outcome.incremental = report.incremental.incremental;
  outcome.fallback_reason = report.incremental.fallback_reason;
  outcome.result_version = spec.graph->mutation_epoch();
  if (outcome.incremental_requested && !outcome.incremental) {
    worker->metrics.incremental_fallbacks->Increment();
    job_span.Arg("fallback", outcome.fallback_reason);
  }
  // A gang's kernels run on its own devices, so its modeled time is the
  // payload's (per-round max compute plus exchange), not this device's.
  outcome.modeled_ms = gang ? (payload.ok() ? core::ResultTimeMs(*payload) : 0)
                            : device->elapsed_ms() - modeled_before;
  outcome.modeled_transfer_ms = device->transfer_ms() - transfer_before;
  outcome.cache_hit = cache != nullptr && cache->stats().hits > hits_before;
  if (gang) {
    outcome.gang_devices = placement.gang_devices;
    outcome.exchange_bytes = report.exchange.bytes;
    outcome.exchange_rounds = report.exchange.rounds;
    outcome.exchange_ms = report.exchange.exchange_ms;
  } else if (placement.kind == core::Placement::Kind::kStreamed) {
    outcome.streamed = true;
    outcome.ooc_shards = report.staging.num_shards;
    outcome.ooc_staged_bytes = report.staging.staged_bytes;
    outcome.ooc_overlap_speedup = report.staging.overlap_speedup();
    worker->metrics.streamed_jobs->Increment();
  }
  if (payload.ok()) {
    outcome.status = Status::OK();
    outcome.payload = std::move(payload).value();
  } else if (payload.status().IsOutOfMemory()) {
    // The admission estimate was too optimistic (or, for a gang, there was
    // none) and the device allocator said no mid-run.  Still a graceful
    // per-job verdict: buffers are RAII-freed, the device stays
    // serviceable, the pool keeps going.
    outcome.status = Status::ResourceExhausted(
        "device OOM past admission (estimate " +
        std::to_string(decision.estimated_bytes) + " bytes): " +
        payload.status().message());
  } else {
    outcome.status = payload.status();
  }

  // Per-job attribution (DESIGN.md §2.14): profile this job's kernel
  // window *before* the counter reset below wipes the log.
  if (outcome.status.ok()) {
    outcome.job_profile = session.Finish();
    const vgpu::KernelCounters& kc = outcome.job_profile.counters;
    WorkerMetricHandles& m = worker->metrics;
    m.warp_inst->Increment(kc.warp_inst_issued);
    m.dram_bytes->Increment(kc.dram_read_bytes + kc.dram_write_bytes);
    m.l2_hits->Increment(kc.l2_hits);
    m.l2_misses->Increment(kc.l2_misses);
  }

  // Fresh profiling state for the next request; live allocations were
  // already released by the algorithm's RAII buffers.
  device->ResetCounters();

  outcome.exec_wall_ms = MsBetween(exec_start, Clock::now());
  if (options_.device_occupancy_floor_ms > 0 &&
      outcome.exec_wall_ms < options_.device_occupancy_floor_ms) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        options_.device_occupancy_floor_ms - outcome.exec_wall_ms));
    outcome.exec_wall_ms = MsBetween(exec_start, Clock::now());
  }
  if (job_span.active()) {
    job_span.Arg("status",
                 outcome.status.ok()
                     ? "ok"
                     : std::string(StatusCodeToString(outcome.status.code())));
    job_span.ArgNum("modeled_ms", outcome.modeled_ms);
    job_span.ArgNum("modeled_transfer_ms", outcome.modeled_transfer_ms);
    job_span.ArgNum("queue_wall_ms", outcome.queue_wall_ms);
    job_span.Arg("cache", outcome.cache_hit ? "hit" : "miss");
    if (gang) {
      job_span.ArgNum("exchange_bytes", outcome.exchange_bytes);
      job_span.ArgNum("exchange_rounds", outcome.exchange_rounds);
    } else if (outcome.streamed) {
      job_span.ArgNum("ooc_shards", static_cast<uint64_t>(outcome.ooc_shards));
      job_span.ArgNum("ooc_staged_bytes", outcome.ooc_staged_bytes);
    }
  }
  return outcome;
}

void Scheduler::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] {
    return (queue_.empty() && running_ == 0) || shutdown_;
  });
}

void Scheduler::InvalidateResidency(uint64_t fingerprint,
                                    uint64_t keep_min_epoch) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (shutdown_) return;
  for (auto& worker : workers_) {
    worker->pending_invalidations.emplace_back(fingerprint, keep_min_epoch);
  }
}

void Scheduler::Shutdown() {
  std::vector<PendingJob> orphans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
    while (!queue_.empty()) {
      orphans.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    queue_cv_.notify_all();
    space_cv_.notify_all();
    idle_cv_.notify_all();
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  if (sampler_) {
    // Workers are done: the final sample (and any alert transition it
    // causes) is complete, and observable in an open trace window.
    // Stop() also writes Options::metrics.path.
    sampler_->Stop();
  }
  for (PendingJob& job : orphans) {
    JobOutcome outcome;
    outcome.job_id = job.id;
    outcome.tag = std::move(job.spec.tag);
    outcome.status =
        Status::Unavailable("scheduler shut down before the job ran");
    job.promise.set_value(std::move(outcome));
  }
}

Scheduler::Verdict Scheduler::Classify(const Status& status) {
  if (status.ok()) return kCompleted;
  if (status.IsResourceExhausted()) return kRejectedAdmission;
  if (status.IsDeadlineExceeded()) return kShedDeadline;
  return kFailed;
}

prof::ServerStats Scheduler::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  prof::ServerStats stats;
  stats.jobs_submitted = metric_submitted_->Value();
  stats.jobs_rejected_backpressure = metric_rejected_backpressure_->Value();
  stats.jobs_queued = queue_.size();
  stats.jobs_running = running_;
  stats.uptime_ms = MsBetween(started_at_, Clock::now());
  // Pool-wide percentiles: merge the per-worker latency histograms
  // (identical bucket layouts) and interpolate.  Fixed memory regardless
  // of job count, at the price of bucket-resolution estimates — the trade
  // DESIGN.md §2.9 documents.
  obs::HistogramSnapshot modeled_merged;
  obs::HistogramSnapshot wall_merged;
  for (const auto& worker : workers_) {
    const WorkerMetricHandles& m = worker->metrics;
    modeled_merged.Merge(m.modeled_latency->Snapshot());
    wall_merged.Merge(m.wall_latency->Snapshot());
    prof::DeviceStats d;
    d.name = worker->arch_name;
    d.vendor = worker->slot.arch->vendor;
    d.jobs_completed = m.jobs[kCompleted]->Value();
    d.jobs_failed = m.jobs[kFailed]->Value();
    d.jobs_rejected = m.jobs[kRejectedAdmission]->Value();
    d.busy_wall_ms = m.busy_wall_ms->Value();
    d.modeled_ms = m.modeled_ms->Value();
    // Clamped: busy time is measured with a different clock granularity
    // than uptime, so the raw ratio can poke past 1.0 on short windows.
    d.utilization =
        stats.uptime_ms >= kMinUptimeMs
            ? std::clamp(d.busy_wall_ms / stats.uptime_ms, 0.0, 1.0)
            : 0;
    m.utilization->Set(d.utilization);
    d.memory_capacity_bytes = worker->memory_capacity_bytes;
    d.cache_hits = m.cache_hits->Value();
    d.cache_misses = m.cache_misses->Value();
    d.cache_resident_bytes =
        static_cast<uint64_t>(m.cache_resident_bytes->Value());
    stats.jobs_completed += d.jobs_completed;
    stats.jobs_failed += d.jobs_failed;
    stats.jobs_rejected_admission += d.jobs_rejected;
    stats.jobs_shed_deadline += m.jobs[kShedDeadline]->Value();
    stats.cache_hits += d.cache_hits;
    stats.cache_misses += d.cache_misses;
    stats.cache_evictions += m.cache_evictions->Value();
    stats.cache_bytes_evicted += m.cache_evicted_bytes->Value();
    stats.cache_resident_bytes += d.cache_resident_bytes;
    stats.cache_stale_invalidated += m.cache_stale_invalidated->Value();
    stats.gang_jobs_completed += m.gang_jobs->Value();
    stats.exchange_bytes_total += m.exchange_bytes->Value();
    stats.exchange_rounds_total += m.exchange_rounds->Value();
    stats.devices.push_back(std::move(d));
  }
  // Guard the rates against a zero/near-zero uptime (an immediate snapshot
  // after Create()): 0, not inf/NaN or an absurd spike.
  stats.jobs_per_sec =
      stats.uptime_ms >= kMinUptimeMs
          ? 1000.0 * static_cast<double>(stats.jobs_completed) /
                stats.uptime_ms
          : 0;
  stats.p50_modeled_ms = modeled_merged.Quantile(0.50);
  stats.p95_modeled_ms = modeled_merged.Quantile(0.95);
  stats.p99_modeled_ms = modeled_merged.Quantile(0.99);
  stats.p50_wall_ms = wall_merged.Quantile(0.50);
  stats.p95_wall_ms = wall_merged.Quantile(0.95);
  stats.p99_wall_ms = wall_merged.Quantile(0.99);
  // Registry gauges ride along with every snapshot: atomic stores, so the
  // const promise (and thread-safety) of Snapshot() holds.
  metric_queue_depth_->Set(static_cast<double>(stats.jobs_queued));
  metric_jobs_running_->Set(static_cast<double>(stats.jobs_running));
  metric_uptime_ms_->Set(stats.uptime_ms);
  metric_jobs_per_sec_->Set(stats.jobs_per_sec);
  // Dropped-span total of the trace window.  The source is absolute and
  // resets on every trace::Start(), so publish the delta against the
  // last-seen mirror — counters must only ever go up.
  const uint64_t global_now = trace::GlobalDropped();
  if (global_now < published_trace_dropped_global_) {
    published_trace_dropped_global_ = 0;  // ring restarted
  }
  metric_trace_dropped_global_->Increment(global_now -
                                          published_trace_dropped_global_);
  published_trace_dropped_global_ = global_now;
  // Tenant table — only when tenancy is in play; an all-anonymous run keeps
  // the pre-tenancy report output byte-for-byte.
  if (!(tenants_.size() == 1 && tenants_.begin()->first == "-")) {
    for (const auto& [name, t] : tenants_) {
      prof::TenantStats ts;
      ts.name = name;
      ts.priority = t.priority;
      ts.jobs_submitted = t.metric_submitted->Value();
      ts.jobs_completed = t.metric_jobs[kCompleted]->Value();
      ts.jobs_failed = t.metric_jobs[kFailed]->Value();
      ts.jobs_rejected = t.metric_jobs[kRejectedAdmission]->Value();
      ts.jobs_shed_deadline = t.metric_jobs[kShedDeadline]->Value();
      ts.queue_wait_ms_total = t.metric_queue_wait->Snapshot().sum;
      stats.tenants.push_back(std::move(ts));
    }
  }
  return stats;
}

std::map<std::string, double> Scheduler::PollMetrics() {
  // Snapshot() refreshes the registry gauges as a side effect, so the
  // sampler's scrape right after this call sees current values.
  prof::ServerStats stats = Snapshot();
  std::map<std::string, double> values;
  values["queue_depth"] = static_cast<double>(stats.jobs_queued);
  values["jobs_running"] = static_cast<double>(stats.jobs_running);
  values["jobs_per_sec"] = stats.jobs_per_sec;
  values["jobs_failed"] = static_cast<double>(stats.jobs_failed);
  values["jobs_shed"] = static_cast<double>(stats.jobs_shed_deadline);
  values["p95_latency_ms"] = stats.p95_wall_ms;
  values["p95_modeled_ms"] = stats.p95_modeled_ms;
  // Alert-rule input for trace-drop monitoring (see the sample rule in
  // README.md): total spans lost across all sinks so far.
  values["trace_dropped_spans"] = static_cast<double>(
      trace::GlobalDropped() + metric_trace_dropped_capture_->Value());
  double utilization = 0;
  for (const prof::DeviceStats& d : stats.devices) {
    utilization += d.utilization;
  }
  values["utilization"] =
      stats.devices.empty() ? 0 : utilization / stats.devices.size();
  // Published only once there is evidence: a `cache_hit_ratio < R` rule
  // must not fire on an idle pool that has served nothing yet.
  const uint64_t lookups = stats.cache_hits + stats.cache_misses;
  if (lookups > 0) {
    values["cache_hit_ratio"] =
        static_cast<double>(stats.cache_hits) / static_cast<double>(lookups);
  }
  return values;
}

std::vector<obs::SampleBatch> Scheduler::MetricsBatches() const {
  if (!sampler_) return {};
  return sampler_->Batches();
}

std::vector<obs::AlertEvent> Scheduler::MetricsAlertLog() const {
  if (!sampler_) return {};
  return sampler_->AlertLog();
}

uint64_t Scheduler::MetricsDropped() const {
  return sampler_ ? sampler_->dropped() : 0;
}

Status Scheduler::WriteMetrics(const std::string& path,
                               obs::ExportFormat format) const {
  if (!sampler_) {
    return Status::Unavailable(
        "metrics sampling is disabled (Options::metrics.enabled)");
  }
  return sampler_->WriteTo(path, format);
}

}  // namespace adgraph::serve
