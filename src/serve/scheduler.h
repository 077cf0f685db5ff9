#ifndef ADGRAPH_SERVE_SCHEDULER_H_
#define ADGRAPH_SERVE_SCHEDULER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.h"
#include "obs/sampler.h"
#include "prof/server_stats.h"
#include "serve/flight_recorder.h"
#include "serve/graph_cache.h"
#include "serve/job.h"
#include "util/status.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"

namespace adgraph::serve {

/// \brief Thread-pool-backed job scheduler over a pool of simulated
/// devices — the layer that turns the kernel library into an analytics
/// service (Gunrock/Groute-style dispatch, DESIGN.md §2.4).
///
/// Concurrency model: one worker thread per device slot; each worker
/// *exclusively owns* its vgpu::Device (constructed on the worker thread),
/// so the single-threaded device simulator never sees concurrent calls.
/// Jobs cross threads only as immutable JobSpec values in and JobOutcome
/// values out, through a bounded, mutex-protected queue.
///
/// Lifecycle: Create() spins up the workers; the destructor (or Shutdown())
/// drains nothing — queued jobs are resolved with an error; call Drain()
/// first to finish outstanding work.
class Scheduler {
 public:
  /// One device slot = one worker thread owning one simulated GPU.
  struct DeviceSlot {
    const vgpu::ArchConfig* arch = nullptr;
    vgpu::Device::Options options;
  };

  /// What Submit() does when the bounded queue is full.
  enum class OverflowPolicy {
    kBlock,   ///< block the submitter until space frees up (backpressure)
    kReject,  ///< fail the Submit() with kResourceExhausted immediately
  };

  struct Options {
    /// Device pool; empty = one device per paper GPU (Z100, V100, Z100L,
    /// A100 — Table 3 order).
    std::vector<DeviceSlot> devices;
    /// Bounded submission queue capacity (jobs waiting, not running).
    size_t queue_capacity = 64;
    OverflowPolicy overflow = OverflowPolicy::kBlock;
    /// Admission-control estimate multiplier (>1 = more conservative).
    double admission_headroom = 1.0;
    /// Emulated device occupancy: each job holds its device for at least
    /// this many wall milliseconds (the host worker sleeps out the
    /// remainder, as a host thread waiting on a real asynchronous GPU
    /// would).  0 = off.  Throughput experiments use this so wall-clock
    /// scaling reflects device-pool parallelism rather than the host cost
    /// of functional simulation (EXPERIMENTS.md; the simulator burns host
    /// CPU where real hardware would idle the host).
    double device_occupancy_floor_ms = 0;
    /// Per-worker graph residency cache (DESIGN.md §2.6).  Each worker
    /// owns one GraphCache beside its device; disable via `cache.enabled`
    /// for the upload-per-run behavior (results are byte-identical either
    /// way).
    GraphCache::Options cache;
    /// Live metrics (DESIGN.md §2.9).  The labeled registry is always on —
    /// worker-side updates are relaxed atomics, and the latency histograms
    /// double as the ServerStats percentile source — but the background
    /// sampler thread, its time-series ring, the alert-rule engine and the
    /// shutdown export only exist when `metrics.enabled`.
    obs::SamplerOptions metrics;
    /// Slow-job flight recorder: retains the K worst jobs per trigger
    /// class (latency / non-OK status / alert firing) with their full span
    /// tree and JobProfile — see FlightRecorder::Options.
    FlightRecorder::Options flight_recorder;
  };

  /// Builds the pool and starts one worker per device.  Fails on an empty
  /// effective pool or duplicate-free nonsense like a null arch.
  static Result<std::unique_ptr<Scheduler>> Create(Options options);

  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Submits a job.  On success the future resolves with the job's
  /// JobOutcome — *always*, even when the job itself fails or is rejected
  /// by admission control (outcome.status carries the verdict).
  ///
  /// Submit itself fails only for malformed specs (kInvalidArgument,
  /// including a gang larger than the pool), an arch preference naming no
  /// pooled device (kNotFound), a full queue under OverflowPolicy::kReject
  /// (kResourceExhausted), or a shut-down pool (kUnavailable) — the last
  /// deterministically, whether the shutdown happened before Submit or
  /// while Submit was blocked waiting for queue space.
  Result<std::future<JobOutcome>> Submit(JobSpec spec);

  /// Blocks until every accepted job has completed and the queue is empty.
  void Drain();

  /// Asks every worker to drop cached residency for `fingerprint` (all
  /// epochs older than `keep_min_epoch`).  Caches are worker-thread-owned,
  /// so the request is queued here and each worker applies it on its own
  /// thread before dequeuing its next job — i.e. any job submitted after
  /// this call observes the invalidation.  The net front door calls this
  /// with the mutated graph's family fingerprint after a MUTATE.
  void InvalidateResidency(uint64_t fingerprint,
                           uint64_t keep_min_epoch = ~uint64_t{0});

  /// Stops the workers: waits for in-flight jobs, fails the still-queued
  /// ones with kUnavailable.  Idempotent; the destructor calls it.
  void Shutdown();

  /// Point-in-time statistics snapshot (thread-safe): a view of the
  /// metrics_registry() series plus the queue and running-job state, so it
  /// cannot disagree with a scrape.  Taken under mutex_, the lock Submit()
  /// and the post-job bookkeeping also count under, so submitted == queued
  /// + running + completed + failed + rejected_admission + shed_deadline.
  prof::ServerStats Snapshot() const;

  /// The live metric registry (always populated: per-worker job/cache/
  /// kernel-counter series, latency histograms, build_info).  Thread-safe
  /// to Scrape() at any time; the uptime, throughput, running-job and
  /// utilization gauges are refreshed by Snapshot(), so call that first
  /// for up-to-the-instant values of those.
  const obs::Registry& metrics_registry() const { return registry_; }
  /// Mutable registry access for co-located layers (the net front door
  /// registers its per-tenant session/quota series here so one scrape
  /// covers the whole service).  Same thread-safety as the const accessor.
  obs::Registry* mutable_metrics_registry() { return &registry_; }

  /// Time-series batches collected by the sampler, oldest first; empty
  /// when Options::metrics was disabled.  Thread-safe.
  std::vector<obs::SampleBatch> MetricsBatches() const;
  /// Alert transitions since startup, in firing order.  Thread-safe.
  std::vector<obs::AlertEvent> MetricsAlertLog() const;
  /// Sample batches overwritten by the bounded ring.
  uint64_t MetricsDropped() const;
  /// On-demand export of the sampled series (kUnavailable when metrics
  /// sampling is disabled; Shutdown() also writes Options::metrics.path).
  Status WriteMetrics(const std::string& path, obs::ExportFormat format) const;

  size_t num_workers() const { return workers_.size(); }
  /// Arch names of the pooled devices, worker order.
  std::vector<std::string> device_names() const;

  /// The slow-job flight recorder (always constructed; inert when
  /// Options::flight_recorder.enabled is false).  Thread-safe — the net
  /// front door's INSPECT handler reads it while workers record.
  FlightRecorder* flight_recorder() const { return flight_recorder_.get(); }

 private:
  using Clock = std::chrono::steady_clock;

  struct TenantState;

  struct PendingJob {
    uint64_t id = 0;
    JobSpec spec;
    std::promise<JobOutcome> promise;
    Clock::time_point enqueued_at;
    /// Resolved once in Submit() under mutex_ (map nodes are stable), so
    /// workers update tenant series lock-free after execution.
    TenantState* tenant = nullptr;
  };

  /// How a finished job is counted; Classify() in scheduler.cc maps a
  /// status here, and the value indexes the verdict counter arrays below.
  enum Verdict : size_t {
    kCompleted,
    kRejectedAdmission,
    kShedDeadline,
    kFailed,
    kNumVerdicts
  };

  /// Registry handles of one worker's labeled series, resolved once in
  /// Create() (labels {worker=i, device=arch}); updates afterwards are
  /// lock-free atomics.  These series are the only store of the worker's
  /// counts: Snapshot() reads them back.
  struct WorkerMetricHandles {
    /// Indexed by Verdict; bumped under mutex_ together with running_.
    std::array<obs::Counter*, kNumVerdicts> jobs{};
    /// Live admission headroom: device free bytes after the last job — the
    /// saturation signal tenant alert rules watch (DESIGN.md §2.10).
    obs::Gauge* admission_headroom_bytes = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* cache_misses = nullptr;
    obs::Counter* cache_evictions = nullptr;
    obs::Counter* cache_evicted_bytes = nullptr;
    obs::Counter* cache_stale_invalidated = nullptr;
    obs::Gauge* cache_resident_bytes = nullptr;
    obs::Gauge* busy_wall_ms = nullptr;
    obs::Gauge* modeled_ms = nullptr;
    obs::Gauge* utilization = nullptr;
    // Per-job aggregated kernel counters (vgpu::KernelCounters), the
    // instruction-rate surface of paper Table 6.
    obs::Counter* warp_inst = nullptr;
    obs::Counter* dram_bytes = nullptr;
    obs::Counter* l2_hits = nullptr;
    obs::Counter* l2_misses = nullptr;
    // Gang jobs completed OK and their partitioned-exchange traffic.
    obs::Counter* gang_jobs = nullptr;
    obs::Counter* exchange_bytes = nullptr;
    obs::Counter* exchange_rounds = nullptr;
    /// Warm-started jobs that fell back to full recompute (§2.12) — the
    /// silent-fallback regression signal satellite dashboards alert on.
    obs::Counter* incremental_fallbacks = nullptr;
    /// Jobs admitted past a whole-graph kResourceExhausted and run via the
    /// out-of-core streamed path (§2.13).
    obs::Counter* streamed_jobs = nullptr;
    obs::Histogram* modeled_latency = nullptr;
    obs::Histogram* wall_latency = nullptr;
    obs::Histogram* queue_wait = nullptr;
  };

  struct Worker {
    explicit Worker(DeviceSlot s) : slot(std::move(s)) {}
    DeviceSlot slot;
    std::string arch_name;       ///< fixed at Create(); readable lock-free
    uint64_t trace_track = 0;    ///< set and read on the worker thread only
    WorkerMetricHandles metrics; ///< fixed at Create(); atomically updated
    std::thread thread;
    // --- owned by mutex_ ---
    uint64_t memory_capacity_bytes = 0;
    /// Residency invalidations queued by InvalidateResidency(), drained on
    /// the worker thread before the next dequeue (cache is thread-owned).
    std::vector<std::pair<uint64_t, uint64_t>> pending_invalidations;
  };

  /// Per-tenant fair-share state (multi-tenant QoS, DESIGN.md §2.10).
  /// priority and vtime are owned by mutex_; the obs handles, which hold
  /// the tenant's counts, are registered once (first Submit naming the
  /// tenant) and updated lock-free from worker threads afterwards.
  struct TenantState {
    uint32_t priority = 0;
    /// Weighted-fair-queue virtual time: bumped by 1/weight per dequeued
    /// job, floored at the pool's vtime floor on (re-)arrival so an idle
    /// tenant cannot bank unbounded credit.
    double vtime = 0;
    // Registered lazily in Submit(); stable for the scheduler's lifetime.
    obs::Counter* metric_submitted = nullptr;
    /// Indexed by Verdict; bumped under mutex_ like the worker's array.
    std::array<obs::Counter*, kNumVerdicts> metric_jobs{};
    obs::Histogram* metric_queue_wait = nullptr;
  };

  explicit Scheduler(Options options);

  /// The one status-to-verdict mapping every job count goes through.
  static Verdict Classify(const Status& status);

  void WorkerLoop(Worker* worker);
  /// Runs one job in its placement (admission + one core::Run or
  /// RunIncremental call + profiling); never throws, always returns a
  /// resolved outcome.  A gang runs on fresh devices like the worker's.
  JobOutcome Execute(Worker* worker, vgpu::Device* device, GraphCache* cache,
                     PendingJob job);
  /// Index of the queued job this worker should take next, or npos.  A job
  /// is *runnable* when its arch preference matches and its gang fits the
  /// unreserved workers; among runnable jobs the pick is by priority class
  /// (strictly: lower class first), then by the owning tenant's fair-share
  /// virtual time (smallest first), then FIFO.
  size_t FindRunnableLocked(const Worker& worker) const;

  /// The tenant-state node for `spec`'s tenant, creating (and registering
  /// its metric series) on first sight.  Requires mutex_ held.
  TenantState* TenantStateLocked(const JobSpec& spec);

  /// Registers build_info (first family of every scrape) and every
  /// per-worker series; called from Create() before any thread starts.
  void RegisterMetrics();
  /// Sampler tick: refreshes the gauges via Snapshot() and returns the
  /// alert-input values (queue_depth, p95_latency_ms, cache_hit_ratio,
  /// utilization, ...).
  std::map<std::string, double> PollMetrics();

  Options options_;
  std::vector<std::unique_ptr<Worker>> workers_;

  /// Live metric registry — always constructed; the serve hot path updates
  /// handles into it lock-free.  Declared before sampler_ (construction
  /// order) and destroyed after it.
  obs::Registry registry_;
  // Pool-global handles (registered in Create()).
  obs::Counter* metric_submitted_ = nullptr;
  obs::Counter* metric_rejected_backpressure_ = nullptr;
  obs::Gauge* metric_queue_depth_ = nullptr;
  obs::Gauge* metric_jobs_running_ = nullptr;
  obs::Gauge* metric_uptime_ms_ = nullptr;
  obs::Gauge* metric_jobs_per_sec_ = nullptr;
  /// Background sampler; non-null iff options_.metrics.enabled.  Started
  /// after the workers in Create(), stopped after they join in Shutdown()
  /// (so alert instants from the final sample land in an open trace
  /// window).
  std::unique_ptr<obs::Sampler> sampler_;
  /// Trace track carrying alert instant events; registered lazily with the
  /// first alert transition.
  std::atomic<uint64_t> alerts_track_{0};
  /// Slow-job flight recorder (DESIGN.md §2.14); always non-null.
  std::unique_ptr<FlightRecorder> flight_recorder_;
  // Dropped-span counters per sink ("track" label: global / capture).
  // Workers bump the capture series directly; the global source is an
  // absolute total inside trace/, so Snapshot() publishes its delta
  // against the mirror below (owned by mutex_).
  obs::Counter* metric_trace_dropped_global_ = nullptr;
  obs::Counter* metric_trace_dropped_capture_ = nullptr;

  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;  ///< workers: work available/shutdown
  std::condition_variable space_cv_;  ///< submitters: queue has space
  std::condition_variable idle_cv_;   ///< Drain(): everything finished
  std::deque<PendingJob> queue_;
  bool shutdown_ = false;
  uint64_t next_job_id_ = 1;
  Clock::time_point started_at_;
  // Last-published dropped-span total of the trace window (owned by
  // mutex_, see the counter handles above).  Mutable for the same reason
  // the gauges are settable from Snapshot(): publishing is observable side
  // bookkeeping, not state.
  mutable uint64_t published_trace_dropped_global_ = 0;

  uint64_t running_ = 0;  ///< jobs dequeued and not yet counted (mutex_)
  /// Tenant accounting, keyed by tenant label ("-" = anonymous).  Node
  /// pointers are handed to PendingJob (std::map nodes are stable), so the
  /// map itself is only mutated under mutex_.
  std::map<std::string, TenantState> tenants_;
  /// Fair-share virtual-time floor: the pre-increment vtime of the most
  /// recently dequeued tenant.  Arriving (previously idle) tenants start
  /// here instead of at their stale — unfairly low — old vtime.
  double vtime_floor_ = 0;
  /// Worker slots held by running gang jobs beyond the slot of the worker
  /// driving each gang (a gang of N reserves N-1 extra slots, so pool
  /// capacity modeling stays honest while one thread simulates N devices).
  uint64_t gang_reserved_ = 0;
  // Latency percentiles come from the per-worker obs::Histogram handles
  // (fixed memory for million-job runs), merged in Snapshot().
};

}  // namespace adgraph::serve

#endif  // ADGRAPH_SERVE_SCHEDULER_H_
