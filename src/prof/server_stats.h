#ifndef ADGRAPH_PROF_SERVER_STATS_H_
#define ADGRAPH_PROF_SERVER_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace adgraph::prof {

/// \brief Per-device slice of a serving-pool snapshot.
///
/// One entry per worker/device of the pool (workers own their device
/// exclusively, so "device" and "worker" are interchangeable here).
struct DeviceStats {
  std::string name;               ///< arch name, e.g. "A100"
  std::string vendor;             ///< "NVIDIA" / "AMD-like"
  uint64_t jobs_completed = 0;    ///< jobs finished OK on this device
  uint64_t jobs_failed = 0;       ///< jobs that ended with a non-OK status
  uint64_t jobs_rejected = 0;     ///< admission-control rejections
  double busy_wall_ms = 0;        ///< host wall time spent executing jobs
  double modeled_ms = 0;          ///< summed modeled device (kernel) time
  /// busy_wall_ms / pool uptime, clamped to [0,1] — the fraction of wall
  /// time this device had a job resident.
  double utilization = 0;
  uint64_t memory_capacity_bytes = 0;
  // Graph residency cache (DESIGN.md §2.6) — this worker's private cache.
  uint64_t cache_hits = 0;            ///< Acquire() served from residency
  uint64_t cache_misses = 0;          ///< Acquire() had to build + upload
  uint64_t cache_resident_bytes = 0;  ///< device bytes currently cached
};

/// \brief Per-tenant slice of a serving-pool snapshot (multi-tenant QoS,
/// DESIGN.md §2.10).  One entry per tenant name seen by Submit(); the
/// anonymous tenant (jobs with no tenant set) reports as "-".
struct TenantStats {
  std::string name;
  uint32_t priority = 0;          ///< priority class of the tenant's jobs
  uint64_t jobs_submitted = 0;    ///< accepted into the queue
  uint64_t jobs_completed = 0;    ///< finished OK
  uint64_t jobs_failed = 0;       ///< non-OK, non-shed, non-admission
  uint64_t jobs_rejected = 0;     ///< admission-control rejections
  /// Shed with kDeadlineExceeded: queue-wait passed the job's deadline
  /// before a worker could take it.
  uint64_t jobs_shed_deadline = 0;
  /// Summed queue wait of dequeued jobs (the adgraph_tenant_queue_wait_ms
  /// histogram sum).
  double queue_wait_ms_total = 0;
};

/// \brief Point-in-time snapshot of a serving pool (`serve::Scheduler`),
/// shaped like the summary block a production inference/analytics server
/// exports to its metrics endpoint.  Every count is read from the pool's
/// obs::Registry series (DESIGN.md §2.9), so this struct and a Prometheus
/// scrape report the same numbers.
///
/// Defined in prof (not serve) so the report layer can format it without a
/// dependency cycle: serve fills it, prof renders it.
struct ServerStats {
  uint64_t jobs_submitted = 0;    ///< accepted into the queue
  uint64_t jobs_completed = 0;    ///< finished with an OK status
  uint64_t jobs_failed = 0;       ///< finished with a non-OK status
  /// Rejected by memory-aware admission control (kResourceExhausted).
  uint64_t jobs_rejected_admission = 0;
  /// Refused at Submit() because the bounded queue was full under the
  /// reject overflow policy.
  uint64_t jobs_rejected_backpressure = 0;
  /// Shed at dequeue with kDeadlineExceeded (queue-wait > deadline).
  uint64_t jobs_shed_deadline = 0;
  uint64_t jobs_queued = 0;       ///< waiting in the queue right now
  uint64_t jobs_running = 0;      ///< resident on a device right now
  double uptime_ms = 0;           ///< wall time since the pool started
  /// Wall-clock completed-jobs throughput over the pool lifetime.
  double jobs_per_sec = 0;
  // Latency distribution over completed jobs.  Estimated from the
  // fixed-memory exponential-bucket histograms (obs::Histogram) the
  // scheduler keeps per worker — bounded state even for million-job runs.
  double p50_modeled_ms = 0;      ///< median modeled device time per job
  double p95_modeled_ms = 0;
  double p99_modeled_ms = 0;
  double p50_wall_ms = 0;         ///< median submit->done wall latency
  double p95_wall_ms = 0;
  double p99_wall_ms = 0;
  // Graph residency cache, summed over the per-device caches.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_bytes_evicted = 0;
  uint64_t cache_resident_bytes = 0;
  uint64_t cache_stale_invalidated = 0;
  // Gang (multi-device partitioned) execution, summed over workers.
  uint64_t gang_jobs_completed = 0;
  uint64_t exchange_bytes_total = 0;   ///< interconnect traffic of gang jobs
  uint64_t exchange_rounds_total = 0;  ///< bulk-synchronous exchange rounds
  std::vector<DeviceStats> devices;
  /// Per-tenant accounting, sorted by tenant name; empty when every job was
  /// anonymous (keeps pre-tenancy report output unchanged).
  std::vector<TenantStats> tenants;
};

}  // namespace adgraph::prof

#endif  // ADGRAPH_PROF_SERVER_STATS_H_
