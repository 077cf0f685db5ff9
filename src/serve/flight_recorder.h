#ifndef ADGRAPH_SERVE_FLIGHT_RECORDER_H_
#define ADGRAPH_SERVE_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "prof/metrics.h"
#include "trace/trace.h"
#include "util/status.h"

namespace adgraph::serve {

/// \brief Slow-job flight recorder (DESIGN.md §2.14): a bounded ring of
/// the K worst jobs per trigger class, retaining each job's full span
/// tree (its trace::SpanCapture contents) and its prof::JobProfile even
/// after the global trace ring has long overwritten the job's events.
///
/// Trigger classes:
///   - "latency": completed jobs, ranked by wall time (queue + exec).
///     With `latency_threshold_ms` > 0 only jobs at/above the threshold
///     compete; at 0 every job competes, so the K slowest are always
///     retained.
///   - "status": jobs that finished with a non-OK status (rejections,
///     shed deadlines, device OOM, validation failures).
///   - "alert": jobs that completed while at least one metrics alert rule
///     was firing — the "what was running when the pager went off" view.
///
/// One job can qualify for several classes; it is stored once and listed
/// under each.  All methods are thread-safe (workers record concurrently,
/// the INSPECT handler reads concurrently).
class FlightRecorder {
 public:
  struct Options {
    /// Master switch; false = Record() is a no-op and nothing is retained.
    bool enabled = true;
    /// K: worst jobs retained per trigger class.
    size_t per_class_capacity = 8;
    /// Latency-class admission threshold, milliseconds of wall time
    /// (queue + exec).  0 = every job competes for a latency slot.
    double latency_threshold_ms = 0;
  };

  /// Everything retained about one recorded job.
  struct JobRecord {
    uint64_t trace_id = 0;
    uint64_t wire_job_id = 0;   ///< front-door id (0 = in-process submit)
    uint64_t sched_job_id = 0;  ///< scheduler id
    std::string tag;
    std::string tenant;
    std::string algorithm;
    std::string device;
    Status status;
    double queue_wall_ms = 0;
    double exec_wall_ms = 0;
    double modeled_ms = 0;
    /// Trigger classes that retained this record ("latency", "status",
    /// "alert") — filled by Record().
    std::vector<std::string> triggers;
    prof::JobProfile profile;
    /// The job's span tree: wire -> queue -> admission -> engine rounds ->
    /// kernels, copied out of the job's SpanCapture.
    std::vector<trace::TraceEvent> spans;
    uint64_t spans_dropped = 0;  ///< capture overflow (newest-dropped)

    double wall_ms() const { return queue_wall_ms + exec_wall_ms; }
  };

  explicit FlightRecorder(Options options);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  bool enabled() const { return options_.enabled; }
  const Options& options() const { return options_; }

  /// Classifies and (maybe) retains `record`.  Jobs qualifying for no
  /// class, and all jobs when disabled, are dropped.
  void Record(JobRecord record);

  /// Alert-rule transition feed from the metrics sampler: the recorder
  /// keeps a count of currently-firing rules; jobs completing while it is
  /// nonzero qualify for the "alert" class.
  void NoteAlert(bool firing);
  uint64_t alerts_active() const {
    return alerts_active_.load(std::memory_order_relaxed);
  }

  /// All retained records (deduplicated across classes), worst wall time
  /// first.  Records are immutable once retained; the shared_ptr keeps a
  /// returned record valid even if the ring evicts it concurrently.
  std::vector<std::shared_ptr<const JobRecord>> Records() const;

  /// Lookup by the id a caller actually holds; null when not retained.
  std::shared_ptr<const JobRecord> FindByWireId(uint64_t wire_job_id) const;
  std::shared_ptr<const JobRecord> FindBySchedId(uint64_t sched_job_id) const;
  std::shared_ptr<const JobRecord> FindByTraceId(uint64_t trace_id) const;

 private:
  using RecordPtr = std::shared_ptr<const JobRecord>;

  /// Inserts into one class ring, evicting the *least bad* (smallest wall
  /// time) record when the ring exceeds per_class_capacity.  Requires
  /// mutex_ held.
  void InsertLocked(std::vector<RecordPtr>* ring, const RecordPtr& record);

  Options options_;
  std::atomic<uint64_t> alerts_active_{0};
  mutable std::mutex mutex_;
  std::vector<RecordPtr> by_latency_;
  std::vector<RecordPtr> by_status_;
  std::vector<RecordPtr> by_alert_;
};

}  // namespace adgraph::serve

#endif  // ADGRAPH_SERVE_FLIGHT_RECORDER_H_
