#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

/// \file
/// Shared plumbing of the repository benchmark: run configuration, the
/// metric record a workload returns, percentiles, seeded input streams, and
/// the benchmark's own span tracer (spans recorded around every call the
/// benchmark makes into a library layer; the library itself is untouched).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <string_view>
#include <vector>

namespace adgraph::perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One invocation's settings (command-line flags).
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its Chrome trace-event JSON ("" = nowhere).
  std::string trace_out;
};

/// A metric value with its unit and the number of samples behind it.
struct Metric {
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

/// What a workload hands back to main() for printing.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// First few failure descriptions (printed to stderr).
  std::vector<std::string> failures;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Human-readable lines printed before the result (paper-shape line,
  /// sample-count notes).
  std::vector<std::string> notes;

  /// Counts one failed operation, described by `why`.
  void Fail(std::string why);
};

/// Nearest-rank quantile (q in [0,1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
/// How many of `values` lie strictly above `threshold`.
uint64_t CountAbove(const std::vector<double>& values, double threshold);
double Median(std::vector<double> values);
double Sum(const std::vector<double>& values);

/// Process peak resident set size in MiB.
double PeakRssMb();

/// Deterministic input stream: every random choice of a workload draws
/// from one of these, derived from the command-line seed and a fixed
/// per-purpose stream number.
std::mt19937_64 MakeRng(uint64_t seed, uint64_t stream);

/// One window of a timed phase: its wall duration and the caller-observed
/// latencies of the operations that completed in it.  Batch workloads use
/// one window per pass over their fixed operation list; the closed loops
/// use windows of equally many completions.
struct Window {
  double seconds = 0;
  std::vector<double> latencies_ms;
};

/// Splits the completions of a closed loop's timed phase (seconds since the
/// phase began, latency ms; completions after `phase_s`, during the drain,
/// are dropped) into `count` consecutive windows of equally many
/// completions.  A window lasts from the previous window's last completion
/// (or the phase start) to its own last completion.
std::vector<Window> CountWindows(
    std::vector<std::pair<double, double>> done_s_latency_ms, double phase_s,
    size_t count);

/// The end-to-end throughput and latency pair shared by every workload:
/// jobs_per_s, latency_p50_ms and latency_p95_ms are each the median over
/// the windows of that window's rate or percentile, so a transient stall
/// of the (shared) host moves a few windows, not the result.
void SetWindowMetrics(Outcome* out, const std::vector<Window>& windows);

/// Sets setup_s, the median of repeated set-up durations, and peak_rss_mb,
/// the process peak RSS as read (PeakRssMb) at the end of the timed phase —
/// before the result checks, whose reference runs are not the program's
/// footprint.
void SetSetupAndRss(Outcome* out, const std::vector<double>& setup_s,
                    double peak_rss_mb);

// ----------------------------------------------------------------- tracing

/// One closed span.  All spans of one operation share `op`; `parent` is the
/// id of the enclosing span on the same thread (0 for an operation root).
struct SpanRecord {
  std::string name;
  std::string layer;
  uint64_t op = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint32_t tid = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// \brief The benchmark's in-memory tracer.  Disabled in the untraced run
/// (a span then costs one branch); enabled in the traced run, where spans
/// are kept in memory and written out at exit.
class Tracer {
 public:
  static Tracer& Get();

  void Enable(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(); }

  /// Appends a closed span (called by Span).
  void Record(SpanRecord record);
  /// Records a span whose bounds the caller measured itself (operations
  /// that interleave on one thread, like pipelined wire requests); returns
  /// its id for use as a parent.
  uint64_t RecordSpan(std::string_view name, std::string_view layer,
                      uint64_t op, uint64_t parent, Clock::time_point start,
                      Clock::time_point end);
  /// Every recorded span, all threads.
  std::vector<SpanRecord> Spans() const;
  /// Per layer, the self time of its spans: each span's duration minus the
  /// time its child spans cover.
  std::map<std::string, double> LayerSelfMs() const;
  /// Writes Chrome trace-event JSON; false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  Tracer() = default;
  uint64_t NextIdLocked() { return next_id_++; }

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  uint64_t next_id_ = 1;  ///< guarded by mutex_
  int64_t epoch_ns_ = 0;  ///< guarded by mutex_
  friend class Span;
};

/// \brief RAII span.  A root span starts an operation (`op` != 0) on the
/// calling thread and decides whether the whole operation is recorded; nested spans inherit the thread's operation,
/// parent and that decision.  Always measures its own duration (ms()),
/// whether or not the tracer records it.
class Span {
 public:
  /// Child span of the thread's innermost open span.
  Span(std::string_view name, std::string_view layer);
  /// Operation root: `op` becomes the thread's current operation id, and
  /// the operation is recorded iff `record` (and the tracer is enabled).
  Span(std::string_view name, std::string_view layer, uint64_t op,
       bool record = true);
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span (idempotent) and returns its duration in ms.
  double End();
  double ms() const;

 private:
  void Open(std::string_view name, std::string_view layer, uint64_t op,
            bool root, bool record);

  Clock::time_point start_;
  Clock::time_point end_;
  bool open_ = true;
  bool recording_ = false;
  bool restore_ = false;  ///< this span installed thread context to undo
  SpanRecord record_;
  uint64_t saved_op_ = 0;
  uint64_t saved_parent_ = 0;
  bool saved_recording_ = false;
};

/// Operation id for op `index` of a run with `seed`: never 0, distinct per
/// (seed, index).  Sent as the SUBMIT "trace_id" on the wire workloads.
uint64_t OperationId(uint64_t seed, uint64_t index);

/// 16-digit lower-case hex (the wire's trace_id encoding).
std::string Hex64(uint64_t value);

}  // namespace adgraph::perfbench

#endif  // PERFBENCH_COMMON_H_
