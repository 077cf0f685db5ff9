#ifndef ADGRAPH_TRACE_TRACE_H_
#define ADGRAPH_TRACE_TRACE_H_

/// \file
/// Low-overhead structured span tracing across the whole stack
/// (DESIGN.md §2.5).
///
/// Every layer emits *complete spans* — named intervals with a start
/// timestamp, a duration, a track and optional key/value args:
///
///   - `vgpu::Device`: one span per kernel launch (with the KernelStats
///     cycle breakdown attached as args) and per host<->device copy;
///   - `rt::Stream`: launch / record / synchronize;
///   - `core/`: one span per algorithm entry point, child spans per
///     iteration or phase (e.g. BFS top-down vs bottom-up sweeps);
///   - `serve::Scheduler`: queue-wait, admission and execute spans on one
///     track per worker thread.
///
/// Tracks are timelines in the exported view: every simulated device gets
/// its own track, every serve worker thread another — loading the Chrome
/// trace-event JSON into chrome://tracing or Perfetto reproduces the
/// paper's Figure 7/8 coarse-grained timelines for *any* run.
///
/// Two kinds of sinks receive events:
///   - the process's one trace window, a bounded ring opened by Start()
///     and closed by Stop(), which writes the Chrome JSON (what every
///     `adgraph_cli --trace file.json` mode uses), and
///   - per-job SpanCaptures installed with ScopedTraceContext (what the
///     serve flight recorder retains).
///
/// Overhead contract: with no sink active, every instrumentation site
/// reduces to a single relaxed atomic load (`Enabled()` returning false);
/// the compiled-in-but-disabled cost is <5% on bench_micro.  While the
/// window is open, emission takes one global mutex — serializing writers
/// is what keeps the ring buffer ThreadSanitizer-clean under the serve
/// pool.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace adgraph::trace {

/// Configuration of the trace window.
struct TraceOptions {
  /// If non-empty, Stop() writes the Chrome trace-event JSON here.
  std::string path;
  /// Ring capacity in events; the oldest events are dropped (and counted)
  /// once the window holds this many.
  size_t ring_capacity = 1 << 16;
};

/// One key/value annotation on a span.  Numbers are kept unquoted in the
/// exported JSON so Perfetto can aggregate them.
struct TraceArg {
  std::string key;
  std::string value;
  bool is_number = false;
};

/// One event: a complete span ("ph":"X" in the Chrome trace-event format)
/// or, when `phase` is 'i', an instant marker ("ph":"i", zero duration) —
/// what the metrics alert engine drops onto its `alerts` track.
struct TraceEvent {
  std::string name;
  std::string category;  ///< "kernel", "memcpy", "stream", "algo", "phase", "serve", "alert"
  uint64_t track = 0;    ///< from RegisterTrack(); 0 = the host track
  double ts_us = 0;      ///< start, microseconds since the trace epoch
  double dur_us = 0;     ///< 0 for instants
  char phase = 'X';      ///< 'X' complete span, 'i' instant event
  std::vector<TraceArg> args;
};

/// Microseconds since the process-wide trace epoch (first use).
double NowUs();
/// Converts a steady_clock time_point to trace-epoch microseconds.
double ToUs(std::chrono::steady_clock::time_point tp);

/// Registers a named timeline and returns its id.  Duplicate names get a
/// " #n" suffix so two A100 devices stay distinguishable.  Thread-safe;
/// tracks are process-lifetime (ids are never reused).
uint64_t RegisterTrack(const std::string& name);

/// Names of all registered tracks, indexed by track id.
std::vector<std::string> TrackNames();

/// True iff at least one sink is active for the calling thread: the trace
/// window or a per-job SpanCapture installed via ScopedTraceContext.  One
/// relaxed atomic load plus one thread-local read — the fast-path guard of
/// every emission site.
bool Enabled();

/// Routes one event to every active sink.  When the calling thread carries
/// a trace context (ScopedTraceContext), the job's identity args
/// (`trace_id`, `wire_job_id`, `sched_job_id`) are stamped onto the event
/// first and the event is also appended to the context's SpanCapture.
/// No-op when nothing is active.
void Emit(TraceEvent event);

/// Emits an instant marker ("ph":"i") at the current time on `track`; the
/// optional numeric args land unquoted, Perfetto-aggregatable.  No-op when
/// tracing is disabled.
void EmitInstant(uint64_t track, std::string name, std::string category,
                 std::vector<TraceArg> args = {});

// ---------------------------------------------------------------------------
// Process-global window
// ---------------------------------------------------------------------------

/// Opens the trace window; a process holds one at a time, so a second
/// Start while open fails with kAlreadyExists.  Clears any previous ring
/// contents.
Status Start(TraceOptions options);

/// Closes the window and, if its options named a path, writes the Chrome
/// JSON of its events there.  The window is closed even when the write
/// fails; the write error is returned.  OK (no-op) when no window is open.
Status Stop();

/// True iff the trace window is open.
bool GlobalActive();

/// Copy of the window's events, oldest first (still readable after Stop).
std::vector<TraceEvent> GlobalEvents();

/// Events evicted from the window's ring since Start().
uint64_t GlobalDropped();

// ---------------------------------------------------------------------------
// Per-job trace context (DESIGN.md §2.14)
// ---------------------------------------------------------------------------

/// \brief Bounded thread-safe span buffer owned by one job: every event a
/// thread emits while a ScopedTraceContext referencing it is installed
/// lands here, in addition to the regular sinks.  This is what survives
/// after the global ring has overwritten a slow job's spans — the flight
/// recorder retains the capture, not ring indices.
class SpanCapture {
 public:
  explicit SpanCapture(size_t capacity = 2048);
  SpanCapture(const SpanCapture&) = delete;
  SpanCapture& operator=(const SpanCapture&) = delete;

  void Append(const TraceEvent& event);
  std::vector<TraceEvent> Events() const;
  /// Events not retained because the capture was full (newest dropped:
  /// the head of a job's story — wire, queue, admission — is the part an
  /// operator can least afford to lose).
  uint64_t dropped() const;

 private:
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  size_t capacity_;
  uint64_t dropped_ = 0;
};

/// \brief Identity of the job the calling thread is currently working for.
/// Propagated explicitly across thread hops (net handler -> scheduler
/// worker) by copying it into the JobSpec and re-installing it with
/// ScopedTraceContext on the far side.
struct TraceContext {
  uint64_t trace_id = 0;      ///< end-to-end id; 0 = no context
  uint64_t wire_job_id = 0;   ///< net-server-minted job id (0 off the wire)
  uint64_t sched_job_id = 0;  ///< scheduler-minted job id
  std::shared_ptr<SpanCapture> capture;
};

/// Mints a process-unique nonzero trace id (counter-seeded, bit-mixed so
/// ids from concurrent sessions do not collide visually).
uint64_t MintTraceId();

/// 16-digit lowercase hex spelling of a trace id — the wire/CLI form.
std::string TraceIdHex(uint64_t trace_id);

/// Parses the hex spelling back; 0 on malformed input (0 is never minted).
uint64_t ParseTraceIdHex(const std::string& hex);

/// Copy of the calling thread's installed context (all-zero when none).
TraceContext CurrentContext();

/// \brief RAII: installs `context` as the calling thread's trace context,
/// restoring the previous one on destruction.  While installed, every
/// Emit() on this thread stamps the job identity args and feeds the
/// context's SpanCapture — which also makes Enabled() true on this thread
/// even when no global sink is attached, so per-job capture works with
/// process-wide tracing off.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext context);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext previous_;
};

// ---------------------------------------------------------------------------
// Span RAII
// ---------------------------------------------------------------------------

/// \brief Scoped span: captures the start time at construction and emits
/// one complete event at destruction (or End()).  When tracing is
/// disabled at construction the object is inert and costs one atomic
/// load.
class Span {
 public:
  /// Inert span (never emits).
  Span() = default;

  Span(uint64_t track, std::string name, std::string category)
      : active_(Enabled()) {
    if (!active_) return;
    event_.track = track;
    event_.name = std::move(name);
    event_.category = std::move(category);
    event_.ts_us = NowUs();
  }

  Span(Span&& other) noexcept
      : active_(std::exchange(other.active_, false)),
        event_(std::move(other.event_)) {}

  ~Span() { End(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span& operator=(Span&&) = delete;

  /// False when tracing was off at construction — callers can skip
  /// arg-formatting work.
  bool active() const { return active_; }

  void Arg(std::string key, std::string value) {
    if (!active_) return;
    event_.args.push_back({std::move(key), std::move(value), false});
  }
  void ArgNum(std::string key, double value);
  void ArgNum(std::string key, uint64_t value);

  /// Emits the span now (idempotent; the destructor becomes a no-op).
  void End() {
    if (!active_) return;
    active_ = false;
    event_.dur_us = NowUs() - event_.ts_us;
    Emit(std::move(event_));
  }

 private:
  bool active_ = false;
  TraceEvent event_;
};

}  // namespace adgraph::trace

#endif  // ADGRAPH_TRACE_TRACE_H_
