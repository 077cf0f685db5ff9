#include "trace/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

namespace adgraph::trace {

namespace {

/// All tracer state behind one mutex: the window's ring and the track
/// registry.  One lock per emission is the whole synchronization story —
/// simple to reason about, ThreadSanitizer-clean, and cheap at the span
/// granularity we emit (spans, not instructions).
struct TracerState {
  std::mutex mutex;

  // The trace window (Start()/Stop()).
  bool global_active = false;
  TraceOptions global_options;
  std::vector<TraceEvent> ring;
  size_t ring_next = 0;  ///< write cursor once the ring is full
  uint64_t dropped = 0;

  // Track registry (process-lifetime; index = track id).
  std::vector<std::string> tracks;
  std::map<std::string, uint32_t> name_uses;
};

TracerState& State() {
  static TracerState* state = new TracerState();  // leaked: used at exit
  return *state;
}

/// Fast-path guard: true iff the window is open.  Updated under the state
/// mutex, read with a relaxed load from every emission site.
std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> enabled{false};
  return enabled;
}

std::chrono::steady_clock::time_point Epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

void AppendJsonEscaped(std::string* out, const std::string& s) {
  for (char ch : s) {
    switch (ch) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          *out += buf;
        } else {
          *out += ch;
        }
    }
  }
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  AppendJsonEscaped(&out, s);
  out += "\"";
  return out;
}

std::string JsonNumber(double v) {
  // Plain decimal (never exponent/NaN) so any JSON parser accepts it.
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

/// The calling thread's installed job context.  Read on every emission;
/// written only by ScopedTraceContext on the same thread, so no atomics.
TraceContext& ThreadContext() {
  thread_local TraceContext context;
  return context;
}

std::string FormatU64(uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  return buf;
}

/// The ring's events, oldest first: it holds [next, end) then [0, next).
std::vector<TraceEvent> RingEventsLocked(const TracerState& state) {
  std::vector<TraceEvent> events;
  events.reserve(state.ring.size());
  for (size_t i = 0; i < state.ring.size(); ++i) {
    events.push_back(state.ring[(state.ring_next + i) % state.ring.size()]);
  }
  return events;
}

/// Serializes `events` (with track metadata from the registry) in Chrome
/// trace-event JSON format to `out`.
void WriteChromeTraceJson(std::ostream& out,
                          const std::vector<TraceEvent>& events) {
  const std::vector<std::string> tracks = TrackNames();
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  // Metadata: name every referenced track, plus track 0.
  std::vector<bool> referenced(tracks.size(), false);
  if (!referenced.empty()) referenced[0] = true;
  for (const TraceEvent& event : events) {
    if (event.track < referenced.size()) referenced[event.track] = true;
  }
  for (size_t t = 0; t < tracks.size(); ++t) {
    if (!referenced[t]) continue;
    if (!first) out << ",\n";
    first = false;
    out << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":" << t
        << ",\"args\":{\"name\":" << JsonString(tracks[t])
        << "},\"ts\":0}";
  }
  for (const TraceEvent& event : events) {
    if (!first) out << ",\n";
    first = false;
    const bool instant = event.phase == 'i';
    out << "{\"ph\":\"" << (instant ? 'i' : 'X')
        << "\",\"name\":" << JsonString(event.name)
        << ",\"cat\":" << JsonString(event.category)
        << ",\"pid\":1,\"tid\":" << event.track
        << ",\"ts\":" << JsonNumber(event.ts_us);
    if (instant) {
      // Thread-scoped instant marker; no duration field.
      out << ",\"s\":\"t\"";
    } else {
      out << ",\"dur\":" << JsonNumber(event.dur_us);
    }
    if (!event.args.empty()) {
      out << ",\"args\":{";
      for (size_t i = 0; i < event.args.size(); ++i) {
        const TraceArg& arg = event.args[i];
        if (i) out << ",";
        out << JsonString(arg.key) << ":"
            << (arg.is_number ? arg.value : JsonString(arg.value));
      }
      out << "}";
    }
    out << "}";
  }
  out << "\n]}\n";
}

}  // namespace

double NowUs() {
  // Touch the epoch before sampling the clock: on the very first call the
  // epoch's static initializer would otherwise run *after* the sample was
  // taken, handing the first span of the process a negative timestamp.
  (void)Epoch();
  return ToUs(std::chrono::steady_clock::now());
}

double ToUs(std::chrono::steady_clock::time_point tp) {
  return std::chrono::duration<double, std::micro>(tp - Epoch()).count();
}

uint64_t RegisterTrack(const std::string& name) {
  TracerState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  if (state.tracks.empty()) state.tracks.push_back("host");  // track 0
  uint32_t uses = state.name_uses[name]++;
  std::string unique =
      uses == 0 ? name : name + " #" + std::to_string(uses + 1);
  state.tracks.push_back(unique);
  return state.tracks.size() - 1;
}

std::vector<std::string> TrackNames() {
  TracerState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  if (state.tracks.empty()) state.tracks.push_back("host");
  return state.tracks;
}

bool Enabled() {
  return EnabledFlag().load(std::memory_order_relaxed) ||
         ThreadContext().capture != nullptr;
}

void Emit(TraceEvent event) {
  if (!Enabled()) return;
  const TraceContext& context = ThreadContext();
  if (context.trace_id != 0) {
    // Stamp the job identity so every span the job touches — wire, queue,
    // admission, engine rounds, kernels — joins on one id (§2.14).
    event.args.push_back({"trace_id", TraceIdHex(context.trace_id), false});
    if (context.wire_job_id != 0) {
      event.args.push_back(
          {"wire_job_id", FormatU64(context.wire_job_id), true});
    }
    if (context.sched_job_id != 0) {
      event.args.push_back(
          {"sched_job_id", FormatU64(context.sched_job_id), true});
    }
  }
  if (context.capture != nullptr) context.capture->Append(event);
  if (!EnabledFlag().load(std::memory_order_relaxed)) return;
  TracerState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  if (!state.global_active) return;
  if (state.ring.size() < state.global_options.ring_capacity) {
    state.ring.push_back(std::move(event));
  } else if (!state.ring.empty()) {
    state.ring[state.ring_next] = std::move(event);
    state.ring_next = (state.ring_next + 1) % state.ring.size();
    state.dropped += 1;
  }
}

void EmitInstant(uint64_t track, std::string name, std::string category,
                 std::vector<TraceArg> args) {
  if (!Enabled()) return;
  TraceEvent event;
  event.name = std::move(name);
  event.category = std::move(category);
  event.track = track;
  event.ts_us = NowUs();
  event.phase = 'i';
  event.args = std::move(args);
  Emit(std::move(event));
}

Status Start(TraceOptions options) {
  // Pin the epoch no later than the window opens: timestamps captured
  // after this point (e.g. Scheduler's enqueued_at, converted retroactively
  // via ToUs) can then never precede it and go negative.
  (void)Epoch();
  TracerState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  if (state.global_active) {
    return Status::AlreadyExists("global tracing window already open");
  }
  options.ring_capacity = std::max<size_t>(options.ring_capacity, 1);
  state.global_active = true;
  state.global_options = std::move(options);
  state.ring.clear();
  state.ring_next = 0;
  state.dropped = 0;
  EnabledFlag().store(true, std::memory_order_relaxed);
  return Status::OK();
}

bool GlobalActive() {
  TracerState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.global_active;
}

std::vector<TraceEvent> GlobalEvents() {
  TracerState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  return RingEventsLocked(state);
}

uint64_t GlobalDropped() {
  TracerState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.dropped;
}

Status Stop() {
  std::string path;
  std::vector<TraceEvent> events;
  {
    TracerState& state = State();
    std::lock_guard<std::mutex> lock(state.mutex);
    if (!state.global_active) return Status::OK();
    state.global_active = false;
    EnabledFlag().store(false, std::memory_order_relaxed);
    path = state.global_options.path;
    // Copied at close, so a Start() racing the write cannot clear them.
    if (!path.empty()) events = RingEventsLocked(state);
  }
  if (path.empty()) return Status::OK();
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open trace file '" + path + "'");
  WriteChromeTraceJson(out, events);
  out.flush();
  if (!out) return Status::IOError("failed writing trace file '" + path + "'");
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Per-job trace context
// ---------------------------------------------------------------------------

SpanCapture::SpanCapture(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 1)) {}

void SpanCapture::Append(const TraceEvent& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (events_.size() < capacity_) {
    events_.push_back(event);
  } else {
    // Keep the head of the job's story (wire/queue/admission), drop the
    // tail; a truncated kernel storm is recoverable from counters, a lost
    // submission path is not.
    dropped_ += 1;
  }
}

std::vector<TraceEvent> SpanCapture::Events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

uint64_t SpanCapture::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

uint64_t MintTraceId() {
  static std::atomic<uint64_t> next{1};
  // splitmix64 finalizer: spreads the counter over the id space so ids
  // minted by different submission paths are visually distinct, while
  // staying deterministic per process (no wall-clock dependence).
  uint64_t z = next.fetch_add(1, std::memory_order_relaxed);
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

std::string TraceIdHex(uint64_t trace_id) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, trace_id);
  return buf;
}

uint64_t ParseTraceIdHex(const std::string& hex) {
  if (hex.empty() || hex.size() > 16) return 0;
  uint64_t value = 0;
  for (char ch : hex) {
    value <<= 4;
    if (ch >= '0' && ch <= '9') {
      value |= static_cast<uint64_t>(ch - '0');
    } else if (ch >= 'a' && ch <= 'f') {
      value |= static_cast<uint64_t>(ch - 'a' + 10);
    } else if (ch >= 'A' && ch <= 'F') {
      value |= static_cast<uint64_t>(ch - 'A' + 10);
    } else {
      return 0;
    }
  }
  return value;
}

TraceContext CurrentContext() { return ThreadContext(); }

ScopedTraceContext::ScopedTraceContext(TraceContext context)
    : previous_(std::move(ThreadContext())) {
  ThreadContext() = std::move(context);
}

ScopedTraceContext::~ScopedTraceContext() {
  ThreadContext() = std::move(previous_);
}

// ---------------------------------------------------------------------------
// Span arg helpers
// ---------------------------------------------------------------------------

void Span::ArgNum(std::string key, double value) {
  if (!active_) return;
  event_.args.push_back({std::move(key), JsonNumber(value), true});
}

void Span::ArgNum(std::string key, uint64_t value) {
  if (!active_) return;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  event_.args.push_back({std::move(key), buf, true});
}

}  // namespace adgraph::trace
