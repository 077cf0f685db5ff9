#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace adgraph::perfbench {

void Outcome::Fail(std::string why) {
  failed += 1;
  if (failures.size() < 10) failures.push_back(std::move(why));
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, double(values.size()))) - 1;
  return values[index];
}

uint64_t CountAbove(const std::vector<double>& values, double threshold) {
  return static_cast<uint64_t>(
      std::count_if(values.begin(), values.end(),
                    [threshold](double v) { return v > threshold; }));
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Sum(const std::vector<double>& values) {
  double total = 0;
  for (double v : values) total += v;
  return total;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::mt19937_64 MakeRng(uint64_t seed, uint64_t stream) {
  // splitmix64 of (seed, stream) so neighbouring seeds give unrelated
  // streams.
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull +
               0x94D049BB133111EBull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return std::mt19937_64(z);
}

std::vector<Window> CountWindows(
    std::vector<std::pair<double, double>> done_s_latency_ms, double phase_s,
    size_t count) {
  std::erase_if(done_s_latency_ms,
                [phase_s](const auto& op) { return op.first >= phase_s; });
  std::sort(done_s_latency_ms.begin(), done_s_latency_ms.end());
  const size_t per_window = done_s_latency_ms.size() / count;
  std::vector<Window> windows;
  if (per_window == 0) return windows;
  double window_start_s = 0;
  for (size_t k = 0; k < count; ++k) {
    Window& w = windows.emplace_back();
    for (size_t i = k * per_window; i < (k + 1) * per_window; ++i) {
      w.latencies_ms.push_back(done_s_latency_ms[i].second);
    }
    const double window_end_s = done_s_latency_ms[(k + 1) * per_window - 1].first;
    w.seconds = window_end_s - window_start_s;
    window_start_s = window_end_s;
  }
  return windows;
}

void SetWindowMetrics(Outcome* out, const std::vector<Window>& windows) {
  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> p95s;
  uint64_t samples = 0;
  uint64_t beyond = 0;
  for (const Window& w : windows) {
    if (w.seconds <= 0 || w.latencies_ms.empty()) continue;
    rates.push_back(double(w.latencies_ms.size()) / w.seconds);
    // The interpolated median: two operations of different kinds that
    // trade places around the middle rank leave it unchanged.
    p50s.push_back(Median(w.latencies_ms));
    const double p95 = Quantile(w.latencies_ms, 0.95);
    p95s.push_back(p95);
    samples += w.latencies_ms.size();
    beyond += CountAbove(w.latencies_ms, p95);
  }
  out->end_to_end["jobs_per_s"] = {Median(rates), "1/s", samples};
  out->end_to_end["latency_p50_ms"] = {Median(p50s), "ms", samples};
  out->end_to_end["latency_p95_ms"] = {Median(p95s), "ms", samples};
  out->notes.push_back("latency samples " + std::to_string(samples) + " in " +
                       std::to_string(rates.size()) + " windows, " +
                       std::to_string(beyond) +
                       " beyond their window's p95");
  std::string per_window = "windows (rate/s, p50 ms, p95 ms):";
  for (size_t k = 0; k < rates.size(); ++k) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %.2f/%.2f/%.2f", rates[k], p50s[k],
                  p95s[k]);
    per_window += buf;
  }
  out->notes.push_back(per_window);
}

void SetSetupAndRss(Outcome* out, const std::vector<double>& setup_s,
                    double peak_rss_mb) {
  out->end_to_end["setup_s"] = {Median(setup_s), "s",
                                static_cast<uint64_t>(setup_s.size())};
  out->end_to_end["peak_rss_mb"] = {peak_rss_mb, "MiB", 1};
}

uint64_t OperationId(uint64_t seed, uint64_t index) {
  uint64_t z = (seed + 1) * 0x9E3779B97F4A7C15ull ^ (index + 1);
  z = (z ^ (z >> 31)) * 0xD6E8FEB86659FD93ull;
  z ^= z >> 32;
  return z == 0 ? 1 : z;
}

std::string Hex64(uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

// ------------------------------------------------------------------ tracer

namespace {

struct ThreadSpanState {
  uint64_t op = 0;
  uint64_t parent = 0;
  uint32_t tid = 0;
  /// Whether the innermost open operation is being recorded: decided once
  /// by its root span, so toggling the tracer mid-operation never yields a
  /// partial span tree.
  bool recording = false;
};

thread_local ThreadSpanState tls_span_state;

uint32_t ThreadOrdinal() {
  static std::atomic<uint32_t> next{1};
  if (tls_span_state.tid == 0) tls_span_state.tid = next.fetch_add(1);
  return tls_span_state.tid;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Record(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mutex_);
  epoch_ns_ = epoch_ns_ == 0 ? record.start_ns
                             : std::min(epoch_ns_, record.start_ns);
  spans_.push_back(std::move(record));
}

uint64_t Tracer::RecordSpan(std::string_view name, std::string_view layer,
                            uint64_t op, uint64_t parent,
                            Clock::time_point start, Clock::time_point end) {
  auto ns = [](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  };
  SpanRecord record;
  record.name = std::string(name);
  record.layer = std::string(layer);
  record.op = op;
  record.parent = parent;
  record.tid = ThreadOrdinal();
  record.start_ns = ns(start);
  record.end_ns = ns(end);
  std::lock_guard<std::mutex> lock(mutex_);
  const uint64_t id = record.id = NextIdLocked();
  epoch_ns_ = epoch_ns_ == 0 ? record.start_ns
                             : std::min(epoch_ns_, record.start_ns);
  spans_.push_back(std::move(record));
  return id;
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, double> Tracer::LayerSelfMs() const {
  std::vector<SpanRecord> spans = Spans();
  std::map<uint64_t, double> child_ms;  // parent id -> covered ms
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) child_ms[s.parent] += s.ms();
  }
  std::map<std::string, double> self;
  for (const SpanRecord& s : spans) {
    auto it = child_ms.find(s.id);
    self[s.layer] += s.ms() - (it == child_ms.end() ? 0.0 : it->second);
  }
  return self;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::vector<SpanRecord> spans = Spans();
  int64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    epoch = epoch_ns_;
  }
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[512];
  for (const SpanRecord& s : spans) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":\"%s\","
                  "\"id\":%llu,\"parent\":%llu}}",
                  first ? "" : ",\n", JsonEscape(s.name).c_str(),
                  JsonEscape(s.layer).c_str(), s.tid,
                  static_cast<double>(s.start_ns - epoch) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  Hex64(s.op).c_str(), static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent));
    out << buf;
    first = false;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

Span::Span(std::string_view name, std::string_view layer) {
  Open(name, layer, tls_span_state.op, /*root=*/false, /*record=*/true);
}

Span::Span(std::string_view name, std::string_view layer, uint64_t op,
           bool record) {
  Open(name, layer, op, /*root=*/true, record);
}

void Span::Open(std::string_view name, std::string_view layer, uint64_t op,
                bool root, bool record) {
  Tracer& tracer = Tracer::Get();
  recording_ =
      root ? record && tracer.enabled() : tls_span_state.recording;
  // Roots always install their operation context, so a root that is not
  // recorded also silences its children.
  restore_ = root || recording_;
  if (restore_) {
    saved_op_ = tls_span_state.op;
    saved_parent_ = tls_span_state.parent;
    saved_recording_ = tls_span_state.recording;
    tls_span_state.op = op;
    tls_span_state.recording = recording_;
  }
  if (recording_) {
    record_.name = std::string(name);
    record_.layer = std::string(layer);
    record_.op = op;
    record_.parent = root ? 0 : saved_parent_;
    record_.tid = ThreadOrdinal();
    {
      std::lock_guard<std::mutex> lock(tracer.mutex_);
      record_.id = tracer.NextIdLocked();
    }
    tls_span_state.parent = record_.id;
    record_.start_ns = NowNs();
  } else if (root) {
    tls_span_state.parent = 0;
  }
  start_ = Clock::now();
}

double Span::End() {
  if (open_) {
    end_ = Clock::now();
    open_ = false;
    if (recording_) {
      record_.end_ns = NowNs();
      Tracer::Get().Record(std::move(record_));
    }
    if (restore_) {
      tls_span_state.op = saved_op_;
      tls_span_state.parent = saved_parent_;
      tls_span_state.recording = saved_recording_;
    }
  }
  return ms();
}

double Span::ms() const {
  return MsBetween(start_, open_ ? Clock::now() : end_);
}

}  // namespace adgraph::perfbench
