// End-to-end tests of src/trace/: sink semantics, the Chrome trace-event
// JSON export, and the span structure the instrumented stack emits — the
// golden check that a serve-batch trace nests job ⊃ algorithm ⊃ kernel and
// shows one track per device and per worker.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/api.h"
#include "graph/builder.h"
#include "graph/generate.h"
#include "prof/report.h"
#include "serve/job.h"
#include "serve/scheduler.h"
#include "trace/trace.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"

namespace {

using adgraph::trace::Collector;
using adgraph::trace::Span;
using adgraph::trace::TraceEvent;

adgraph::graph::CsrGraph TestGraph(uint64_t seed) {
  auto coo = adgraph::graph::GenerateRmat(
                 {.scale = 8, .edge_factor = 6, .seed = seed})
                 .value();
  adgraph::graph::CsrBuildOptions options;
  options.remove_duplicates = true;
  options.remove_self_loops = true;
  return adgraph::graph::CsrGraph::FromCoo(coo, options).value();
}

// --- minimal Chrome trace-event JSON reader --------------------------------
//
// The exporter writes one event object per line with no nested objects
// except a trailing flat "args" map, so a small hand-rolled reader is
// enough to keep this test dependency-free.

struct ParsedEvent {
  std::string ph;
  std::string name;
  std::string cat;
  uint64_t tid = 0;
  double ts = 0;
  double dur = 0;
  std::map<std::string, std::string> args;  // string values unquoted
};

/// Reads the JSON string starting at the opening quote; returns the value
/// and advances `pos` past the closing quote.
std::string ReadJsonString(const std::string& s, size_t* pos) {
  EXPECT_EQ(s[*pos], '"') << s.substr(*pos, 20);
  std::string out;
  for (size_t i = *pos + 1; i < s.size(); ++i) {
    char c = s[i];
    if (c == '\\' && i + 1 < s.size()) {
      out.push_back(s[++i]);
    } else if (c == '"') {
      *pos = i + 1;
      return out;
    } else {
      out.push_back(c);
    }
  }
  ADD_FAILURE() << "unterminated string in " << s;
  return out;
}

/// Reads a bare JSON number token starting at `pos`.
std::string ReadJsonNumber(const std::string& s, size_t* pos) {
  size_t start = *pos;
  while (*pos < s.size() &&
         (std::isdigit(static_cast<unsigned char>(s[*pos])) ||
          s[*pos] == '-' || s[*pos] == '+' || s[*pos] == '.' ||
          s[*pos] == 'e' || s[*pos] == 'E')) {
    ++*pos;
  }
  return s.substr(start, *pos - start);
}

/// Parses the flat key/value object starting at the '{' at `pos`.
std::map<std::string, std::string> ReadFlatObject(const std::string& s,
                                                  size_t* pos) {
  std::map<std::string, std::string> out;
  EXPECT_EQ(s[*pos], '{');
  ++*pos;
  while (*pos < s.size() && s[*pos] != '}') {
    if (s[*pos] == ',') {
      ++*pos;
      continue;
    }
    std::string key = ReadJsonString(s, pos);
    EXPECT_EQ(s[*pos], ':');
    ++*pos;
    out[key] = s[*pos] == '"' ? ReadJsonString(s, pos)
                              : ReadJsonNumber(s, pos);
  }
  if (*pos < s.size()) ++*pos;  // consume '}'
  return out;
}

/// Parses one `{...}` event line into a ParsedEvent.
ParsedEvent ParseEventLine(std::string line) {
  while (!line.empty() && (line.back() == ',' || line.back() == '\r')) {
    line.pop_back();
  }
  ParsedEvent event;
  size_t pos = 0;
  EXPECT_EQ(line[pos], '{');
  ++pos;
  while (pos < line.size() && line[pos] != '}') {
    if (line[pos] == ',') {
      ++pos;
      continue;
    }
    std::string key = ReadJsonString(line, &pos);
    EXPECT_EQ(line[pos], ':') << line;
    ++pos;
    if (key == "args") {
      event.args = ReadFlatObject(line, &pos);
    } else {
      std::string value = line[pos] == '"' ? ReadJsonString(line, &pos)
                                           : ReadJsonNumber(line, &pos);
      if (key == "ph") event.ph = value;
      if (key == "name") event.name = value;
      if (key == "cat") event.cat = value;
      if (key == "tid") event.tid = std::stoull(value);
      if (key == "ts") event.ts = std::stod(value);
      if (key == "dur") event.dur = std::stod(value);
    }
  }
  return event;
}

std::vector<ParsedEvent> ParseTraceFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<ParsedEvent> events;
  std::string line;
  while (std::getline(in, line)) {
    auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] != '{') continue;
    if (line.find("\"traceEvents\"") != std::string::npos) continue;
    events.push_back(ParseEventLine(line.substr(first)));
  }
  return events;
}

/// True iff `inner` lies within `outer` on the time axis (with a little
/// slack for the sub-microsecond rounding of the exporter).
bool Contains(const ParsedEvent& outer, const ParsedEvent& inner) {
  constexpr double kSlackUs = 2.0;
  return outer.ts - kSlackUs <= inner.ts &&
         inner.ts + inner.dur <= outer.ts + outer.dur + kSlackUs;
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

// --- sink semantics --------------------------------------------------------

TEST(TraceTest, DisabledTracingIsInert) {
  ASSERT_FALSE(adgraph::trace::GlobalActive());
  EXPECT_FALSE(adgraph::trace::Enabled());
  {
    Span span(0, "should_not_emit", "test");
    EXPECT_FALSE(span.active());
    span.ArgNum("x", uint64_t{1});
  }
  // Nothing reaches the global ring while no window is open.
  Collector probe;
  EXPECT_TRUE(adgraph::trace::Enabled()) << "a collector is a sink";
  EXPECT_TRUE(probe.Events().empty());
}

TEST(TraceTest, CollectorBoundedRingDropsOldest) {
  Collector collector(/*ring_capacity=*/3);
  for (int i = 0; i < 5; ++i) {
    Span span(0, "span" + std::to_string(i), "test");
    span.End();
  }
  auto events = collector.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(collector.dropped(), 2u);
  // Oldest-first order with the two oldest evicted.
  EXPECT_EQ(events[0].name, "span2");
  EXPECT_EQ(events[2].name, "span4");
}

TEST(TraceTest, GlobalWindowLifecycle) {
  adgraph::trace::TraceOptions options;
  options.enabled = true;
  ASSERT_TRUE(adgraph::trace::Start(options).ok());
  EXPECT_TRUE(adgraph::trace::GlobalActive());
  EXPECT_FALSE(adgraph::trace::Start(options).ok())
      << "second Start while open must fail (kAlreadyExists)";
  {
    Span span(0, "global_span", "test");
    span.ArgNum("answer", uint64_t{42});
  }
  ASSERT_TRUE(adgraph::trace::Stop().ok());
  EXPECT_FALSE(adgraph::trace::GlobalActive());
  auto events = adgraph::trace::GlobalEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "global_span");
  EXPECT_TRUE(adgraph::trace::Stop().ok()) << "Stop is idempotent";
}

// --- golden export: single-device algorithm run ----------------------------

TEST(TraceTest, KernelSpansCarryCycleBreakdown) {
  const std::string path = TempPath("trace_bfs.json");
  adgraph::trace::TraceOptions options;
  options.enabled = true;
  options.path = path;
  ASSERT_TRUE(adgraph::trace::Start(options).ok());

  auto g = TestGraph(31);
  adgraph::vgpu::Device device(adgraph::vgpu::A100Config());
  adgraph::core::BfsOptions bfs;
  bfs.source = 0;
  ASSERT_TRUE(
      adgraph::core::Run<adgraph::core::Algo::kBfs>(&device, g, bfs).ok());
  ASSERT_TRUE(adgraph::trace::Stop().ok());

  auto events = ParseTraceFile(path);
  std::remove(path.c_str());
  ASSERT_FALSE(events.empty());

  // Every kernel launch produced a span with the modeled cycle breakdown.
  std::vector<ParsedEvent> kernels;
  for (const auto& e : events) {
    if (e.ph == "X" && e.cat == "kernel") kernels.push_back(e);
  }
  ASSERT_FALSE(kernels.empty());
  for (const auto& k : kernels) {
    EXPECT_EQ(k.args.count("cycles"), 1u) << k.name;
    EXPECT_EQ(k.args.count("dram_cycles"), 1u) << k.name;
    EXPECT_EQ(k.args.count("valu_cycles"), 1u) << k.name;
    EXPECT_EQ(k.args.count("modeled_ms"), 1u) << k.name;
    EXPECT_EQ(k.args.count("achieved_occupancy"), 1u) << k.name;
  }

  // The algorithm span exists and contains every kernel span in time.
  const ParsedEvent* algo = nullptr;
  for (const auto& e : events) {
    if (e.ph == "X" && e.name == "algo:bfs") algo = &e;
  }
  ASSERT_NE(algo, nullptr);
  for (const auto& k : kernels) {
    EXPECT_TRUE(Contains(*algo, k)) << k.name;
  }
}

// --- golden export: serve pool ---------------------------------------------

TEST(TraceTest, ServeTraceNestsJobAlgoKernelWithPerDeviceTracks) {
  const std::string path = TempPath("trace_serve.json");
  adgraph::serve::Scheduler::Options options;
  options.devices.push_back({.arch = &adgraph::vgpu::A100Config()});
  options.devices.push_back({.arch = &adgraph::vgpu::V100Config()});
  options.trace.enabled = true;
  options.trace.path = path;
  auto scheduler = adgraph::serve::Scheduler::Create(std::move(options));
  ASSERT_TRUE(scheduler.ok());

  auto shared = std::make_shared<const adgraph::graph::CsrGraph>(TestGraph(32));
  std::vector<std::future<adgraph::serve::JobOutcome>> futures;
  for (const char* arch : {"A100", "V100"}) {
    adgraph::serve::JobSpec spec;
    spec.graph = shared;
    adgraph::core::BfsOptions bfs;
    bfs.source = 0;
    spec.params = bfs;
    spec.arch_preference = arch;
    auto submitted = (*scheduler)->Submit(std::move(spec));
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(*submitted));
  }
  for (auto& f : futures) ASSERT_TRUE(f.get().status.ok());

  // The in-memory summary works while the session is still live.
  std::string summary =
      adgraph::prof::FormatTraceSummary((*scheduler)->TraceEvents());
  EXPECT_NE(summary.find("Trace summary:"), std::string::npos);

  (*scheduler)->Shutdown();  // joins workers and writes the JSON
  auto events = ParseTraceFile(path);
  std::remove(path.c_str());
  ASSERT_FALSE(events.empty());

  // Track names, from the metadata events.
  std::map<uint64_t, std::string> track_names;
  for (const auto& e : events) {
    if (e.ph == "M" && e.name == "thread_name") {
      ASSERT_EQ(track_names.count(e.tid), 0u)
          << "duplicate thread_name for tid " << e.tid;
      track_names[e.tid] = e.args.at("name");
    }
  }

  // One device track and one worker track per pooled GPU, all distinct.
  std::set<uint64_t> kernel_tracks;
  std::set<uint64_t> job_tracks;
  for (const auto& e : events) {
    if (e.ph != "X") continue;
    if (e.cat == "kernel") kernel_tracks.insert(e.tid);
    if (e.cat == "serve" && e.name.rfind("job:", 0) == 0) {
      job_tracks.insert(e.tid);
    }
  }
  EXPECT_EQ(kernel_tracks.size(), 2u) << "one device track per pooled GPU";
  EXPECT_EQ(job_tracks.size(), 2u) << "one worker track per worker thread";
  for (uint64_t t : kernel_tracks) {
    EXPECT_EQ(track_names.at(t).rfind("device ", 0), 0u) << track_names.at(t);
    EXPECT_EQ(job_tracks.count(t), 0u)
        << "device and worker spans must live on different tracks";
  }
  for (uint64_t t : job_tracks) {
    EXPECT_EQ(track_names.at(t).rfind("worker ", 0), 0u) << track_names.at(t);
  }

  // Nesting: every algo span sits inside some job span, and every kernel
  // span inside some algo span (time containment; tracks differ by design).
  std::vector<ParsedEvent> jobs, algos, kernels;
  for (const auto& e : events) {
    if (e.ph != "X") continue;
    if (e.name.rfind("job:", 0) == 0) jobs.push_back(e);
    if (e.name.rfind("algo:", 0) == 0) algos.push_back(e);
    if (e.cat == "kernel") kernels.push_back(e);
  }
  ASSERT_EQ(jobs.size(), 2u);
  ASSERT_EQ(algos.size(), 2u);
  ASSERT_FALSE(kernels.empty());
  for (const auto& a : algos) {
    bool contained = false;
    for (const auto& j : jobs) contained |= Contains(j, a);
    EXPECT_TRUE(contained) << "algo span outside every job span";
  }
  for (const auto& k : kernels) {
    bool contained = false;
    for (const auto& a : algos) contained |= Contains(a, k);
    EXPECT_TRUE(contained) << k.name << " outside every algo span";
  }

  // Each job also left a queue_wait span on its worker track.
  size_t queue_waits = 0;
  for (const auto& e : events) {
    if (e.ph == "X" && e.name == "queue_wait") {
      ++queue_waits;
      EXPECT_EQ(job_tracks.count(e.tid), 1u);
    }
  }
  EXPECT_EQ(queue_waits, 2u);
}

// --- per-job trace context (§2.14) -----------------------------------------

TEST(TraceTest, TraceIdMintAndHexRoundTrip) {
  const uint64_t id = adgraph::trace::MintTraceId();
  EXPECT_NE(id, 0u);
  EXPECT_NE(adgraph::trace::MintTraceId(), id) << "ids are unique";
  const std::string hex = adgraph::trace::TraceIdHex(id);
  EXPECT_EQ(hex.size(), 16u);
  EXPECT_EQ(adgraph::trace::ParseTraceIdHex(hex), id);
  // Malformed spellings parse to 0, which is never minted.
  EXPECT_EQ(adgraph::trace::ParseTraceIdHex(""), 0u);
  EXPECT_EQ(adgraph::trace::ParseTraceIdHex("not-hex!"), 0u);
  EXPECT_EQ(adgraph::trace::ParseTraceIdHex("00112233445566778"), 0u)
      << "17 digits overflow";
}

TEST(TraceTest, ScopedContextStampsIdentityAndFeedsCapture) {
  ASSERT_FALSE(adgraph::trace::GlobalActive());
  auto capture = std::make_shared<adgraph::trace::SpanCapture>();
  const uint64_t id = adgraph::trace::MintTraceId();
  EXPECT_FALSE(adgraph::trace::Enabled());
  {
    adgraph::trace::ScopedTraceContext scope(
        adgraph::trace::TraceContext{id, 7, 9, capture});
    EXPECT_TRUE(adgraph::trace::Enabled())
        << "a per-job capture is a sink even with global tracing off";
    Span span(0, "ctx_span", "test");
    span.End();
  }
  EXPECT_FALSE(adgraph::trace::Enabled()) << "context restored on exit";
  EXPECT_EQ(adgraph::trace::CurrentContext().trace_id, 0u);

  auto events = capture->Events();
  ASSERT_EQ(events.size(), 1u);
  std::map<std::string, std::string> args;
  for (const auto& arg : events[0].args) args[arg.key] = arg.value;
  EXPECT_EQ(args.at("trace_id"), adgraph::trace::TraceIdHex(id));
  EXPECT_EQ(args.at("wire_job_id"), "7");
  EXPECT_EQ(args.at("sched_job_id"), "9");
}

TEST(TraceTest, SpanCaptureDropsNewestWhenFull) {
  auto capture = std::make_shared<adgraph::trace::SpanCapture>(2);
  {
    adgraph::trace::ScopedTraceContext scope(adgraph::trace::TraceContext{
        adgraph::trace::MintTraceId(), 0, 1, capture});
    for (int i = 0; i < 4; ++i) {
      Span span(0, "span" + std::to_string(i), "test");
      span.End();
    }
  }
  auto events = capture->Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(capture->dropped(), 2u);
  // The *oldest* spans survive: a job's opening spans (wire, queue,
  // admission) are the part an operator can least afford to lose.
  EXPECT_EQ(events[0].name, "span0");
  EXPECT_EQ(events[1].name, "span1");
}

TEST(TraceTest, TraceSummaryRanksSpans) {
  Collector collector;
  {
    Span a(0, "slow", "test");
    Span b(0, "fast", "test");
    b.End();
    a.End();
  }
  std::string summary = adgraph::prof::FormatTraceSummary(collector.Events());
  EXPECT_NE(summary.find("2 spans"), std::string::npos) << summary;
  EXPECT_NE(summary.find("test:slow"), std::string::npos) << summary;
  EXPECT_EQ(
      adgraph::prof::FormatTraceSummary({}).find("no spans recorded"), 15u);
}

}  // namespace
