// Tests for src/obs/ (DESIGN.md §2.9): the labeled metric registry, the
// Prometheus/JSONL exposition formats (golden files), the bounded sample
// ring, the alert-rule engine's fire/resolve hysteresis, a multi-threaded
// registry hammer with concurrent scrapes (the TSan target), and the serve
// scheduler's end-to-end metrics integration.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/bfs.h"
#include "graph/generate.h"
#include "obs/alerts.h"
#include "obs/export.h"
#include "obs/registry.h"
#include "obs/sampler.h"
#include "prof/report.h"
#include "serve/job.h"
#include "serve/scheduler.h"
#include "trace_window.h"

namespace adgraph::obs {
namespace {

// --- registry ---------------------------------------------------------------

TEST(Registry, CounterAccumulatesAcrossIncrements) {
  Registry registry;
  Counter* c = registry.GetCounter("jobs_total", "help");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->Value(), 0u);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->Value(), 42u);
}

TEST(Registry, GaugeSetAndAdd) {
  Registry registry;
  Gauge* g = registry.GetGauge("depth", "help");
  ASSERT_NE(g, nullptr);
  g->Set(3.5);
  g->Add(1.5);
  EXPECT_DOUBLE_EQ(g->Value(), 5.0);
  g->Set(-2);
  EXPECT_DOUBLE_EQ(g->Value(), -2.0);
}

TEST(Registry, SameNameAndLabelsReturnsSameHandle) {
  Registry registry;
  Counter* a = registry.GetCounter("hits", "h", {{"worker", "0"}});
  // Label order must not matter: the key is canonicalized (sorted).
  Counter* b = registry.GetCounter(
      "hits", "ignored later", {{"worker", "0"}});
  Counter* c2 = registry.GetCounter("hits", "h", {{"worker", "1"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c2);
  EXPECT_EQ(registry.num_families(), 1u);
}

TEST(Registry, LabelOrderCanonicalized) {
  Registry registry;
  Counter* a = registry.GetCounter("x", "h", {{"b", "2"}, {"a", "1"}});
  Counter* b = registry.GetCounter("x", "h", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(a, b);
}

TEST(Registry, KindMismatchReturnsNull) {
  Registry registry;
  ASSERT_NE(registry.GetCounter("thing", "h"), nullptr);
  EXPECT_EQ(registry.GetGauge("thing", "h"), nullptr);
  EXPECT_EQ(registry.GetHistogram("thing", "h"), nullptr);
}

TEST(Registry, ScrapePreservesRegistrationOrder) {
  Registry registry;
  registry.GetGauge("build_info", "h", {{"version", "1"}})->Set(1);
  registry.GetCounter("later", "h");
  registry.GetGauge("build_info", "h", {{"version", "2"}})->Set(1);
  auto families = registry.Scrape();
  ASSERT_EQ(families.size(), 2u);
  EXPECT_EQ(families[0].name, "build_info");
  ASSERT_EQ(families[0].series.size(), 2u);
  EXPECT_EQ(families[1].name, "later");
}

TEST(Histogram, QuantileInterpolatesWithinBucket) {
  HistogramOptions options;
  options.first_bound = 1.0;
  options.growth = 2.0;
  options.num_buckets = 4;  // bounds 1, 2, 4, 8, then +Inf
  Histogram h(options);
  // 100 observations spread evenly in (2,4]: p50 should land mid-bucket.
  for (int i = 0; i < 100; ++i) h.Observe(3.0);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_DOUBLE_EQ(snap.sum, 300.0);
  double p50 = snap.Quantile(0.5);
  EXPECT_GT(p50, 2.0);
  EXPECT_LE(p50, 4.0);
  // Everything in one bucket: p99 sits in the same bucket.
  EXPECT_LE(snap.Quantile(0.99), 4.0);
}

TEST(Histogram, MergeAddsIdenticalLayouts) {
  HistogramOptions options;
  options.first_bound = 1.0;
  options.growth = 2.0;
  options.num_buckets = 3;
  Histogram a(options);
  Histogram b(options);
  a.Observe(0.5);
  b.Observe(100.0);  // +Inf bucket
  HistogramSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.count, 2u);
  EXPECT_DOUBLE_EQ(merged.sum, 100.5);
  // +Inf observations clamp to the largest finite bound in quantiles.
  EXPECT_DOUBLE_EQ(merged.Quantile(1.0), 4.0);
}

TEST(Histogram, ObservationsLandInCorrectBuckets) {
  HistogramOptions options;
  options.first_bound = 1.0;
  options.growth = 10.0;
  options.num_buckets = 3;  // bounds 1, 10, 100
  Histogram h(options);
  h.Observe(1.0);    // <= 1 -> bucket 0
  h.Observe(5.0);    // bucket 1
  h.Observe(50.0);   // bucket 2
  h.Observe(500.0);  // +Inf
  HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
}

// --- exposition formats -----------------------------------------------------

TEST(Export, PrometheusGoldenFile) {
  Registry registry;
  registry.GetGauge("adgraph_build_info", "Version info.",
                    {{"version", "2.0.0"}, {"device", "A100"}})
      ->Set(1);
  Counter* jobs = registry.GetCounter("adgraph_jobs_total", "Jobs done.",
                                      {{"algo", "bfs"}, {"worker", "0"}});
  jobs->Increment(7);
  HistogramOptions options;
  options.first_bound = 1.0;
  options.growth = 2.0;
  options.num_buckets = 2;  // bounds 1, 2, +Inf
  Histogram* lat = registry.GetHistogram("adgraph_latency_ms", "Latency.",
                                         {{"worker", "0"}}, options);
  lat->Observe(0.5);
  lat->Observe(1.5);
  lat->Observe(9.0);

  const std::string expected =
      "# HELP adgraph_build_info Version info.\n"
      "# TYPE adgraph_build_info gauge\n"
      "adgraph_build_info{device=\"A100\",version=\"2.0.0\"} 1\n"
      "# HELP adgraph_jobs_total Jobs done.\n"
      "# TYPE adgraph_jobs_total counter\n"
      "adgraph_jobs_total{algo=\"bfs\",worker=\"0\"} 7\n"
      "# HELP adgraph_latency_ms Latency.\n"
      "# TYPE adgraph_latency_ms histogram\n"
      "adgraph_latency_ms_bucket{worker=\"0\",le=\"1\"} 1\n"
      "adgraph_latency_ms_bucket{worker=\"0\",le=\"2\"} 2\n"
      "adgraph_latency_ms_bucket{worker=\"0\",le=\"+Inf\"} 3\n"
      "adgraph_latency_ms_sum{worker=\"0\"} 11\n"
      "adgraph_latency_ms_count{worker=\"0\"} 3\n";
  EXPECT_EQ(ToPrometheusText(registry.Scrape()), expected);
}

TEST(Export, PrometheusLabelEscaping) {
  EXPECT_EQ(EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(EscapeLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(EscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapeLabelValue("a\nb"), "a\\nb");

  Registry registry;
  registry.GetGauge("g", "", {{"path", "C:\\x\n\"q\""}})->Set(1);
  std::string text = ToPrometheusText(registry.Scrape());
  EXPECT_NE(text.find("g{path=\"C:\\\\x\\n\\\"q\\\"\"} 1"), std::string::npos)
      << text;
}

TEST(Export, CumulativeBucketsAreMonotone) {
  Registry registry;
  HistogramOptions options;
  options.first_bound = 1.0;
  options.growth = 2.0;
  options.num_buckets = 8;
  Histogram* h = registry.GetHistogram("lat", "", {}, options);
  for (int i = 0; i < 200; ++i) h->Observe(0.3 * i);
  std::string text = ToPrometheusText(registry.Scrape());
  // Walk the rendered _bucket lines; the trailing counts must not decrease.
  std::istringstream in(text);
  std::string line;
  long long prev = -1;
  int buckets = 0;
  while (std::getline(in, line)) {
    if (line.rfind("lat_bucket", 0) != 0) continue;
    long long count = std::stoll(line.substr(line.rfind(' ') + 1));
    EXPECT_GE(count, prev) << line;
    prev = count;
    ++buckets;
  }
  EXPECT_EQ(buckets, 9);  // 8 finite + +Inf
}

TEST(Export, JsonLineStructure) {
  Registry registry;
  registry.GetCounter("jobs", "h", {{"algo", "bfs"}})->Increment(3);
  HistogramOptions options;
  options.first_bound = 1.0;
  options.growth = 2.0;
  options.num_buckets = 2;
  registry.GetHistogram("lat", "h", {}, options)->Observe(1.5);

  SampleBatch batch;
  batch.sequence = 9;
  batch.ts_ms = 125.5;
  batch.families = registry.Scrape();
  AlertEvent event;
  event.rule = "queue_depth > 5 for 2";
  event.metric = "queue_depth";
  event.state = AlertEvent::State::kFiring;
  event.value = 7;
  event.threshold = 5;
  batch.alerts.push_back(event);

  std::string line = ToJsonLine(batch);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // one line per batch
  EXPECT_NE(line.find("\"seq\":9"), std::string::npos) << line;
  EXPECT_NE(line.find("\"ts_ms\":125.5"), std::string::npos) << line;
  EXPECT_NE(line.find("\"alerts\":[{\"rule\":\"queue_depth > 5 for 2\","
                      "\"state\":\"firing\""),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("\"name\":\"jobs\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"labels\":{\"algo\":\"bfs\"},\"value\":3"),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("\"buckets\":[[1,0],[2,1],[\"+Inf\",0]]"),
            std::string::npos)
      << line;
}

TEST(Export, ParseFormatNames) {
  EXPECT_EQ(ParseExportFormat("prom").value(), ExportFormat::kPrometheus);
  EXPECT_EQ(ParseExportFormat("prometheus").value(),
            ExportFormat::kPrometheus);
  EXPECT_EQ(ParseExportFormat("jsonl").value(), ExportFormat::kJsonl);
  EXPECT_FALSE(ParseExportFormat("csv").ok());
}

// --- sample ring ------------------------------------------------------------

TEST(SampleRing, OverwritesOldestWhenFull) {
  SampleRing ring(3);
  for (uint64_t i = 0; i < 5; ++i) {
    SampleBatch batch;
    batch.sequence = i;
    ring.Push(std::move(batch));
  }
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.dropped(), 2u);
  auto batches = ring.Batches();
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].sequence, 2u);  // oldest surviving
  EXPECT_EQ(batches[1].sequence, 3u);
  EXPECT_EQ(batches[2].sequence, 4u);
}

TEST(SampleRing, UnderCapacityKeepsEverything) {
  SampleRing ring(8);
  for (uint64_t i = 0; i < 5; ++i) {
    SampleBatch batch;
    batch.sequence = i;
    ring.Push(std::move(batch));
  }
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.Batches().front().sequence, 0u);
}

// --- alert rules ------------------------------------------------------------

TEST(Alerts, ParseRuleForms) {
  AlertRule rule = ParseAlertRule("queue_depth > 48 for 3").value();
  EXPECT_EQ(rule.metric, "queue_depth");
  EXPECT_EQ(rule.op, AlertRule::Op::kGreaterThan);
  EXPECT_DOUBLE_EQ(rule.threshold, 48);
  EXPECT_EQ(rule.for_samples, 3u);

  AlertRule simple = ParseAlertRule("cache_hit_ratio < 0.5").value();
  EXPECT_EQ(simple.op, AlertRule::Op::kLessThan);
  EXPECT_DOUBLE_EQ(simple.threshold, 0.5);
  EXPECT_EQ(simple.for_samples, 1u);

  EXPECT_FALSE(ParseAlertRule("queue_depth >= 5").ok());
  EXPECT_FALSE(ParseAlertRule("queue_depth > five").ok());
  EXPECT_FALSE(ParseAlertRule("queue_depth > 5 for 0").ok());
  EXPECT_FALSE(ParseAlertRule("queue_depth").ok());
}

TEST(Alerts, ParseRulesSkipsCommentsAndReportsLineNumbers) {
  auto rules = ParseAlertRules("# comment\n\nqueue_depth > 5\n"
                               "utilization < 0.2 for 4\n");
  ASSERT_TRUE(rules.ok());
  EXPECT_EQ(rules->size(), 2u);

  auto bad = ParseAlertRules("queue_depth > 5\nbogus line here\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos)
      << bad.status().ToString();
}

TEST(Alerts, FireAfterConsecutiveBreaches) {
  AlertRule rule = ParseAlertRule("queue_depth > 10 for 3").value();
  AlertEngine engine({rule});
  std::map<std::string, double> low = {{"queue_depth", 5}};
  std::map<std::string, double> high = {{"queue_depth", 20}};

  EXPECT_TRUE(engine.Evaluate(1, high).empty());
  EXPECT_TRUE(engine.Evaluate(2, high).empty());
  // Streak broken: the counter must reset.
  EXPECT_TRUE(engine.Evaluate(3, low).empty());
  EXPECT_TRUE(engine.Evaluate(4, high).empty());
  EXPECT_TRUE(engine.Evaluate(5, high).empty());
  auto events = engine.Evaluate(6, high);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].state, AlertEvent::State::kFiring);
  EXPECT_DOUBLE_EQ(events[0].value, 20);
  EXPECT_EQ(engine.states()[0].times_fired, 1u);
}

TEST(Alerts, ResolveHasSymmetricHysteresis) {
  AlertRule rule = ParseAlertRule("p95_latency_ms > 100 for 2").value();
  AlertEngine engine({rule});
  std::map<std::string, double> high = {{"p95_latency_ms", 500}};
  std::map<std::string, double> low = {{"p95_latency_ms", 10}};

  engine.Evaluate(1, high);
  ASSERT_EQ(engine.Evaluate(2, high).size(), 1u);  // fired
  // One clean sample is not enough to resolve; flapping stays quiet.
  EXPECT_TRUE(engine.Evaluate(3, low).empty());
  EXPECT_TRUE(engine.Evaluate(4, high).empty());  // still firing, no re-fire
  EXPECT_TRUE(engine.Evaluate(5, low).empty());
  auto resolved = engine.Evaluate(6, low);
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].state, AlertEvent::State::kResolved);
  EXPECT_FALSE(engine.states()[0].firing);
}

TEST(Alerts, MissingMetricLeavesStateUntouched) {
  AlertRule rule = ParseAlertRule("cache_hit_ratio < 0.5 for 1").value();
  AlertEngine engine({rule});
  // No cache_hit_ratio key at all: never fires, never resolves.
  EXPECT_TRUE(engine.Evaluate(1, {}).empty());
  ASSERT_EQ(engine.Evaluate(2, {{"cache_hit_ratio", 0.1}}).size(), 1u);
  // Input disappears again while firing: stays firing.
  EXPECT_TRUE(engine.Evaluate(3, {}).empty());
  EXPECT_TRUE(engine.states()[0].firing);
}

// --- sampler ----------------------------------------------------------------

TEST(Sampler, SampleNowScrapesAndEvaluatesAlerts) {
  Registry registry;
  Counter* jobs = registry.GetCounter("jobs_total", "h");
  std::atomic<int> depth{0};
  SamplerOptions options;
  options.enabled = true;
  options.quiet = true;
  options.ring_capacity = 16;
  options.alert_rules = {ParseAlertRule("queue_depth > 3 for 2").value()};
  std::vector<AlertEvent> sink_events;
  Sampler sampler(
      &registry, options,
      [&] {
        return std::map<std::string, double>{
            {"queue_depth", static_cast<double>(depth.load())}};
      },
      [&](const AlertEvent& event) { sink_events.push_back(event); });

  jobs->Increment(5);
  sampler.SampleNow();  // depth 0: clean
  depth = 10;
  sampler.SampleNow();  // breach 1
  sampler.SampleNow();  // breach 2 -> fires
  depth = 0;
  sampler.SampleNow();
  sampler.SampleNow();  // clean x2 -> resolves

  auto batches = sampler.Batches();
  ASSERT_EQ(batches.size(), 5u);
  EXPECT_EQ(batches[0].families.front().name, "jobs_total");
  EXPECT_EQ(batches[2].alerts.size(), 1u);
  EXPECT_EQ(batches[2].alerts[0].state, AlertEvent::State::kFiring);
  EXPECT_EQ(batches[4].alerts.size(), 1u);
  EXPECT_EQ(batches[4].alerts[0].state, AlertEvent::State::kResolved);
  ASSERT_EQ(sink_events.size(), 2u);
  ASSERT_EQ(sampler.AlertLog().size(), 2u);
  EXPECT_EQ(sampler.samples_taken(), 5u);
  // Sequence numbers are monotone even though the ring could wrap.
  EXPECT_EQ(batches[4].sequence, 4u);
}

TEST(Sampler, RingBoundsBatchHistory) {
  Registry registry;
  SamplerOptions options;
  options.enabled = true;
  options.quiet = true;
  options.ring_capacity = 4;
  Sampler sampler(&registry, options,
                  [] { return std::map<std::string, double>{}; });
  for (int i = 0; i < 10; ++i) sampler.SampleNow();
  EXPECT_EQ(sampler.Batches().size(), 4u);
  EXPECT_EQ(sampler.dropped(), 6u);
  EXPECT_EQ(sampler.Latest().sequence, 9u);
}

TEST(Sampler, WriteToBothFormats) {
  Registry registry;
  registry.GetCounter("jobs_total", "h")->Increment(2);
  SamplerOptions options;
  options.enabled = true;
  options.quiet = true;
  Sampler sampler(&registry, options,
                  [] { return std::map<std::string, double>{}; });
  sampler.SampleNow();
  sampler.SampleNow();

  std::string prom_path = testing::TempDir() + "obs_test_out.prom";
  std::string jsonl_path = testing::TempDir() + "obs_test_out.jsonl";
  ASSERT_TRUE(sampler.WriteTo(prom_path, ExportFormat::kPrometheus).ok());
  ASSERT_TRUE(sampler.WriteTo(jsonl_path, ExportFormat::kJsonl).ok());

  std::ifstream prom(prom_path);
  std::stringstream prom_text;
  prom_text << prom.rdbuf();
  EXPECT_NE(prom_text.str().find("# TYPE jobs_total counter"),
            std::string::npos);

  std::ifstream jsonl(jsonl_path);
  std::string line;
  int lines = 0;
  while (std::getline(jsonl, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++lines;
  }
  EXPECT_EQ(lines, 2);  // one line per batch
  std::remove(prom_path.c_str());
  std::remove(jsonl_path.c_str());
}

// --- concurrency hammer (the TSan target) -----------------------------------

TEST(Registry, ConcurrentUpdatesAndScrapes) {
  Registry registry;
  Counter* shared_counter = registry.GetCounter("hammer_total", "h");
  Histogram* shared_histogram = registry.GetHistogram("hammer_ms", "h");
  constexpr int kThreads = 8;
  constexpr int kIterations = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Gauge* own_gauge = registry.GetGauge(
          "hammer_gauge", "h", {{"thread", std::to_string(t)}});
      for (int i = 0; i < kIterations; ++i) {
        shared_counter->Increment();
        shared_histogram->Observe(0.001 * i);
        own_gauge->Set(i);
      }
    });
  }
  // Scrape concurrently with the updates — what the background sampler
  // does to the serve pool.  Values must be sane mid-flight.
  for (int s = 0; s < 50; ++s) {
    auto families = registry.Scrape();
    for (const auto& family : families) {
      if (family.name != "hammer_total") continue;
      EXPECT_LE(family.series[0].value,
                static_cast<double>(kThreads) * kIterations);
    }
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(shared_counter->Value(),
            static_cast<uint64_t>(kThreads) * kIterations);
  HistogramSnapshot snap = shared_histogram->Snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kIterations);
}

// --- serve scheduler integration --------------------------------------------

class SchedulerMetricsTest : public ::testing::Test {
 protected:
  static std::shared_ptr<const graph::CsrGraph> MakeGraph() {
    auto coo = graph::GenerateRmat({.scale = 8, .edge_factor = 8.0, .seed = 3})
                   .value();
    graph::CsrBuildOptions build;
    build.remove_duplicates = true;
    build.remove_self_loops = true;
    build.make_undirected = true;
    return std::make_shared<const graph::CsrGraph>(
        graph::CsrGraph::FromCoo(coo, build).value());
  }
};

TEST_F(SchedulerMetricsTest, RegistryTracksJobsWithoutSampler) {
  // metrics.enabled stays false: the registry still exists and counts.
  serve::Scheduler::Options options;
  options.devices = {{.arch = &vgpu::A100Config(), .options = {}}};
  auto scheduler = serve::Scheduler::Create(std::move(options)).value();
  auto g = MakeGraph();
  std::vector<std::future<serve::JobOutcome>> futures;
  for (int i = 0; i < 4; ++i) {
    serve::JobSpec spec;
    spec.graph = g;
    core::BfsOptions o;
    o.source = static_cast<graph::vid_t>(i);
    o.assume_symmetric = true;
    spec.params = o;
    futures.push_back(scheduler->Submit(std::move(spec)).value());
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
  scheduler->Drain();
  (void)scheduler->Snapshot();  // refreshes gauges

  auto families = scheduler->metrics_registry().Scrape();
  ASSERT_FALSE(families.empty());
  // Satellite (c): build_info leads every scrape, carrying the version.
  EXPECT_EQ(families[0].name, "adgraph_build_info");
  ASSERT_FALSE(families[0].series.empty());
  bool saw_version = false;
  for (const auto& [k, v] : families[0].series[0].labels) {
    if (k == "version") {
      saw_version = true;
      EXPECT_FALSE(v.empty());
    }
  }
  EXPECT_TRUE(saw_version);

  std::map<std::string, double> totals;
  for (const auto& family : families) {
    for (const auto& series : family.series) {
      totals[family.name] += family.kind == MetricKind::kHistogram
                                 ? static_cast<double>(series.histogram.count)
                                 : series.value;
    }
  }
  EXPECT_DOUBLE_EQ(totals["adgraph_jobs_submitted_total"], 4);
  EXPECT_DOUBLE_EQ(totals["adgraph_jobs_completed_total"], 4);
  EXPECT_DOUBLE_EQ(totals["adgraph_jobs_by_algo_total"], 4);
  EXPECT_DOUBLE_EQ(totals["adgraph_job_latency_ms"], 4);    // histogram count
  EXPECT_DOUBLE_EQ(totals["adgraph_queue_wait_ms"], 4);
  EXPECT_GT(totals["adgraph_device_warp_inst_total"], 0);
  EXPECT_GT(totals["adgraph_cache_misses_total"], 0);
  // But no sampler artifacts.
  EXPECT_TRUE(scheduler->MetricsBatches().empty());
  EXPECT_FALSE(scheduler
                   ->WriteMetrics(testing::TempDir() + "never.prom",
                                  ExportFormat::kPrometheus)
                   .ok());
}

TEST_F(SchedulerMetricsTest, SamplerExportsAndAlertsEndToEnd) {
  serve::Scheduler::Options options;
  options.devices = {{.arch = &vgpu::A100Config(), .options = {}}};
  options.metrics.enabled = true;
  options.metrics.quiet = true;
  options.metrics.interval_ms = 2;
  std::string prom_path = testing::TempDir() + "sched_metrics.prom";
  options.metrics.path = prom_path;
  // Fires on the very first sample: utilization of a fresh pool is 0.
  options.metrics.alert_rules = {
      ParseAlertRule("jobs_per_sec < 1e12 for 1").value()};
  // Alert transitions also go to the open trace window as instants.
  TraceWindowGuard window;
  auto scheduler = serve::Scheduler::Create(std::move(options)).value();

  auto g = MakeGraph();
  std::vector<std::future<serve::JobOutcome>> futures;
  for (int i = 0; i < 6; ++i) {
    serve::JobSpec spec;
    spec.graph = g;
    core::BfsOptions o;
    o.source = static_cast<graph::vid_t>(i);
    o.assume_symmetric = true;
    spec.params = o;
    futures.push_back(scheduler->Submit(std::move(spec)).value());
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
  scheduler->Drain();

  // On-demand export before shutdown.  It writes the samples taken so far,
  // and six small jobs can finish inside the first 2 ms interval: wait for
  // the sampler's first tick.
  for (int i = 0; i < 2000 && scheduler->MetricsBatches().empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::string jsonl_path = testing::TempDir() + "sched_metrics.jsonl";
  ASSERT_TRUE(
      scheduler->WriteMetrics(jsonl_path, ExportFormat::kJsonl).ok());

  scheduler->Shutdown();  // final sample + Prometheus file

  auto batches = scheduler->MetricsBatches();
  ASSERT_GE(batches.size(), 1u);
  EXPECT_EQ(batches.front().families.front().name, "adgraph_build_info");
  auto alert_log = scheduler->MetricsAlertLog();
  ASSERT_GE(alert_log.size(), 1u);
  EXPECT_EQ(alert_log[0].state, AlertEvent::State::kFiring);
  EXPECT_EQ(alert_log[0].metric, "jobs_per_sec");

  // The alert also landed on the trace as an instant event ('i' phase) —
  // unless it fired only on the final post-join sample; check the export
  // file instead for the unconditional evidence.
  std::ifstream prom(prom_path);
  ASSERT_TRUE(prom.good()) << prom_path;
  std::stringstream prom_text;
  prom_text << prom.rdbuf();
  EXPECT_NE(prom_text.str().find("adgraph_jobs_completed_total"),
            std::string::npos);
  EXPECT_NE(prom_text.str().find("adgraph_job_latency_ms_bucket"),
            std::string::npos);

  std::ifstream jsonl(jsonl_path);
  std::string line;
  int lines = 0;
  while (std::getline(jsonl, line)) {
    EXPECT_EQ(line.front(), '{');
    ++lines;
  }
  EXPECT_GE(lines, 1);
  std::remove(prom_path.c_str());
  std::remove(jsonl_path.c_str());
}

TEST_F(SchedulerMetricsTest, ServerStatsCarriesP99FromHistograms) {
  serve::Scheduler::Options options;
  options.devices = {{.arch = &vgpu::A100Config(), .options = {}}};
  auto scheduler = serve::Scheduler::Create(std::move(options)).value();
  auto g = MakeGraph();
  std::vector<std::future<serve::JobOutcome>> futures;
  for (int i = 0; i < 3; ++i) {
    serve::JobSpec spec;
    spec.graph = g;
    core::BfsOptions o;
    o.source = 0;
    o.assume_symmetric = true;
    spec.params = o;
    futures.push_back(scheduler->Submit(std::move(spec)).value());
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
  scheduler->Drain();
  prof::ServerStats stats = scheduler->Snapshot();
  EXPECT_GT(stats.p50_wall_ms, 0);
  EXPECT_GE(stats.p95_wall_ms, stats.p50_wall_ms);
  EXPECT_GE(stats.p99_wall_ms, stats.p95_wall_ms);
  EXPECT_GE(stats.p99_modeled_ms, stats.p95_modeled_ms);
  std::string report = prof::FormatServerStats(stats);
  EXPECT_NE(report.find("p99"), std::string::npos) << report;
}

TEST(MetricsReport, RendersBatchesAndAlerts) {
  Registry registry;
  registry.GetCounter("adgraph_jobs_completed_total", "h",
                      {{"worker", "0"}})
      ->Increment(12);
  SampleBatch batch;
  batch.sequence = 3;
  batch.ts_ms = 42;
  batch.families = registry.Scrape();
  AlertEvent event;
  event.rule = "queue_depth > 5";
  event.metric = "queue_depth";
  event.state = AlertEvent::State::kFiring;
  event.value = 9;
  event.threshold = 5;
  event.ts_ms = 42;
  std::string report =
      prof::FormatMetricsReport({batch}, {event}, /*dropped_batches=*/2);
  EXPECT_NE(report.find("adgraph_jobs_completed_total"), std::string::npos)
      << report;
  EXPECT_NE(report.find("queue_depth > 5"), std::string::npos) << report;
  EXPECT_NE(report.find("FIRING"), std::string::npos) << report;

  std::string empty = prof::FormatMetricsReport({}, {}, 0);
  EXPECT_NE(empty.find("no samples"), std::string::npos) << empty;
}

}  // namespace
}  // namespace adgraph::obs
