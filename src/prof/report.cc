#include "prof/report.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "prof/metrics.h"
#include "util/table.h"

namespace adgraph::prof {

namespace {

struct KernelGroup {
  uint64_t launches = 0;
  uint32_t grid = 0;
  uint32_t block = 0;
  double time_ms = 0;
  vgpu::KernelCounters counters;
};

}  // namespace

std::string FormatKernelLog(const vgpu::Device& device, size_t start_index) {
  const auto& log = device.kernel_log();
  // Fold by kernel name, preserving first-seen order.
  std::vector<std::string> order;
  std::map<std::string, KernelGroup> groups;
  double total_ms = 0;
  for (size_t i = start_index; i < log.size(); ++i) {
    const auto& stats = log[i];
    auto [it, inserted] = groups.try_emplace(stats.kernel_name);
    if (inserted) order.push_back(stats.kernel_name);
    it->second.launches += 1;
    it->second.grid = stats.grid;
    it->second.block = stats.block;
    it->second.time_ms += stats.time_ms;
    it->second.counters.Merge(stats.counters);
    total_ms += stats.time_ms;
  }

  TablePrinter table({"kernel", "launches", "grid x block", "time (ms)",
                      "share", "warp inst", "gld trans", "L2 hit",
                      "smem acc", "div branches"});
  for (const auto& name : order) {
    const KernelGroup& g = groups.at(name);
    table.AddRow({name, std::to_string(g.launches),
                  std::to_string(g.grid) + " x " + std::to_string(g.block),
                  FormatFixed(g.time_ms, 4),
                  FormatFixed(total_ms > 0 ? 100 * g.time_ms / total_ms : 0, 1)
                      + "%",
                  FormatWithCommas(g.counters.warp_inst_issued),
                  FormatWithCommas(g.counters.global_ld_transactions),
                  FormatFixed(100 * g.counters.l2_hit_rate(), 1) + "%",
                  FormatWithCommas(g.counters.smem_accesses),
                  FormatWithCommas(g.counters.divergent_branches)});
  }
  table.AddSeparator();
  table.AddRow({"total", std::to_string(log.size() - start_index), "",
                FormatFixed(total_ms, 4), "100%"});

  std::ostringstream out;
  out << "Kernel log of " << device.name() << " ("
      << device.arch().vendor << ")\n";
  table.Print(out);
  return out.str();
}

std::string FormatServerStats(const ServerStats& stats) {
  std::ostringstream out;
  out << "Serving pool snapshot (uptime " << FormatFixed(stats.uptime_ms, 1)
      << " ms)\n"
      << "  jobs: " << stats.jobs_submitted << " submitted, "
      << stats.jobs_completed << " completed, " << stats.jobs_failed
      << " failed, " << stats.jobs_rejected_admission
      << " rejected (admission), " << stats.jobs_rejected_backpressure
      << " rejected (backpressure), " << stats.jobs_shed_deadline
      << " shed (deadline), " << stats.jobs_queued << " queued, "
      << stats.jobs_running << " running\n"
      << "  throughput: " << FormatFixed(stats.jobs_per_sec, 2)
      << " jobs/s\n"
      << "  modeled latency: p50 " << FormatFixed(stats.p50_modeled_ms, 4)
      << " ms, p95 " << FormatFixed(stats.p95_modeled_ms, 4) << " ms, p99 "
      << FormatFixed(stats.p99_modeled_ms, 4) << " ms\n"
      << "  wall latency:    p50 " << FormatFixed(stats.p50_wall_ms, 2)
      << " ms, p95 " << FormatFixed(stats.p95_wall_ms, 2) << " ms, p99 "
      << FormatFixed(stats.p99_wall_ms, 2) << " ms\n";
  const uint64_t lookups = stats.cache_hits + stats.cache_misses;
  out << "  graph cache: " << stats.cache_hits << " hits / " << lookups
      << " lookups ("
      << FormatFixed(lookups > 0 ? 100.0 * static_cast<double>(
                                       stats.cache_hits) /
                                       static_cast<double>(lookups)
                                 : 0,
                     1)
      << "%), " << stats.cache_evictions << " evictions ("
      << FormatFixed(static_cast<double>(stats.cache_bytes_evicted) /
                         (1024.0 * 1024.0),
                     1)
      << " MiB), "
      << FormatFixed(static_cast<double>(stats.cache_resident_bytes) /
                         (1024.0 * 1024.0),
                     1)
      << " MiB resident\n";
  if (stats.gang_jobs_completed > 0) {
    out << "  gang jobs: " << stats.gang_jobs_completed << " completed, "
        << FormatFixed(static_cast<double>(stats.exchange_bytes_total) /
                           (1024.0 * 1024.0),
                       3)
        << " MiB exchanged over " << stats.exchange_rounds_total
        << " interconnect rounds\n";
  }

  if (!stats.tenants.empty()) {
    TablePrinter tenant_table({"tenant", "prio", "submitted", "done",
                               "failed", "rejected", "shed",
                               "mean queue (ms)"});
    for (const TenantStats& t : stats.tenants) {
      const uint64_t dequeued = t.jobs_completed + t.jobs_failed +
                                t.jobs_rejected + t.jobs_shed_deadline;
      tenant_table.AddRow(
          {t.name.empty() ? "-" : t.name, std::to_string(t.priority),
           std::to_string(t.jobs_submitted), std::to_string(t.jobs_completed),
           std::to_string(t.jobs_failed), std::to_string(t.jobs_rejected),
           std::to_string(t.jobs_shed_deadline),
           FormatFixed(dequeued > 0 ? t.queue_wait_ms_total /
                                          static_cast<double>(dequeued)
                                    : 0,
                       2)});
    }
    tenant_table.Print(out);
  }

  TablePrinter table({"device", "vendor", "done", "failed", "rejected",
                      "busy (ms)", "modeled (ms)", "util", "RAM",
                      "hit/miss", "resident"});
  for (const DeviceStats& d : stats.devices) {
    table.AddRow({d.name, d.vendor, std::to_string(d.jobs_completed),
                  std::to_string(d.jobs_failed),
                  std::to_string(d.jobs_rejected),
                  FormatFixed(d.busy_wall_ms, 1),
                  FormatFixed(d.modeled_ms, 3),
                  FormatFixed(100 * d.utilization, 1) + "%",
                  FormatFixed(static_cast<double>(d.memory_capacity_bytes) /
                                  (1024.0 * 1024.0),
                              1) +
                      " MiB",
                  std::to_string(d.cache_hits) + "/" +
                      std::to_string(d.cache_misses),
                  FormatFixed(static_cast<double>(d.cache_resident_bytes) /
                                  (1024.0 * 1024.0),
                              1) +
                      " MiB"});
  }
  table.Print(out);
  return out.str();
}

std::string FormatTraceSummary(const std::vector<trace::TraceEvent>& events,
                               uint64_t dropped_spans) {
  std::ostringstream out;
  if (events.empty()) {
    out << "Trace summary: no spans recorded\n";
    if (dropped_spans > 0) {
      out << "WARNING: " << dropped_spans
          << " spans were dropped from the trace ring — the summary is "
             "incomplete (see adgraph_trace_dropped_spans_total)\n";
    }
    return out.str();
  }

  struct TrackGroup {
    uint64_t spans = 0;
    double busy_us = 0;
    double first_ts = 0;
    double last_end = 0;
  };
  std::map<uint64_t, TrackGroup> tracks;
  // Per span name: every duration (us), for count / total / p95.
  std::map<std::string, std::vector<double>> by_name;
  for (const trace::TraceEvent& e : events) {
    auto [it, inserted] = tracks.try_emplace(e.track);
    TrackGroup& g = it->second;
    if (inserted || e.ts_us < g.first_ts) g.first_ts = e.ts_us;
    g.last_end = std::max(g.last_end, e.ts_us + e.dur_us);
    g.spans += 1;
    g.busy_us += e.dur_us;
    by_name[e.category + ":" + e.name].push_back(e.dur_us);
  }

  const std::vector<std::string> names = trace::TrackNames();
  out << "Trace summary: " << events.size() << " spans across "
      << tracks.size() << " tracks\n";
  TablePrinter table({"track", "spans", "busy (ms)", "span (ms)"});
  for (const auto& [track, g] : tracks) {
    std::string name = track < names.size() ? names[track]
                                            : "track " + std::to_string(track);
    table.AddRow({name, std::to_string(g.spans),
                  FormatFixed(g.busy_us / 1000.0, 3),
                  FormatFixed((g.last_end - g.first_ts) / 1000.0, 3)});
  }
  table.Print(out);

  // Top span names by accumulated duration — the "where did it go" list.
  struct NameGroup {
    std::string name;
    uint64_t count = 0;
    double total_us = 0;
    double p95_us = 0;
    double p99_us = 0;
  };
  std::vector<NameGroup> ranked;
  ranked.reserve(by_name.size());
  for (auto& [name, durations] : by_name) {
    NameGroup g;
    g.name = name;
    g.count = durations.size();
    for (double d : durations) g.total_us += d;
    g.p95_us = Percentile(durations, 0.95);
    g.p99_us = Percentile(std::move(durations), 0.99);
    ranked.push_back(std::move(g));
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.total_us > b.total_us;
  });
  constexpr size_t kTop = 10;
  out << "Top spans by total duration:\n";
  TablePrinter top({"span", "count", "total (ms)", "p95 (ms)", "p99 (ms)"});
  for (size_t i = 0; i < std::min(kTop, ranked.size()); ++i) {
    top.AddRow({ranked[i].name, std::to_string(ranked[i].count),
                FormatFixed(ranked[i].total_us / 1000.0, 3),
                FormatFixed(ranked[i].p95_us / 1000.0, 3),
                FormatFixed(ranked[i].p99_us / 1000.0, 3)});
  }
  top.Print(out);
  if (dropped_spans > 0) {
    out << "WARNING: " << dropped_spans
        << " spans were dropped from the trace ring — the summary is "
           "incomplete (see adgraph_trace_dropped_spans_total)\n";
  }
  return out.str();
}

std::string FormatMetricsReport(const std::vector<obs::SampleBatch>& batches,
                                const std::vector<obs::AlertEvent>& alert_log,
                                uint64_t dropped_batches) {
  std::ostringstream out;
  if (batches.empty()) {
    out << "Metrics: no samples collected\n";
    return out.str();
  }
  const obs::SampleBatch& latest = batches.back();
  out << "Metrics: " << batches.size() << " sample batches retained ("
      << dropped_batches << " overwritten), last at "
      << FormatFixed(latest.ts_ms, 1) << " ms\n";

  // Latest values of the headline families, one row per labeled series.
  // Histograms render as count/sum plus the estimated p95.
  TablePrinter table({"series", "value"});
  size_t rows = 0;
  constexpr size_t kMaxRows = 40;
  for (const obs::FamilySnapshot& family : latest.families) {
    for (const obs::SeriesSnapshot& series : family.series) {
      if (rows >= kMaxRows) break;
      std::string name = family.name;
      if (!series.labels.empty()) {
        name += '{';
        for (size_t i = 0; i < series.labels.size(); ++i) {
          if (i) name += ',';
          name += series.labels[i].first + "=" + series.labels[i].second;
        }
        name += '}';
      }
      std::string value;
      if (family.kind == obs::MetricKind::kHistogram) {
        value = std::to_string(series.histogram.count) + " obs, p95 " +
                FormatFixed(series.histogram.Quantile(0.95), 3);
      } else {
        value = FormatFixed(series.value, 3);
      }
      table.AddRow({name, value});
      ++rows;
    }
  }
  table.Print(out);

  if (!alert_log.empty()) {
    out << "Alert transitions:\n";
    TablePrinter alerts({"t (ms)", "rule", "state", "value", "threshold"});
    for (const obs::AlertEvent& event : alert_log) {
      alerts.AddRow({FormatFixed(event.ts_ms, 1), event.rule,
                     event.state == obs::AlertEvent::State::kFiring
                         ? "FIRING"
                         : "resolved",
                     FormatFixed(event.value, 3),
                     FormatFixed(event.threshold, 3)});
    }
    alerts.Print(out);
  } else {
    out << "Alerts: none fired\n";
  }
  return out.str();
}

}  // namespace adgraph::prof
