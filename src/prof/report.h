#ifndef ADGRAPH_PROF_REPORT_H_
#define ADGRAPH_PROF_REPORT_H_

#include <string>
#include <vector>

#include "obs/alerts.h"
#include "obs/export.h"
#include "prof/server_stats.h"
#include "trace/trace.h"
#include "vgpu/device.h"

namespace adgraph::prof {

/// \brief Human-readable per-kernel report of a device's launch history —
/// the simulator's equivalent of an `ncu --print-summary` / `rocprof`
/// session dump.
///
/// Columns: kernel name, launches (consecutive same-name launches are
/// folded), grid x block, total modeled time, share of device time, and
/// the headline counters (instructions, global transactions, L2 hit rate,
/// shared accesses, divergent branches).
std::string FormatKernelLog(const vgpu::Device& device,
                            size_t start_index = 0);

/// Human-readable dump of a serving-pool snapshot: a totals block (jobs
/// completed/rejected/queued, throughput, p50/p95 modeled and wall
/// latency) followed by a per-device utilization table.
std::string FormatServerStats(const ServerStats& stats);

/// Compact text companion to the Chrome trace-event JSON export: a
/// per-track table (spans, busy wall time) followed by the top span names
/// by total duration — a readable answer to "where did the time go"
/// without loading Perfetto.  A trailing WARNING line when
/// `dropped_spans` > 0 is the human-readable face of
/// `adgraph_trace_dropped_spans_total`: a summary over a ring that
/// overwrote events is not the whole story.
std::string FormatTraceSummary(const std::vector<trace::TraceEvent>& events,
                               uint64_t dropped_spans);

/// Human-readable tail of a metrics sampling session (DESIGN.md §2.9):
/// sample/drop counts, the latest batch's headline series (jobs, queue,
/// cache, per-worker instruction/DRAM counters), and every alert
/// transition of the run — the serve report's answer to "what did the
/// sampler see" without opening the exported file.
std::string FormatMetricsReport(const std::vector<obs::SampleBatch>& batches,
                                const std::vector<obs::AlertEvent>& alert_log,
                                uint64_t dropped_batches);

}  // namespace adgraph::prof

#endif  // ADGRAPH_PROF_REPORT_H_
