#include <algorithm>
#include <cmath>

#include "graph/datasets.h"
#include "graph/generate.h"
#include "workloads.h"

namespace adgraph::perfbench {

const std::vector<std::pair<std::string, std::string>>& EndToEndCatalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = {
      {"jobs_per_s", "1/s"},     {"latency_p50_ms", "ms"},
      {"latency_p95_ms", "ms"},  {"modeled_ms", "ms"},
      {"setup_s", "s"},          {"peak_rss_mb", "MiB"},
  };
  return catalog;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerCatalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = {
      {"graph.build_ms", "ms"},
      {"graph.edges", "count"},
      {"vgpu.host_ns_per_warp_inst", "ns"},
      {"sim_minst_per_s", "Minst/s"},
      {"vgpu.warp_inst", "count"},
      {"vgpu.kernels", "count"},
      {"vgpu.l1_hit_rate", "ratio"},
      {"vgpu.l2_hit_rate", "ratio"},
      {"vgpu.dram_mb", "MB"},
      {"vgpu.divergent_branch_ratio", "ratio"},
      {"vgpu.gld_efficiency", "ratio"},
      {"core.stage_ms", "ms"},
      {"core.stages", "count"},
      {"core.stage_mb", "MB"},
      {"engine.bfs.host_ms", "ms"},
      {"engine.tc.host_ms", "ms"},
      {"engine.esbv.host_ms", "ms"},
      {"engine.sssp.host_ms", "ms"},
      {"engine.bc.host_ms", "ms"},
      {"engine.cc.host_ms", "ms"},
      {"engine.pagerank.host_ms", "ms"},
      {"part.host_ms", "ms"},
      {"part.exchange_mb", "MB"},
      {"part.exchange_rounds", "count"},
      {"part.exchange_ms", "ms"},
      {"ooc.host_ms", "ms"},
      {"ooc.staged_mb", "MB"},
      {"ooc.shards", "count"},
      {"ooc.overlap_speedup", "x"},
      {"serve.queue_p50_ms", "ms"},
      {"serve.queue_p95_ms", "ms"},
      {"serve.exec_p50_ms", "ms"},
      {"serve.exec_p95_ms", "ms"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.stale_invalidated", "count"},
      {"serve.incremental_ratio", "ratio"},
      {"net.submit_rtt_ms", "ms"},
      {"net.poll_rtt_ms", "ms"},
      {"net.polls_per_job", "count"},
      {"net.wire_ms", "ms"},
      {"net.mutate_rtt_ms", "ms"},
      {"net.writer_late_ms", "ms"},
      {"net.protocol_errors", "count"},
      {"mutate_p95_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return catalog;
}

void SetLayer(Outcome* out, const std::string& name, double value,
              uint64_t samples) {
  for (const auto& [catalog_name, unit] : PerLayerCatalog()) {
    if (catalog_name == name) {
      out->per_layer[name] = {std::isfinite(value) ? value : 0, unit, samples};
      return;
    }
  }
  out->Fail("internal: per-layer metric '" + name + "' is not in the catalog");
}

Result<graph::CsrGraph> BuildProxy(const std::string& name,
                                   double extra_divisor, bool weighted,
                                   double* build_ms, double* edges) {
  ADGRAPH_ASSIGN_OR_RETURN(graph::DatasetSpec spec, graph::FindDataset(name));
  graph::CsrGraph g;
  {
    Span span("graph.materialize", "graph");
    ADGRAPH_ASSIGN_OR_RETURN(g, graph::Materialize(spec, extra_divisor));
    *build_ms += span.End();
  }
  if (weighted) {
    graph::CooGraph coo = g.ToCoo();
    Span span("graph.attach_weights", "graph");
    graph::AttachRandomWeights(&coo, 0.0, 1.0, spec.recipe.seed + 1000);
    *build_ms += span.End();
    Span build("graph.from_coo", "graph");
    graph::CsrBuildOptions options;
    options.remove_duplicates = true;
    options.remove_self_loops = true;
    ADGRAPH_ASSIGN_OR_RETURN(g, graph::CsrGraph::FromCoo(coo, options));
    *build_ms += build.End();
  }
  *edges += double(g.num_edges());
  return g;
}

std::vector<graph::vid_t> HubSources(const graph::CsrGraph& g) {
  std::vector<graph::vid_t> vertices(g.num_vertices());
  for (graph::vid_t v = 0; v < g.num_vertices(); ++v) vertices[v] = v;
  const size_t keep = std::max<size_t>(1, vertices.size() / 8);
  std::partial_sort(vertices.begin(), vertices.begin() + keep, vertices.end(),
                    [&g](graph::vid_t a, graph::vid_t b) {
                      return g.degree(a) != g.degree(b)
                                 ? g.degree(a) > g.degree(b)
                                 : a < b;
                    });
  vertices.resize(keep);
  return vertices;
}

// ------------------------------------------------------------ VgpuTotals

void VgpuTotals::AddOp(double op_warp_inst, double op_kernels,
                       double op_dram_bytes, double l1_hit_rate,
                       double l2_hit_rate, double divergent_ratio,
                       double gld_efficiency) {
  ops += 1;
  warp_inst += op_warp_inst;
  kernels += op_kernels;
  dram_bytes += op_dram_bytes;
  l1_weighted += l1_hit_rate * op_warp_inst;
  l2_weighted += l2_hit_rate * op_warp_inst;
  div_weighted += divergent_ratio * op_warp_inst;
  gld_weighted += gld_efficiency * op_warp_inst;
}

void VgpuTotals::AddKernels(const std::vector<vgpu::KernelStats>& log) {
  vgpu::KernelCounters sum;
  for (const vgpu::KernelStats& kernel : log) sum.Merge(kernel.counters);
  AddOp(static_cast<double>(sum.warp_inst_issued), double(log.size()),
        static_cast<double>(sum.dram_read_bytes + sum.dram_write_bytes),
        sum.l1_hit_rate(), sum.l2_hit_rate(), sum.divergent_branch_ratio(),
        sum.gld_efficiency());
}

void VgpuTotals::Emit(Outcome* out) const {
  const auto n = static_cast<uint64_t>(ops);
  SetLayer(out, "vgpu.warp_inst", PerOp(warp_inst, ops), n);
  SetLayer(out, "vgpu.kernels", PerOp(kernels, ops), n);
  SetLayer(out, "vgpu.dram_mb", PerOp(dram_bytes, ops) / 1e6, n);
  SetLayer(out, "vgpu.l1_hit_rate", PerOp(l1_weighted, warp_inst), n);
  SetLayer(out, "vgpu.l2_hit_rate", PerOp(l2_weighted, warp_inst), n);
  SetLayer(out, "vgpu.divergent_branch_ratio", PerOp(div_weighted, warp_inst),
           n);
  SetLayer(out, "vgpu.gld_efficiency", PerOp(gld_weighted, warp_inst), n);
}

// ----------------------------------------------------------- TraceSlices

TraceSlices::TraceSlices(bool traced_run)
    : traced_run_(traced_run), start_(Clock::now()) {}

bool TraceSlices::TracedNow() const {
  if (!traced_run_) return false;
  const double elapsed_s = MsBetween(start_, Clock::now()) / 1e3;
  return static_cast<uint64_t>(elapsed_s / kSliceSeconds) % 2 == 1;
}

void TraceSlices::CountDone(bool traced) {
  (traced ? done_traced_ : done_untraced_).fetch_add(1);
}

void TraceSlices::Finish(Outcome* out) const {
  if (!traced_run_) return;
  // Wall time per mode: full slices alternate untraced/traced starting
  // untraced; the trailing partial slice belongs to the next mode.
  const double wall_s = MsBetween(start_, Clock::now()) / 1e3;
  const auto full = static_cast<uint64_t>(wall_s / kSliceSeconds);
  double untraced_s = double((full + 1) / 2) * kSliceSeconds;
  double traced_s = double(full / 2) * kSliceSeconds;
  const double rest = wall_s - double(full) * kSliceSeconds;
  (full % 2 == 0 ? untraced_s : traced_s) += rest;
  const double untraced_rate = PerOp(double(done_untraced_.load()), untraced_s);
  const double traced_rate = PerOp(double(done_traced_.load()), traced_s);
  const double overhead =
      untraced_rate > 0 ? 100.0 * (untraced_rate - traced_rate) / untraced_rate
                        : 0;
  SetLayer(out, "trace.overhead_pct", overhead,
           done_traced_.load() + done_untraced_.load());
  out->notes.push_back("traced " + std::to_string(done_traced_.load()) +
                       " of " +
                       std::to_string(done_traced_.load() +
                                      done_untraced_.load()) +
                       " operations, " +
                       std::to_string(Tracer::Get().Spans().size()) +
                       " spans");
}

// ---------------------------------------------------------- TimedStaging

Result<core::ResidentCsr> TimedStaging::Acquire(vgpu::Device* device,
                                                const graph::CsrGraph& base,
                                                core::GraphVariant variant) {
  Span span("core.stage", "core");
  auto staged = core::Stage(nullptr, device, base, variant);
  stage_ms += span.End();
  stages += 1;
  if (staged.ok()) {
    const core::DeviceCsr& csr = **staged;
    stage_bytes +=
        double(csr.num_vertices + 1) * sizeof(graph::eid_t) +
        double(csr.num_edges) * sizeof(graph::vid_t) +
        (csr.has_weights() ? double(csr.num_edges) * sizeof(graph::weight_t)
                           : 0.0);
  }
  return staged;
}

}  // namespace adgraph::perfbench
