// paper_cells — the Table 5 cells through core::Run, batch, one thread.
//
// BFS from the max-degree vertex of the symmetrized proxy, nvGRAPH-style
// unoriented TC with a 2048-entry hash, and ESBV of a 60% vertex subset, on
// all four paper GPUs over one web, one citation and one social proxy.
// Device RAM is scaled like bench_table5_perf (dataset divisor x extra
// divisor); every cell gets a fresh device and its own upload.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/api.h"
#include "core/host_ref.h"
#include "graph/datasets.h"
#include "graph/generate.h"
#include "serve/job.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"
#include "workloads.h"

namespace adgraph::perfbench {
namespace {

/// Extra shrink on top of each dataset's own divisor (device RAM shrinks
/// by the same factor, as in bench_table5_perf --extra-divisor).
constexpr double kExtraDivisor = 32;
/// One proxy per skew/locality class: web, citation, social.
constexpr const char* kDatasets[] = {"web-Google", "cit-Patents",
                                     "soc-liveJournal1"};
constexpr double kEsbvFraction = 0.6;
constexpr core::Algo kAlgos[] = {core::Algo::kBfs, core::Algo::kTriangleCount,
                                 core::Algo::kEsbv};

struct Dataset {
  std::string name;
  double memory_scale = 1;
  graph::CsrGraph symmetric;  ///< BFS and TC input
  graph::CsrGraph weighted;   ///< ESBV input
  graph::vid_t bfs_source = 0;
  std::vector<graph::vid_t> esbv_vertices;
};

struct Cell {
  size_t dataset = 0;
  const vgpu::ArchConfig* gpu = nullptr;
  core::Algo algo = core::Algo::kBfs;
};

/// What one executed cell left behind.
struct CellRun {
  bool ok = false;
  double modeled_ms = 0;  ///< device kernel time (Device::elapsed_ms)
  double paper_ms = 0;    ///< the payload's time_ms (Table 5 convention)
  uint64_t fingerprint = 0;
};

std::string AlgoKey(core::Algo algo) {
  return std::string(core::AlgorithmName(algo));
}

Result<Dataset> BuildDataset(const std::string& name, size_t index,
                             uint64_t seed, double* build_ms,
                             double* edges) {
  ADGRAPH_ASSIGN_OR_RETURN(graph::DatasetSpec spec, graph::FindDataset(name));
  Dataset d;
  d.name = name;
  d.memory_scale = spec.scale_divisor * kExtraDivisor;
  graph::CsrGraph directed;
  {
    Span span("graph.materialize", "graph");
    ADGRAPH_ASSIGN_OR_RETURN(directed,
                             graph::Materialize(spec, kExtraDivisor));
    *build_ms += span.End();
  }
  {
    Span span("graph.from_coo", "graph");
    graph::CsrBuildOptions sym;
    sym.make_undirected = true;
    sym.remove_duplicates = true;
    sym.remove_self_loops = true;
    ADGRAPH_ASSIGN_OR_RETURN(
        d.symmetric, graph::CsrGraph::FromCoo(directed.ToCoo(), sym));
    *build_ms += span.End();
  }
  for (graph::vid_t v = 0; v < d.symmetric.num_vertices(); ++v) {
    if (d.symmetric.degree(v) > d.symmetric.degree(d.bfs_source)) {
      d.bfs_source = v;
    }
  }
  {
    graph::CooGraph coo = directed.ToCoo();
    Span span("graph.attach_weights", "graph");
    graph::AttachRandomWeights(&coo, 0.0, 1.0, spec.recipe.seed + 1000);
    *build_ms += span.End();
    Span build("graph.from_coo", "graph");
    ADGRAPH_ASSIGN_OR_RETURN(d.weighted, graph::CsrGraph::FromCoo(coo));
    *build_ms += build.End();
  }
  *edges += double(directed.num_edges() + d.symmetric.num_edges() +
                   d.weighted.num_edges());
  // The ESBV pseudo-cluster: each vertex kept with probability 0.6, drawn
  // from the run seed.
  std::mt19937_64 rng = MakeRng(seed, 100 + index);
  std::bernoulli_distribution keep(kEsbvFraction);
  for (graph::vid_t v = 0; v < d.weighted.num_vertices(); ++v) {
    if (keep(rng)) d.esbv_vertices.push_back(v);
  }
  return d;
}

core::Params ParamsFor(const Dataset& d, core::Algo algo) {
  switch (algo) {
    case core::Algo::kBfs: {
      core::BfsOptions o;
      o.source = d.bfs_source;
      o.assume_symmetric = true;
      return o;
    }
    case core::Algo::kTriangleCount: {
      core::TcOptions o;
      o.orient = false;  // nvGRAPH-style full-adjacency counting
      o.hash_capacity = 2048;
      return o;
    }
    default: {
      core::EsbvOptions o;
      o.vertices = d.esbv_vertices;
      return o;
    }
  }
}

const graph::CsrGraph& InputFor(const Dataset& d, core::Algo algo) {
  return algo == core::Algo::kEsbv ? d.weighted : d.symmetric;
}

std::vector<std::tuple<graph::vid_t, graph::vid_t, double>> CanonicalEdges(
    const graph::CsrGraph& g) {
  std::vector<std::tuple<graph::vid_t, graph::vid_t, double>> edges;
  edges.reserve(g.num_edges());
  for (graph::vid_t u = 0; u < g.num_vertices(); ++u) {
    auto adj = g.neighbors(u);
    for (size_t i = 0; i < adj.size(); ++i) {
      edges.emplace_back(u, adj[i],
                         g.has_weights() ? g.edge_weights(u)[i] : 1.0);
    }
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

/// Checks one cell's payload against the host reference.
bool MatchesHostRef(const Dataset& d, core::Algo algo,
                    const core::AlgoResult& result, std::string* why) {
  switch (algo) {
    case core::Algo::kBfs: {
      const auto& levels = std::get<core::BfsResult>(result).levels;
      if (levels != core::host_ref::BfsLevels(d.symmetric, d.bfs_source)) {
        *why = "BFS levels differ from host_ref";
        return false;
      }
      return true;
    }
    case core::Algo::kTriangleCount: {
      const uint64_t got = std::get<core::TcResult>(result).triangles;
      const uint64_t want = core::host_ref::TriangleCount(d.symmetric);
      if (got != want) {
        *why = "TC " + std::to_string(got) + " != host_ref " +
               std::to_string(want);
        return false;
      }
      return true;
    }
    default: {
      // Edge order inside an adjacency list is not part of the contract:
      // compare the (u, v, w) multisets.
      const graph::CsrGraph& got = std::get<core::EsbvResult>(result).subgraph;
      graph::CsrGraph want =
          core::host_ref::ExtractSubgraph(d.weighted, d.esbv_vertices);
      if (got.num_vertices() != want.num_vertices() ||
          CanonicalEdges(got) != CanonicalEdges(want)) {
        *why = "ESBV subgraph differs from host_ref";
        return false;
      }
      return true;
    }
  }
}

}  // namespace

Outcome RunPaperCells(const RunConfig& config) {
  Outcome out;
  Tracer::Get().Enable(config.trace);

  // ---- set-up, repeated; the last repetition's datasets are used.
  std::vector<Dataset> datasets;
  std::vector<double> setup_s;
  double build_ms = 0;
  double edges = 0;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    datasets.clear();
    build_ms = 0;
    edges = 0;
    Span setup("setup", "bench", OperationId(config.seed, 1000000 + rep));
    for (size_t i = 0; i < std::size(kDatasets); ++i) {
      auto d = BuildDataset(kDatasets[i], i, config.seed, &build_ms, &edges);
      if (!d.ok()) {
        out.attempted += 1;
        out.Fail("dataset " + std::string(kDatasets[i]) + ": " +
                 d.status().ToString());
        return out;
      }
      datasets.push_back(std::move(*d));
    }
    setup_s.push_back(setup.End() / 1e3);
  }

  std::vector<Cell> cells;
  for (size_t d = 0; d < datasets.size(); ++d) {
    for (const vgpu::ArchConfig* gpu : vgpu::PaperGpus()) {
      for (core::Algo algo : kAlgos) cells.push_back({d, gpu, algo});
    }
  }

  // ---- timed phase: whole passes over every cell until time is up.
  std::vector<CellRun> first_pass(cells.size());
  std::vector<core::AlgoResult> first_results(cells.size());
  std::vector<Window> passes;
  std::map<std::string, std::vector<double>> algo_latency_ms;
  uint64_t cells_run = 0;
  VgpuTotals vgpu_pass;  // exact counters, first pass
  TimedStaging staging;
  std::map<std::string, std::pair<double, double>> engine_ms;  // sum, count
  double run_self_ms = 0;
  double warp_inst_all = 0;
  uint64_t op_index = 0;
  TraceSlices slices(config.trace);
  const auto phase_start = Clock::now();
  for (size_t pass = 0;; ++pass) {
    if (pass > 0 && MsBetween(phase_start, Clock::now()) >=
                        config.seconds * 1e3) {
      break;
    }
    const auto pass_start = Clock::now();
    Window& window = passes.emplace_back();
    for (size_t c = 0; c < cells.size(); ++c) {
      const Cell& cell = cells[c];
      const Dataset& d = datasets[cell.dataset];
      const bool traced = slices.TracedNow();
      out.attempted += 1;
      const double staged_before = staging.stage_ms;
      Span op("cell", "bench", OperationId(config.seed, op_index++), traced);
      std::unique_ptr<vgpu::Device> device;
      {
        Span span("vgpu.device", "vgpu");
        vgpu::Device::Options options;
        options.memory_scale = d.memory_scale;
        device = std::make_unique<vgpu::Device>(*cell.gpu, options);
      }
      const std::string algo = AlgoKey(cell.algo);
      Span run_span("engine." + algo, "engine");
      auto result = core::Run(device.get(), core::AlgoSpec{cell.algo},
                              InputFor(d, cell.algo),
                              ParamsFor(d, cell.algo), &staging);
      const double run_ms = run_span.End();
      window.latencies_ms.push_back(op.End());
      algo_latency_ms[algo].push_back(window.latencies_ms.back());
      cells_run += 1;
      slices.CountDone(traced);

      const std::string label =
          algo + "/" + d.name + "/" + cell.gpu->name;
      if (!result.ok()) {
        out.Fail(label + ": " + result.status().ToString());
        continue;
      }
      auto& [sum, count] = engine_ms[algo];
      sum += run_ms;
      count += 1;
      run_self_ms += run_ms - (staging.stage_ms - staged_before);
      double warp_inst = 0;
      for (const auto& k : device->kernel_log()) {
        warp_inst += double(k.counters.warp_inst_issued);
      }
      warp_inst_all += warp_inst;
      CellRun r{true, device->elapsed_ms(), core::ResultTimeMs(*result),
                serve::FingerprintPayload(*result)};
      if (pass == 0) {
        first_pass[c] = r;
        first_results[c] = std::move(*result);
        vgpu_pass.AddKernels(device->kernel_log());
      } else if (r.modeled_ms != first_pass[c].modeled_ms ||
                 r.fingerprint != first_pass[c].fingerprint) {
        out.Fail(label + ": pass " + std::to_string(pass) +
                 " differs from pass 0 (modeled or result)");
      }
    }
    window.seconds = MsBetween(pass_start, Clock::now()) / 1e3;
  }
  const double wall_s = MsBetween(phase_start, Clock::now()) / 1e3;
  const double rss_mb = PeakRssMb();

  // ---- result checks against core/host_ref (outside timing and set-up).
  for (size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    std::string why;
    if (first_pass[c].ok &&
        !MatchesHostRef(datasets[cell.dataset], cell.algo, first_results[c],
                        &why)) {
      out.Fail(AlgoKey(cell.algo) + "/" + datasets[cell.dataset].name + "/" +
               cell.gpu->name + ": " + why);
    }
  }

  // ---- end-to-end metrics.
  SetWindowMetrics(&out, passes);
  double modeled_sum = 0;
  for (const CellRun& r : first_pass) modeled_sum += r.modeled_ms;
  out.end_to_end["modeled_ms"] = {PerOp(modeled_sum, double(cells.size())),
                                  "ms", cells.size()};
  SetSetupAndRss(&out, setup_s, rss_mb);

  // ---- paper-shape line (printed, not gated).
  auto time_of = [&](size_t d, const std::string& gpu, core::Algo algo) {
    for (size_t c = 0; c < cells.size(); ++c) {
      if (cells[c].dataset == d && cells[c].gpu->name == gpu &&
          cells[c].algo == algo) {
        return first_pass[c].paper_ms;
      }
    }
    return 0.0;
  };
  // Figure 4/5 averages quoted in EXPERIMENTS.md: paper, full-scale sweep.
  const double fig5_paper[] = {1.76, 1.01, 0.68};
  const double fig5_sweep[] = {1.56, 0.81, 0.77};
  const double fig4_paper[] = {1.69, 0.84, 0.92};
  const double fig4_sweep[] = {1.48, 0.95, 0.92};
  std::string shape =
      "paper-shape (proxy subset: 3 datasets at extra divisor " +
      std::to_string(int(kExtraDivisor)) +
      "; modeled speed-up = baseline time / target time, mean over "
      "datasets)";
  for (size_t a = 0; a < std::size(kAlgos); ++a) {
    double z100l = 0;
    double z100 = 0;
    for (size_t d = 0; d < datasets.size(); ++d) {
      const double t_z100l = time_of(d, "Z100L", kAlgos[a]);
      const double t_z100 = time_of(d, "Z100", kAlgos[a]);
      if (t_z100l > 0) z100l += time_of(d, "A100", kAlgos[a]) / t_z100l;
      if (t_z100 > 0) z100 += time_of(d, "V100", kAlgos[a]) / t_z100;
    }
    z100l /= double(datasets.size());
    z100 /= double(datasets.size());
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  " | %s Z100L/A100 %.2fx (Fig5 paper %.2fx, sweep %.2fx)"
                  " Z100/V100 %.2fx (Fig4 paper %.2fx, sweep %.2fx)",
                  AlgoKey(kAlgos[a]).c_str(), z100l, fig5_paper[a],
                  fig5_sweep[a], z100, fig4_paper[a], fig4_sweep[a]);
    shape += buf;
  }
  out.notes.push_back(shape);
  std::string by_algo = "cell latency by algorithm (n, p50, p95 ms):";
  for (const auto& [algo, latencies] : algo_latency_ms) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), " %s %zu %.2f %.2f", algo.c_str(),
                  latencies.size(), Quantile(latencies, 0.5),
                  Quantile(latencies, 0.95));
    by_algo += buf;
  }
  out.notes.push_back(by_algo);

  // ---- per-layer metrics.
  SetLayer(&out, "graph.build_ms", build_ms, 1);
  SetLayer(&out, "graph.edges", edges, 1);
  vgpu_pass.Emit(&out);
  SetLayer(&out, "vgpu.host_ns_per_warp_inst",
           PerOp(run_self_ms * 1e6, warp_inst_all), cells_run);
  SetLayer(&out, "sim_minst_per_s", PerOp(warp_inst_all / 1e6, wall_s),
           cells_run);
  SetLayer(&out, "core.stage_ms", PerOp(staging.stage_ms, double(staging.stages)),
           staging.stages);
  SetLayer(&out, "core.stages",
           PerOp(double(staging.stages), double(cells_run)),
           cells_run);
  SetLayer(&out, "core.stage_mb",
           PerOp(staging.stage_bytes / 1e6, double(staging.stages)),
           staging.stages);
  for (const auto& [algo, sum_count] : engine_ms) {
    SetLayer(&out, "engine." + algo + ".host_ms",
             PerOp(sum_count.first, sum_count.second),
             static_cast<uint64_t>(sum_count.second));
  }
  slices.Finish(&out);
  return out;
}

}  // namespace adgraph::perfbench
