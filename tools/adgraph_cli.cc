// adgraph_cli — run any library algorithm on a graph file (or a generated
// proxy) on any simulated GPU, with optional profiling output.  The
// "downstream user" entry point: no C++ needed to use the library.
//
// Usage:
//   adgraph_cli --algo=bfs --graph=edges.txt [--gpu=A100] [--source=0]
//   adgraph_cli --algo=pagerank --dataset=web-Google [--extra-divisor=8]
//   adgraph_cli --algo=tc --generate=rmat --scale=14 --profile
//
// Algorithms: bfs, sssp, pagerank, tc, cc, kcore, jaccard, widest, esbv,
// color, bc.
// Graph sources (one of): --graph=FILE (edge list or .mtx), --dataset=NAME
// (paper proxy), --generate=rmat|er|ws|ba.
//
// Batch serving mode — submit a whole job list to the concurrent scheduler:
//   adgraph_cli serve-batch --jobs=jobs.txt --generate=rmat --scale=12
//       [--gpus=A100,V100] [--queue=64] [--overflow=block|reject]
//       [--headroom=1.0] [--occupancy-floor-ms=0]
// Each jobs.txt line is `ALGO [key=value]...` (see ParseJobLine below);
// blank lines and `#` comments are skipped.
//
// The mode comes first, and each mode declares the flags it accepts (Main).
// A flag it does not declare, a stray argument, a malformed or out-of-range
// number or an unknown name exits 2, naming the flag, before any graph
// loads or any socket connects.

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "capi/adgraph.h"
#include "core/api.h"
#include "graph/datasets.h"
#include "graph/generate.h"
#include "graph/io.h"
#include "graph/stats.h"
#include "net/client.h"
#include "net/server.h"
#include "net/tenant.h"
#include "net/wire.h"
#include "obs/alerts.h"
#include "obs/export.h"
#include "part/partition.h"
#include "prof/report.h"
#include "serve/job.h"
#include "serve/registry.h"
#include "serve/scheduler.h"
#include "trace/trace.h"
#include "util/flags.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"

namespace adgraph {
namespace {

/// Last signal delivered to the process (0 = none).  SIGINT/SIGTERM flip
/// this; the serve loops poll it and shut down gracefully — drain what is
/// running, flush metrics exporters and trace JSON, then exit.
std::atomic<int> g_shutdown_signal{0};

void OnShutdownSignal(int sig) { g_shutdown_signal.store(sig); }

void InstallShutdownHandlers() {
  g_shutdown_signal.store(0);
  std::signal(SIGINT, OnShutdownSignal);
  std::signal(SIGTERM, OnShutdownSignal);
}

int Usage() {
  std::fprintf(stderr,
               "adgraph_cli %d.%d.%d\n"
               "usage: adgraph_cli --algo=ALGO (--graph=FILE | "
               "--dataset=NAME | --generate=KIND) [options]\n"
               "  ALGO: bfs sssp pagerank tc cc kcore jaccard widest esbv color bc\n"
               "  options: --gpu=Z100|V100|Z100L|A100  --source=N  --k=N\n"
               "           --scale=N --edge-factor=F --seed=N (generate)\n"
               "           --extra-divisor=F (dataset)  --profile\n"
               "           --undirected  --weights=random\n"
               "           --iters=N (pagerank)  --fraction=F (esbv)\n"
               "           --no-orient (tc)  --memory-scale=F (shrinks\n"
               "             device RAM, to demo over-budget runs)\n"
               "           --ooc [--shard-bytes=N] (bfs/pagerank: stream\n"
               "             vertex-range shards through a double buffer\n"
               "             instead of staging the whole graph)\n"
               "           --devices=N (bfs/pagerank: a gang of N simulated\n"
               "             devices over vertex-range shards;\n"
               "             --interconnect=pcie|nvlink,\n"
               "             --partition=uniform|degree)\n"
               "           --trace=FILE (Chrome trace-event JSON + summary)\n"
               "or:    adgraph_cli serve-batch --jobs=FILE <graph source>\n"
               "           [--gpus=A100,V100,...] [--queue=N]\n"
               "           [--overflow=block|reject] [--headroom=F]\n"
               "           [--occupancy-floor-ms=F] [--memory-scale=F]\n"
               "           [--graph-cache=on|off] [--trace=FILE]\n"
               "           [--metrics-out=FILE] [--metrics-format=prom|jsonl]\n"
               "           [--metrics-interval-ms=N] [--alert-rules=FILE]\n"
               "or:    adgraph_cli serve --listen=PORT <graph source>\n"
               "           [--tenants=FILE] [--handlers=N] [--max-sessions=N]\n"
               "           [pool flags as in serve-batch]\n"
               "           (runs until SIGINT/SIGTERM, then drains + flushes)\n"
               "or:    adgraph_cli client --connect=HOST:PORT --jobs=FILE\n"
               "           [--tenant=NAME] [--deadline-ms=F] [--timeout-ms=F]\n"
               "           (job files may hold `mutate add=U:V[:W] del=U:V\n"
               "            compact=1` lines — applied in order)\n"
               "or:    adgraph_cli mutate --connect=HOST:PORT [--graph=NAME]\n"
               "           [--add=U:V[:W],...] [--del=U:V,...] [--compact]\n"
               "           [--tenant=NAME]\n"
               "or:    adgraph_cli inspect --connect=HOST:PORT\n"
               "           [--job=N | --trace-id=HEX] [--timeout-ms=F]\n"
               "           (no selector: list the flight recorder's retained\n"
               "            worst jobs; with one: full span tree + profile)\n"
               "or:    adgraph_cli --version\n",
               ADGRAPH_VERSION_MAJOR, ADGRAPH_VERSION_MINOR,
               ADGRAPH_VERSION_PATCH);
  return 2;
}

/// Prints `status`, refused under `mode`, and returns exit status 2.
int Refuse(const char* mode, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", mode, status.ToString().c_str());
  return 2;
}

/// `result`, its error with `--flag: ` before the message, so the refusal
/// of a value by its parser names the flag.
template <typename T>
Result<T> Named(const char* flag, Result<T> result) {
  if (result.ok()) return result;
  return Status(result.status().code(), std::string("--") + flag + ": " +
                                            result.status().message());
}

/// A `--generate` graph generator over `--scale`, `--edge-factor` and
/// `--seed`.
using Generator = Result<graph::CooGraph> (*)(uint32_t scale,
                                              double edge_factor,
                                              uint64_t seed);

/// The generator `--generate` names.
Result<Generator> GeneratorByName(const std::string& kind) {
  if (kind == "rmat") {
    return +[](uint32_t scale, double ef, uint64_t seed) {
      return graph::GenerateRmat(
          {.scale = scale, .edge_factor = ef, .seed = seed});
    };
  }
  if (kind == "er") {
    return +[](uint32_t scale, double ef, uint64_t seed) {
      return graph::GenerateErdosRenyi(
          1u << scale, static_cast<graph::eid_t>(ef * (1u << scale)), seed);
    };
  }
  if (kind == "ws") {
    return +[](uint32_t scale, double, uint64_t seed) {
      return graph::GenerateWattsStrogatz(1u << scale, 8, 0.1, seed);
    };
  }
  if (kind == "ba") {
    return +[](uint32_t scale, double, uint64_t seed) {
      return graph::GenerateBarabasiAlbert(1u << scale, 4, seed);
    };
  }
  return Status::InvalidArgument("unknown generator '" + kind +
                                 "' (expected rmat, er, ws or ba)");
}

Result<graph::CsrGraph> LoadGraph(const Flags& flags) {
  graph::CooGraph coo;
  if (flags.Has("graph")) {
    std::string path = flags.GetString("graph", "");
    if (path.size() > 4 && path.substr(path.size() - 4) == ".mtx") {
      ADGRAPH_ASSIGN_OR_RETURN(coo, graph::ReadMatrixMarket(path));
    } else {
      ADGRAPH_ASSIGN_OR_RETURN(coo, graph::ReadEdgeList(path));
    }
  } else if (flags.Has("dataset")) {
    ADGRAPH_ASSIGN_OR_RETURN(
        auto spec, graph::FindDataset(flags.GetString("dataset", "")));
    return graph::Materialize(spec, flags.GetDouble("extra-divisor", 1.0));
  } else if (flags.Has("generate")) {
    ADGRAPH_ASSIGN_OR_RETURN(Generator generate,
                             GeneratorByName(flags.GetString("generate", "")));
    ADGRAPH_ASSIGN_OR_RETURN(
        coo, generate(static_cast<uint32_t>(flags.GetInt("scale", 14)),
                      flags.GetDouble("edge-factor", 8.0),
                      static_cast<uint64_t>(flags.GetInt("seed", 1))));
  } else {
    return Status::InvalidArgument("no graph source given");
  }
  if (flags.Has("weights")) {  // --weights=random, the one choice
    graph::AttachRandomWeights(&coo, 0.0, 1.0,
                               static_cast<uint64_t>(flags.GetInt("seed", 1)));
  }
  graph::CsrBuildOptions options;
  options.remove_duplicates = true;
  options.remove_self_loops = true;
  options.make_undirected = flags.GetBool("undirected", false);
  return graph::CsrGraph::FromCoo(coo, options);
}

/// Checks the `--generate` name, then loads the graph: 0, or the exit
/// status to stop with (2 for a refused name, 1 for a failed load).
int LoadCheckedGraph(const Flags& flags, const char* mode,
                     graph::CsrGraph* g) {
  if (flags.Has("generate")) {
    auto generator =
        Named("generate", GeneratorByName(flags.GetString("generate", "")));
    if (!generator.ok()) return Refuse(mode, generator.status());
  }
  auto loaded = LoadGraph(flags);
  if (!loaded.ok()) {
    std::fprintf(stderr, "failed to load graph: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  *g = std::move(*loaded);
  return 0;
}

/// The placement `--devices`, `--interconnect`, `--partition`, `--ooc` and
/// `--shard-bytes` ask for: one device unless a gang or a stream is named.
Result<core::Placement> PlacementFromFlags(const Flags& flags) {
  const int64_t devices = flags.GetInt("devices", 1);
  ADGRAPH_ASSIGN_OR_RETURN(
      vgpu::InterconnectConfig link,
      Named("interconnect", vgpu::InterconnectPresetByName(
                                flags.GetString("interconnect", "nvlink"))));
  if (flags.GetBool("ooc", false)) {
    if (devices > 1) {
      return Status::InvalidArgument("--ooc streams on one device");
    }
    return core::Placement::Streamed(
        static_cast<uint64_t>(flags.GetInt("shard-bytes", 0)));
  }
  if (devices == 1) return core::Placement{};
  return core::Placement::Gang(
      static_cast<uint32_t>(devices), std::move(link),
      flags.GetString("partition", "uniform") == "degree"
          ? core::PartitionStrategy::kDegreeBalanced
          : core::PartitionStrategy::kUniform);
}

/// What the single-run flags ask for, every part checked before the graph
/// loads.
struct SingleRun {
  core::Algo algo = core::Algo::kBfs;
  const vgpu::ArchConfig* arch = nullptr;
  core::Placement placement;
  /// Job-line params: the keys net::BuildJobParams reads.
  std::map<std::string, std::string> params;
};

Result<SingleRun> SingleRunFromFlags(const Flags& flags) {
  SingleRun run;
  ADGRAPH_ASSIGN_OR_RETURN(
      run.algo,
      Named("algo", core::ParseAlgorithm(flags.GetString("algo", ""))));
  ADGRAPH_ASSIGN_OR_RETURN(
      run.arch,
      Named("gpu", vgpu::PaperGpuByName(flags.GetString("gpu", "A100"))));
  ADGRAPH_ASSIGN_OR_RETURN(run.placement, PlacementFromFlags(flags));
  for (const char* key : {"source", "iters", "k", "fraction"}) {
    if (flags.Has(key)) run.params[key] = flags.GetString(key, "");
  }
  if (flags.GetBool("no-orient", false)) run.params["orient"] = "0";
  if (run.algo == core::Algo::kBfs && flags.GetBool("undirected", false)) {
    run.params["symmetric"] = "1";
  }
  // The vertex count only sizes ESBV's cluster, so every param check runs
  // without the graph.
  ADGRAPH_RETURN_NOT_OK(
      net::BuildJobParams(run.algo, run.params, 0).status());
  return run;
}

Status RunAlgo(const SingleRun& run, vgpu::Device* device,
               const graph::CsrGraph& g) {
  const core::Placement& placement = run.placement;
  ADGRAPH_ASSIGN_OR_RETURN(
      core::Params params,
      net::BuildJobParams(run.algo, run.params, g.num_vertices()));
  const graph::CsrGraph* input = &g;
  graph::CsrGraph weighted;  // esbv requires weights; synthesized on demand
  if (run.algo == core::Algo::kEsbv) {
    weighted = g.has_weights() ? g : g.WithUniformWeights(1.0);
    input = &weighted;
  }

  ADGRAPH_RETURN_NOT_OK(core::CheckPlacement(placement, params));
  if (placement.kind == core::Placement::Kind::kGang) {
    std::printf("gang: %u x %s, %s shards, interconnect %s\n",
                placement.gang_devices, device->name().c_str(),
                part::PartitionStrategyName(placement.strategy),
                placement.interconnect.name.c_str());
  }
  core::RunReport report;
  ADGRAPH_ASSIGN_OR_RETURN(
      core::AlgoResult result,
      core::Run(device, {run.algo, placement}, *input, params,
                /*residency=*/nullptr, &report));

  switch (run.algo) {
    case core::Algo::kBfs: {
      const auto& r = std::get<core::BfsResult>(result);
      // A zero modeled time (empty frontier / trivial graph) has no rate.
      const double mteps =
          r.time_ms > 0
              ? static_cast<double>(g.num_edges()) / (r.time_ms * 1e3)
              : 0.0;
      std::printf("bfs: visited %llu / %u vertices, depth %u, %.4f ms "
                  "(%.1f MTEPS%s)\n",
                  static_cast<unsigned long long>(r.vertices_visited),
                  g.num_vertices(), r.depth, r.time_ms, mteps,
                  r.time_ms > 0 ? "" : ", rate skipped");
      break;
    }
    case core::Algo::kSssp: {
      const auto& r = std::get<core::SsspResult>(result);
      uint64_t reached = 0;
      for (double d : r.distances) reached += std::isfinite(d);
      std::printf("sssp: %llu reachable, %u rounds, %.4f ms\n",
                  static_cast<unsigned long long>(reached), r.rounds,
                  r.time_ms);
      break;
    }
    case core::Algo::kPageRank: {
      const auto& r = std::get<core::PageRankResult>(result);
      graph::vid_t best = 0;
      for (graph::vid_t v = 0; v < g.num_vertices(); ++v) {
        if (r.ranks[v] > r.ranks[best]) best = v;
      }
      std::printf("pagerank: %u iterations, top vertex %u (%.3e), %.4f ms\n",
                  r.iterations, best, r.ranks[best], r.time_ms);
      break;
    }
    case core::Algo::kTriangleCount: {
      const auto& r = std::get<core::TcResult>(result);
      std::printf("tc: %llu triangles (%s), %.4f ms\n",
                  static_cast<unsigned long long>(r.triangles),
                  std::get<core::TcOptions>(params).orient ? "oriented"
                                                           : "bisson-fatica",
                  r.time_ms);
      break;
    }
    case core::Algo::kColoring: {
      const auto& r = std::get<core::ColoringResult>(result);
      std::printf("color: %u colors in %u rounds, %.4f ms\n", r.num_colors,
                  r.rounds, r.time_ms);
      break;
    }
    case core::Algo::kConnectedComponents: {
      const auto& r = std::get<core::CcResult>(result);
      std::printf("cc: %llu components, %u iterations, %.4f ms\n",
                  static_cast<unsigned long long>(r.num_components),
                  r.iterations, r.time_ms);
      break;
    }
    case core::Algo::kKCore: {
      const auto& r = std::get<core::KCoreResult>(result);
      std::printf("kcore: %llu vertices in the %u-core, %u peel rounds, "
                  "%.4f ms\n",
                  static_cast<unsigned long long>(r.core_size),
                  std::get<core::KCoreOptions>(params).k, r.peel_rounds,
                  r.time_ms);
      break;
    }
    case core::Algo::kJaccard: {
      const auto& r = std::get<core::JaccardResult>(result);
      double sum = 0;
      for (double v : r.coefficients) sum += v;
      std::printf("jaccard: mean coefficient %.4f over %zu edges, %.4f ms\n",
                  r.coefficients.empty() ? 0 : sum / r.coefficients.size(),
                  r.coefficients.size(), r.time_ms);
      break;
    }
    case core::Algo::kWidestPath: {
      const auto& r = std::get<core::WidestPathResult>(result);
      uint64_t reached = 0;
      for (double w : r.widths) reached += w > 0;
      std::printf("widest: %llu reachable, %u rounds, %.4f ms\n",
                  static_cast<unsigned long long>(reached), r.rounds,
                  r.time_ms);
      break;
    }
    case core::Algo::kEsbv: {
      const auto& r = std::get<core::EsbvResult>(result);
      std::printf("esbv: kept %llu vertices / %llu edges, %.4f ms\n",
                  static_cast<unsigned long long>(r.subgraph_vertices),
                  static_cast<unsigned long long>(r.subgraph_edges),
                  r.time_ms);
      break;
    }
    case core::Algo::kBetweenness: {
      const auto& r = std::get<core::BcResult>(result);
      double mass = 0;
      for (double d : r.centrality) mass += d;
      std::printf("bc: source %u, depth %u, dependency mass %.4f, %.4f ms\n",
                  std::get<core::BcOptions>(params).source, r.depth, mass,
                  r.time_ms);
      break;
    }
  }
  if (placement.kind == core::Placement::Kind::kGang) {
    const core::ExchangeStats& x = report.exchange;
    std::printf("exchange: %llu bytes over %u rounds; modeled compute "
                "%.4f ms + exchange %.4f ms\n",
                static_cast<unsigned long long>(x.bytes), x.rounds,
                x.compute_ms, x.exchange_ms);
  } else if (placement.kind == core::Placement::Kind::kStreamed) {
    const core::StagingStats& st = report.staging;
    std::printf(
        "ooc: %u shards, %llu staged copies, %llu bytes streamed, "
        "overlap %.2fx (serialized %.4f ms -> overlapped %.4f ms)\n",
        st.num_shards, static_cast<unsigned long long>(st.shards_staged),
        static_cast<unsigned long long>(st.staged_bytes),
        st.overlap_speedup(), st.serialized_ms, st.overlapped_ms);
  }
  return Status::OK();
}


// --- serve-batch -----------------------------------------------------------

/// One parsed `ALGO key=value...` line from the --jobs file.  The graph
/// handle is attached later (after we know whether weights are needed).
/// A line whose first token is `mutate` instead of an algorithm name sets
/// `mutate` (and leaves `algo` meaningless): `mutate add=U:V[:W]`,
/// `mutate del=U:V`, `mutate compact=1` — comma-separated specs allowed,
/// plus `graph=NAME`.  Only `client` mode accepts these (the mutation API
/// lives behind the server's MUTATE verb).
struct ParsedJobLine {
  serve::Algorithm algo = serve::Algorithm::kBfs;
  std::map<std::string, std::string> kv;
  int line_number = 0;
  bool mutate = false;
};

Result<ParsedJobLine> ParseJobLine(const std::string& line, int line_number) {
  std::istringstream in(line);
  std::string algo_name;
  in >> algo_name;
  ParsedJobLine parsed;
  parsed.line_number = line_number;
  if (algo_name == "mutate") {
    parsed.mutate = true;
  } else {
    ADGRAPH_ASSIGN_OR_RETURN(parsed.algo, serve::ParseAlgorithm(algo_name));
  }
  std::string token;
  while (in >> token) {
    auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("jobs line " + std::to_string(line_number) +
                                     ": expected key=value, got '" + token +
                                     "'");
    }
    parsed.kv[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return parsed;
}

/// Reads a `--jobs` file: one ParseJobLine per line, blank lines and `#`
/// comments skipped; an unreadable or job-less file is an error.
Result<std::vector<ParsedJobLine>> ReadJobFile(const std::string& path) {
  std::ifstream jobs_file(path);
  if (!jobs_file) {
    return Status::IOError("cannot open jobs file '" + path + "'");
  }
  std::vector<ParsedJobLine> lines;
  std::string raw;
  for (int number = 1; std::getline(jobs_file, raw); ++number) {
    auto first = raw.find_first_not_of(" \t\r");
    if (first == std::string::npos || raw[first] == '#') continue;
    ADGRAPH_ASSIGN_OR_RETURN(ParsedJobLine parsed, ParseJobLine(raw, number));
    lines.push_back(std::move(parsed));
  }
  if (lines.empty()) {
    return Status::InvalidArgument("jobs file contains no jobs");
  }
  return lines;
}

/// Prints the per-status count block that ends a batch or client run.
void PrintTally(const std::map<std::string, int>& tally) {
  std::printf("\njob status tally:\n");
  for (const auto& [name, count] : tally) {
    std::printf("  %-24s %d\n", name.c_str(), count);
  }
}

/// Turns one parsed `mutate ...` job line into the MUTATE request pieces:
/// fills `updates` (may stay empty for a pure `compact=1` line) and reports
/// whether the line asked for compaction.
Result<bool> BuildMutationLine(const ParsedJobLine& line, net::Json* updates) {
  bool compact = false;
  for (const auto& [key, value] : line.kv) {
    if (key == "add") {
      ADGRAPH_RETURN_NOT_OK(
          net::AppendEdgeUpdates(value, "add", true, updates));
    } else if (key == "del") {
      ADGRAPH_RETURN_NOT_OK(
          net::AppendEdgeUpdates(value, "del", false, updates));
    } else if (key == "compact") {
      compact = value != "0" && value != "false";
    } else if (key != "graph" && key != "tag") {
      return Status::InvalidArgument(
          "jobs line " + std::to_string(line.line_number) +
          ": mutate takes add= del= compact= graph= tag=, got '" + key + "'");
    }
  }
  return compact;
}

/// Builds the scheduler-pool options shared by `serve-batch` and `serve`
/// (device list, queue, admission, cache and metrics flags).
Result<serve::Scheduler::Options> BuildPoolOptions(const Flags& flags) {
  serve::Scheduler::Options options;
  // Shrinks every pool device's memory by this factor — the same knob the
  // paper-scale benches use, here so small proxies can demonstrate
  // admission-control rejections.
  vgpu::Device::Options device_options;
  device_options.memory_scale = flags.GetDouble("memory-scale", 1.0);
  if (flags.Has("gpus")) {
    std::istringstream list(flags.GetString("gpus", ""));
    std::string name;
    while (std::getline(list, name, ',')) {
      ADGRAPH_ASSIGN_OR_RETURN(const vgpu::ArchConfig* arch,
                               Named("gpus", vgpu::PaperGpuByName(name)));
      options.devices.push_back({.arch = arch, .options = device_options});
    }
  } else if (device_options.memory_scale != 1.0) {
    for (const auto* gpu : vgpu::PaperGpus()) {
      options.devices.push_back({.arch = gpu, .options = device_options});
    }
  }
  options.queue_capacity = static_cast<size_t>(flags.GetInt("queue", 64));
  options.overflow = flags.GetString("overflow", "block") == "reject"
                         ? serve::Scheduler::OverflowPolicy::kReject
                         : serve::Scheduler::OverflowPolicy::kBlock;
  options.admission_headroom = flags.GetDouble("headroom", 1.0);
  options.device_occupancy_floor_ms =
      flags.GetDouble("occupancy-floor-ms", 0.0);
  // Per-worker graph residency cache (on by default; results are
  // byte-identical either way — off restores upload-per-job behavior).
  options.cache.enabled = flags.GetString("graph-cache", "on") == "on";
  ADGRAPH_ASSIGN_OR_RETURN(
      options.metrics.format,
      Named("metrics-format",
            obs::ParseExportFormat(flags.GetString("metrics-format", "prom"))));
  // Any metrics flag switches the background sampler on; --metrics-out
  // also makes Shutdown() export the series there.
  const bool metrics_on = flags.Has("metrics-out") ||
                          flags.Has("metrics-interval-ms") ||
                          flags.Has("alert-rules");
  if (metrics_on) {
    options.metrics.enabled = true;
    options.metrics.path = flags.GetString("metrics-out", "");
    options.metrics.interval_ms =
        flags.GetDouble("metrics-interval-ms", 100.0);
    if (flags.Has("alert-rules")) {
      std::ifstream rules_file(flags.GetString("alert-rules", ""));
      if (!rules_file) {
        return Status::IOError("cannot open alert-rules file '" +
                               flags.GetString("alert-rules", "") + "'");
      }
      std::stringstream text;
      text << rules_file.rdbuf();
      ADGRAPH_ASSIGN_OR_RETURN(options.metrics.alert_rules,
                               obs::ParseAlertRules(text.str()));
    }
  }
  return options;
}

/// `--trace=FILE`, in every mode that runs jobs: opens the process's one
/// trace window (DESIGN.md §2.5).  Opened before any device or pool
/// exists, so every span of the run is in it.  False, after printing why,
/// on an error.
bool OpenTrace(const Flags& flags) {
  if (!flags.Has("trace")) return true;
  Status status = trace::Start({.path = flags.GetString("trace", "")});
  if (!status.ok()) {
    std::fprintf(stderr, "trace: %s\n", status.ToString().c_str());
  }
  return status.ok();
}

/// Closes the window OpenTrace opened, which writes FILE (an unwritable
/// FILE is reported on stderr), and prints its summary, warning when the
/// ring dropped spans.  Called once nothing emits any more.
void CloseTrace(const Flags& flags) {
  if (!flags.Has("trace")) return;
  Status status = trace::Stop();
  std::printf("\n%s", prof::FormatTraceSummary(trace::GlobalEvents(),
                                               trace::GlobalDropped())
                          .c_str());
  if (status.ok()) {
    std::printf("trace: %s\n", flags.GetString("trace", "").c_str());
  } else {
    std::fprintf(stderr, "trace: %s\n", status.ToString().c_str());
  }
}

/// Starts the `serve-batch` / `serve` pool and prints its worker line; null,
/// after printing why, on an error.
std::unique_ptr<serve::Scheduler> StartPool(
    serve::Scheduler::Options options) {
  auto scheduler = serve::Scheduler::Create(std::move(options));
  if (!scheduler.ok()) {
    std::fprintf(stderr, "scheduler: %s\n",
                 scheduler.status().ToString().c_str());
    return nullptr;
  }
  std::printf("pool: %zu workers (", (*scheduler)->num_workers());
  for (size_t i = 0; i < (*scheduler)->device_names().size(); ++i) {
    std::printf("%s%s", i ? ", " : "",
                (*scheduler)->device_names()[i].c_str());
  }
  std::printf(")\n");
  return std::move(*scheduler);
}

/// The sampler's summary that ends a `serve-batch` or `serve` run.
void PrintMetricsReport(const Flags& flags,
                        const serve::Scheduler& scheduler) {
  std::printf("\n%s", prof::FormatMetricsReport(scheduler.MetricsBatches(),
                                                scheduler.MetricsAlertLog(),
                                                scheduler.MetricsDropped())
                          .c_str());
  if (flags.Has("metrics-out")) {
    std::printf("metrics: %s\n", flags.GetString("metrics-out", "").c_str());
  }
}

int ServeBatch(const Flags& flags) {
  if (!flags.Has("jobs")) {
    std::fprintf(stderr, "serve-batch: --jobs=FILE is required\n");
    return Usage();
  }
  auto pool_options = BuildPoolOptions(flags);
  if (!pool_options.ok()) return Refuse("serve-batch", pool_options.status());
  const bool metrics_on = pool_options->metrics.enabled;
  graph::CsrGraph g;
  if (int exit = LoadCheckedGraph(flags, "serve-batch", &g)) return exit;

  // Parse the job file before touching any device.
  auto lines = ReadJobFile(flags.GetString("jobs", ""));
  if (!lines.ok()) {
    std::fprintf(stderr, "%s\n", lines.status().ToString().c_str());
    return 1;
  }
  bool needs_weights = g.has_weights();
  for (const ParsedJobLine& line : *lines) {
    if (line.mutate) {
      // The in-process batch scheduler serves one immutable snapshot;
      // dynamic graphs live behind the TCP server's MUTATE verb.
      std::fprintf(stderr,
                   "jobs line %d: mutate lines need the TCP server (run "
                   "`adgraph_cli serve` and submit via `adgraph_cli "
                   "client`)\n",
                   line.line_number);
      return 1;
    }
    needs_weights |= serve::GetHandler(line.algo).requires_weights;
  }
  // Weight-requiring jobs (esbv) in the batch get uniform weights unless the
  // graph already carries real ones.
  if (needs_weights && !g.has_weights()) g = g.WithUniformWeights(1.0);
  auto shared =
      std::make_shared<const graph::CsrGraph>(std::move(g));
  std::printf("graph: %u vertices, %llu edges%s\n", shared->num_vertices(),
              static_cast<unsigned long long>(shared->num_edges()),
              shared->has_weights() ? " (weighted)" : "");
  // Every line becomes a job before the pool starts, so a malformed line
  // runs nothing.
  std::vector<serve::JobSpec> specs;
  for (const ParsedJobLine& line : *lines) {
    // Same key vocabulary as the TCP protocol (§2.10); `devices=N` on a
    // bfs/pagerank line runs it as a gang over N same-arch devices.
    auto spec = net::BuildJobSpec(line.algo, line.kv, shared);
    if (!spec.ok()) {
      std::fprintf(stderr, "jobs line %d: %s\n", line.line_number,
                   spec.status().ToString().c_str());
      return 1;
    }
    if (spec->tag.empty()) {
      spec->tag = "line" + std::to_string(line.line_number);
    }
    specs.push_back(std::move(*spec));
  }

  if (!OpenTrace(flags)) return 1;
  auto pool = StartPool(std::move(*pool_options));
  if (pool == nullptr) return 1;
  auto& scheduler = *pool;
  std::printf("\n");

  // Ctrl-C / SIGTERM: stop submitting, let in-flight jobs finish, fail the
  // still-queued ones, flush metrics + trace, then exit 128+signal.
  InstallShutdownHandlers();

  std::vector<std::future<serve::JobOutcome>> futures;
  futures.reserve(specs.size());
  int submit_failures = 0;
  for (serve::JobSpec& spec : specs) {
    if (g_shutdown_signal.load() != 0) break;
    const std::string tag = spec.tag;
    const serve::Algorithm algo = spec.algorithm();
    auto submitted = scheduler.Submit(std::move(spec));
    if (!submitted.ok()) {
      std::printf("%-12s %-8s REJECTED AT SUBMIT: %s\n",
                  ("[" + tag + "]").c_str(), serve::AlgorithmName(algo).data(),
                  submitted.status().ToString().c_str());
      ++submit_failures;
      continue;
    }
    futures.push_back(std::move(*submitted));
  }

  int failures = 0;
  bool interrupted = false;
  std::map<std::string, int> tally;
  if (submit_failures > 0) tally["rejected at submit"] = submit_failures;
  for (auto& future : futures) {
    // Poll-wait so a shutdown signal can interrupt the batch: Shutdown()
    // finishes in-flight jobs, fails queued ones with kUnavailable (their
    // futures below resolve immediately) and flushes trace + metrics.
    while (!interrupted &&
           future.wait_for(std::chrono::milliseconds(50)) !=
               std::future_status::ready) {
      if (g_shutdown_signal.load() != 0) {
        std::printf("\nsignal %d: draining in-flight jobs, failing queued "
                    "ones\n",
                    g_shutdown_signal.load());
        scheduler.Shutdown();
        interrupted = true;
      }
    }
    serve::JobOutcome outcome = future.get();
    tally[outcome.status.ok()
              ? "ok"
              : std::string(StatusCodeToString(outcome.status.code()))] += 1;
    if (outcome.status.ok()) {
      std::string suffix;
      if (outcome.cache_hit) suffix += "   [cached graph]";
      if (outcome.gang_devices > 1) {
        char gang[96];
        std::snprintf(gang, sizeof(gang),
                      "   [gang %u dev, %.1f KB exchanged / %llu rounds]",
                      outcome.gang_devices, outcome.exchange_bytes / 1024.0,
                      static_cast<unsigned long long>(outcome.exchange_rounds));
        suffix += gang;
      }
      std::printf("%-12s %-8s %-6s ok      modeled %9.4f ms   wall %8.2f ms"
                  "   queued %7.2f ms%s\n",
                  ("[" + outcome.tag + "]").c_str(),
                  serve::AlgorithmName(
                      static_cast<serve::Algorithm>(outcome.payload.index()))
                      .data(),
                  outcome.device_name.c_str(), outcome.modeled_ms,
                  outcome.exec_wall_ms, outcome.queue_wall_ms, suffix.c_str());
    } else {
      ++failures;
      std::printf("%-12s %-15s %s\n", ("[" + outcome.tag + "]").c_str(),
                  outcome.device_name.empty() ? "-"
                                              : outcome.device_name.c_str(),
                  outcome.status.ToString().c_str());
    }
  }

  if (!interrupted) scheduler.Drain();
  std::printf("\n%s", prof::FormatServerStats(scheduler.Snapshot()).c_str());
  PrintTally(tally);
  // Shutdown here (rather than at scope exit) so the sampler's final
  // sample is taken and --metrics-out is written, and the trace holds
  // every span, before we report on them (idempotent if the signal path
  // already shut down).
  scheduler.Shutdown();
  CloseTrace(flags);
  if (metrics_on) PrintMetricsReport(flags, scheduler);
  if (interrupted) return 128 + g_shutdown_signal.load();
  // Any job that resolved non-OK — admission rejection, device failure, or
  // submit-level rejection — makes the batch exit non-zero, so scripted
  // callers do not have to parse the tally.
  return failures > 0 || submit_failures > 0 ? 1 : 0;
}

// --- serve (TCP front door) ------------------------------------------------

/// `adgraph_cli serve --listen=PORT <graph source>`: starts a scheduler
/// pool plus the net::Server front door and runs until SIGINT/SIGTERM, then
/// shuts down in order — stop accepting, close sessions, drain the pool,
/// flush metrics + trace — and prints the final stats block.
int Serve(const Flags& flags) {
  if (!flags.Has("listen")) {
    std::fprintf(stderr, "serve: --listen=PORT is required\n");
    return Usage();
  }
  auto pool_options = BuildPoolOptions(flags);
  if (!pool_options.ok()) return Refuse("serve", pool_options.status());
  const bool metrics_on = pool_options->metrics.enabled;
  net::ServerOptions server_options;
  server_options.port = static_cast<uint16_t>(flags.GetInt("listen", 0));
  server_options.handler_threads =
      static_cast<size_t>(flags.GetInt("handlers", 2));
  server_options.max_sessions =
      static_cast<size_t>(flags.GetInt("max-sessions", 256));
  if (flags.Has("tenants")) {
    std::ifstream tenants_file(flags.GetString("tenants", ""));
    if (!tenants_file) {
      std::fprintf(stderr, "cannot open tenants file '%s'\n",
                   flags.GetString("tenants", "").c_str());
      return 1;
    }
    std::stringstream text;
    text << tenants_file.rdbuf();
    auto tenants = net::ParseTenantConfigs(text.str());
    if (!tenants.ok()) {
      std::fprintf(stderr, "%s\n", tenants.status().ToString().c_str());
      return 1;
    }
    server_options.tenants = std::move(*tenants);
  }
  net::Server::GraphMap graphs;
  {
    graph::CsrGraph g;
    if (int exit = LoadCheckedGraph(flags, "serve", &g)) return exit;
    if (!g.has_weights()) {
      // ESBV / weighted jobs need weights; serve both flavors so a SUBMIT
      // can pick `"graph":"weighted"` without a server restart.
      graphs["weighted"] = std::make_shared<const graph::CsrGraph>(
          g.WithUniformWeights(1.0));
      graphs["default"] = std::make_shared<const graph::CsrGraph>(std::move(g));
    } else {
      auto shared = std::make_shared<const graph::CsrGraph>(std::move(g));
      graphs["default"] = shared;
      graphs["weighted"] = shared;
    }
  }
  std::printf("graph: %u vertices, %llu edges%s\n",
              graphs["default"]->num_vertices(),
              static_cast<unsigned long long>(graphs["default"]->num_edges()),
              graphs["default"]->has_weights() ? " (weighted)" : "");

  if (!OpenTrace(flags)) return 1;
  auto pool = StartPool(std::move(*pool_options));
  if (pool == nullptr) return 1;
  auto& scheduler = *pool;
  const size_t num_tenants = server_options.tenants.size();
  auto server_result =
      net::Server::Start(&scheduler, std::move(graphs), server_options);
  if (!server_result.ok()) {
    std::fprintf(stderr, "server: %s\n",
                 server_result.status().ToString().c_str());
    return 1;
  }
  auto& server = **server_result;
  std::printf("listening on 127.0.0.1:%u (%zu handler threads, %s)\n",
              server.port(), server_options.handler_threads,
              num_tenants > 0
                  ? (std::to_string(num_tenants) + " tenants").c_str()
                  : "open access");
  std::fflush(stdout);

  InstallShutdownHandlers();
  while (g_shutdown_signal.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const int sig = g_shutdown_signal.load();
  std::printf("\nsignal %d: closing sessions, draining pool\n", sig);

  // Shutdown order matters: front door first (sessions closed, every
  // outstanding tenant charge released), then drain what the scheduler
  // accepted, then Shutdown() to flush the metrics exporters; the trace
  // closes once both are quiet.
  server.Shutdown();
  scheduler.Drain();
  scheduler.Shutdown();

  net::ServerCounters counters = server.Counters();
  std::printf("\nsessions: %llu opened, %llu closed; requests: %llu "
              "(%llu protocol errors)\n",
              static_cast<unsigned long long>(counters.sessions_opened),
              static_cast<unsigned long long>(counters.sessions_closed),
              static_cast<unsigned long long>(counters.requests),
              static_cast<unsigned long long>(counters.protocol_errors));
  std::printf("submits: %llu accepted, %llu quota-rejected, %llu "
              "scheduler-rejected; %llu orphaned\n",
              static_cast<unsigned long long>(counters.submits_accepted),
              static_cast<unsigned long long>(counters.submits_rejected_quota),
              static_cast<unsigned long long>(
                  counters.submits_rejected_scheduler),
              static_cast<unsigned long long>(counters.jobs_orphaned));
  std::printf("\n%s", prof::FormatServerStats(scheduler.Snapshot()).c_str());
  CloseTrace(flags);
  if (metrics_on) PrintMetricsReport(flags, scheduler);
  // A signal-triggered stop is the *intended* way to stop a server:
  // exit 0 so service managers and the CI smoke test see a clean stop.
  return 0;
}

// --- client ----------------------------------------------------------------

/// `--connect=HOST:PORT` of the client, mutate and inspect modes.
Result<std::pair<std::string, uint16_t>> ConnectFlag(const Flags& flags) {
  return Named("connect", net::ParseEndpoint(flags.GetString("connect", "")));
}

/// `adgraph_cli client --connect=HOST:PORT --jobs=FILE [--tenant=NAME]`:
/// submits a serve-batch-format job file over the TCP protocol and waits
/// for every outcome.  Each job line maps to its SUBMIT request through
/// net::BuildSubmitRequest, checked before anything is sent.
int ClientMain(const Flags& flags) {
  if (!flags.Has("connect") || !flags.Has("jobs")) {
    std::fprintf(stderr, "client: --connect=HOST:PORT and --jobs=FILE are "
                         "required\n");
    return Usage();
  }
  auto endpoint = ConnectFlag(flags);
  if (!endpoint.ok()) return Refuse("client", endpoint.status());

  auto lines = ReadJobFile(flags.GetString("jobs", ""));
  if (!lines.ok()) {
    std::fprintf(stderr, "%s\n", lines.status().ToString().c_str());
    return 1;
  }
  std::vector<net::Json> requests;  // one per non-mutate line, in order
  for (const ParsedJobLine& line : *lines) {
    if (line.mutate) continue;
    auto request = net::BuildSubmitRequest(line.algo, line.kv);
    if (!request.ok()) {
      std::fprintf(stderr, "jobs line %d: %s\n", line.line_number,
                   request.status().ToString().c_str());
      return 1;
    }
    requests.push_back(std::move(*request));
  }

  const double timeout_ms = flags.GetDouble("timeout-ms", 30000.0);
  auto client_result = net::Client::Connect(endpoint->first, endpoint->second);
  if (!client_result.ok()) {
    std::fprintf(stderr, "%s\n", client_result.status().ToString().c_str());
    return 1;
  }
  net::Client client = std::move(*client_result);
  auto hello = client.Hello(flags.GetString("tenant", ""), timeout_ms);
  if (!hello.ok()) {
    std::fprintf(stderr, "%s\n", hello.status().ToString().c_str());
    return 1;
  }

  // Submit everything first (pipelining through the session), then wait.
  struct Submitted {
    uint64_t job_id = 0;
    std::string tag;
    std::string algo;
    std::string trace_id;  ///< hex, client-minted (DESIGN.md §2.14)
  };
  std::vector<Submitted> submitted;
  int failures = 0;
  std::map<std::string, int> tally;
  auto next_request = requests.begin();
  for (const ParsedJobLine& line : *lines) {
    if (line.mutate) {
      // Mutations run synchronously in file order, so a job line after a
      // mutate line is guaranteed to see the mutated graph.
      auto tag_it = line.kv.find("tag");
      std::string tag = tag_it != line.kv.end()
                            ? tag_it->second
                            : "line" + std::to_string(line.line_number);
      net::Json updates = net::Json::MakeArray();
      auto compact = BuildMutationLine(line, &updates);
      if (!compact.ok()) {
        std::fprintf(stderr, "%s\n", compact.status().ToString().c_str());
        return 1;
      }
      auto graph_it = line.kv.find("graph");
      std::string graph_name =
          graph_it != line.kv.end() ? graph_it->second : "default";
      auto response = client.Mutate(graph_name, std::move(updates), *compact,
                                    timeout_ms);
      if (!response.ok()) {
        ++failures;
        tally["mutate failed"] += 1;
        std::printf("%-12s mutate   FAILED: %s\n", ("[" + tag + "]").c_str(),
                    response.status().ToString().c_str());
        continue;
      }
      tally["mutated"] += 1;
      std::printf("%-12s mutate   applied %3.0f   version %.0f   edges %.0f"
                  "   fp %s\n",
                  ("[" + tag + "]").c_str(),
                  response->GetNumber("applied", 0),
                  response->GetNumber("version", 0),
                  response->GetNumber("num_edges", 0),
                  response->GetString("fingerprint", "-").c_str());
      continue;
    }
    net::Json request = std::move(*next_request++);
    if (request.Find("deadline_ms") == nullptr && flags.Has("deadline-ms")) {
      request.Set("deadline_ms", flags.GetDouble("deadline-ms", 0.0));
    }
    const std::string tag =
        request.GetString("tag", "line" + std::to_string(line.line_number));
    request.Set("tag", tag);
    // The client is the outermost layer, so it mints the trace id; the
    // server adopts it and every span of the job carries it end to end.
    const std::string trace_hex = trace::TraceIdHex(trace::MintTraceId());
    request.Set("trace_id", trace_hex);

    auto response = client.Call(request, timeout_ms);
    if (!response.ok()) {
      std::fprintf(stderr, "SUBMIT failed: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
    if (!response->GetBool("ok", false)) {
      ++failures;
      tally["rejected: " + response->GetString("code", "?")] += 1;
      std::printf("%-12s %-8s REJECTED: %s\n", ("[" + tag + "]").c_str(),
                  serve::AlgorithmName(line.algo).data(),
                  response->GetString("error", "(no error)").c_str());
      continue;
    }
    submitted.push_back(
        {static_cast<uint64_t>(response->GetNumber("job", 0)), tag,
         std::string(serve::AlgorithmName(line.algo)),
         response->GetString("trace_id", trace_hex)});
  }

  for (const Submitted& job : submitted) {
    auto done = client.WaitJob(job.job_id, timeout_ms);
    if (!done.ok()) {
      std::fprintf(stderr, "[%s] %s\n", job.tag.c_str(),
                   done.status().ToString().c_str());
      ++failures;
      tally["transport error"] += 1;
      continue;
    }
    std::string status = done->GetString("status", "?");
    tally[status] += 1;
    if (status == "ok") {
      std::string suffix;
      if (done->GetBool("cache_hit", false)) suffix += "   [cached graph]";
      std::printf("%-12s %-8s %-6s ok      modeled %9.4f ms   queued %7.2f "
                  "ms   fp %s   trace %s%s\n",
                  ("[" + job.tag + "]").c_str(), job.algo.c_str(),
                  done->GetString("device", "-").c_str(),
                  done->GetNumber("modeled_ms", 0),
                  done->GetNumber("queue_ms", 0),
                  done->GetString("fingerprint", "-").c_str(),
                  done->GetString("trace_id", job.trace_id.c_str()).c_str(),
                  suffix.c_str());
    } else {
      ++failures;
      std::printf("%-12s %-15s %s: %s   trace %s\n",
                  ("[" + job.tag + "]").c_str(),
                  done->GetString("device", "-").c_str(), status.c_str(),
                  done->GetString("error", "").c_str(),
                  done->GetString("trace_id", job.trace_id.c_str()).c_str());
    }
  }

  PrintTally(tally);
  return failures > 0 ? 1 : 0;
}

// --- mutate ----------------------------------------------------------------

/// `adgraph_cli mutate --connect=HOST:PORT [--graph=NAME] [--add=U:V[:W],...]
/// [--del=U:V,...] [--compact] [--tenant=NAME]`: one MUTATE round trip
/// against a running server — the shell-scriptable face of the dynamic-graph
/// API (the job-file form is `mutate add=...` lines in `client` mode).
int MutateMain(const Flags& flags) {
  if (!flags.Has("connect")) {
    std::fprintf(stderr, "mutate: --connect=HOST:PORT is required\n");
    return Usage();
  }
  if (!flags.Has("add") && !flags.Has("del") && !flags.Has("compact")) {
    std::fprintf(stderr,
                 "mutate: nothing to do — give --add=U:V[:W],... and/or "
                 "--del=U:V,... and/or --compact\n");
    return Usage();
  }
  auto endpoint = ConnectFlag(flags);
  if (!endpoint.ok()) return Refuse("mutate", endpoint.status());

  net::Json updates = net::Json::MakeArray();
  for (const std::string op : {"add", "del"}) {
    if (!flags.Has(op)) continue;
    Status status = net::AppendEdgeUpdates(flags.GetString(op, ""), op,
                                           /*allow_weight=*/op == "add",
                                           &updates);
    if (!status.ok()) return Refuse(("mutate: --" + op).c_str(), status);
  }

  const double timeout_ms = flags.GetDouble("timeout-ms", 30000.0);
  auto client_result = net::Client::Connect(endpoint->first, endpoint->second);
  if (!client_result.ok()) {
    std::fprintf(stderr, "%s\n", client_result.status().ToString().c_str());
    return 1;
  }
  net::Client client = std::move(*client_result);
  auto hello = client.Hello(flags.GetString("tenant", ""), timeout_ms);
  if (!hello.ok()) {
    std::fprintf(stderr, "%s\n", hello.status().ToString().c_str());
    return 1;
  }
  auto response =
      client.Mutate(flags.GetString("graph", "default"), std::move(updates),
                    flags.GetBool("compact", false), timeout_ms);
  if (!response.ok()) {
    std::fprintf(stderr, "%s\n", response.status().ToString().c_str());
    return 1;
  }
  std::printf("graph %s: applied %.0f update(s), version %.0f, %.0f edges, "
              "fp %s%s\n",
              response->GetString("graph", "?").c_str(),
              response->GetNumber("applied", 0),
              response->GetNumber("version", 0),
              response->GetNumber("num_edges", 0),
              response->GetString("fingerprint", "-").c_str(),
              response->GetBool("compacted", false) ? " (compacted)" : "");
  return 0;
}

// --- inspect ---------------------------------------------------------------

/// Renders an INSPECT record's "profile" object as an indented block.
void PrintProfileJson(const net::Json& p) {
  std::printf("  profile: %.0f kernel(s), modeled %.4f ms, %.0f cycles\n",
              p.GetNumber("num_kernels", 0), p.GetNumber("total_ms", 0),
              p.GetNumber("total_cycles", 0));
  std::printf("    divergent-branch ratio %.3f   gld eff %.3f   "
              "gst eff %.3f\n",
              p.GetNumber("divergent_branch_ratio", 0),
              p.GetNumber("gld_efficiency", 0),
              p.GetNumber("gst_efficiency", 0));
  std::printf("    L1 hit %.3f   L2 hit %.3f   occupancy %.3f   "
              "exposed %.0f cycles\n",
              p.GetNumber("l1_hit_rate", 0), p.GetNumber("l2_hit_rate", 0),
              p.GetNumber("achieved_occupancy", 0),
              p.GetNumber("exposed_latency_cycles", 0));
  const net::Json* top = p.Find("top_kernels");
  if (top != nullptr && top->size() > 0) {
    std::printf("    top kernels by cycles:\n");
    for (const net::Json& row : top->items()) {
      std::printf("      %-32s x%-4.0f %14.0f cycles %11.4f ms\n",
                  row.GetString("kernel", "?").c_str(),
                  row.GetNumber("launches", 0), row.GetNumber("cycles", 0),
                  row.GetNumber("time_ms", 0));
    }
  }
}

/// One retained job in full: identity, trigger classes, timings, profile
/// and the captured span tree.
void PrintRecordJson(const net::Json& r) {
  std::printf("trace %s   job %.0f   sched %.0f   [%s]\n",
              r.GetString("trace_id", "-").c_str(), r.GetNumber("job", 0),
              r.GetNumber("sched_job_id", 0),
              r.GetString("tag", "-").c_str());
  std::string status = r.GetString("status", "?");
  std::string error = r.GetString("error", "");
  std::printf("  %s on %s, tenant %s: %s%s%s\n",
              r.GetString("algo", "?").c_str(),
              r.GetString("device", "-").c_str(),
              r.GetString("tenant", "-").c_str(), status.c_str(),
              error.empty() ? "" : " — ", error.c_str());
  std::printf("  queued %.2f ms   exec %.2f ms   wall %.2f ms   "
              "modeled %.4f ms\n",
              r.GetNumber("queue_ms", 0), r.GetNumber("exec_ms", 0),
              r.GetNumber("wall_ms", 0), r.GetNumber("modeled_ms", 0));
  const net::Json* triggers = r.Find("triggers");
  if (triggers != nullptr && triggers->size() > 0) {
    std::printf("  retained for:");
    for (const net::Json& t : triggers->items()) {
      std::printf(" %s", t.AsString().c_str());
    }
    std::printf("\n");
  }
  const net::Json* profile = r.Find("profile");
  if (profile != nullptr) PrintProfileJson(*profile);
  const net::Json* spans = r.Find("spans");
  if (spans != nullptr) {
    std::printf("  spans (%zu captured, %.0f dropped):\n", spans->size(),
                r.GetNumber("spans_dropped", 0));
    std::printf("    %12s %10s  %-6s %s\n", "ts_us", "dur_us", "track",
                "name");
    for (const net::Json& span : spans->items()) {
      std::printf("    %12.1f %10.1f  %-6.0f %s (%s)\n",
                  span.GetNumber("ts_us", 0), span.GetNumber("dur_us", 0),
                  span.GetNumber("track", 0),
                  span.GetString("name", "?").c_str(),
                  span.GetString("cat", "-").c_str());
    }
  }
}

/// `adgraph_cli inspect --connect=HOST:PORT [--job=N | --trace-id=HEX]`:
/// reads the serve pool's slow-job flight recorder over the INSPECT verb
/// (DESIGN.md §2.14).  Without a selector, lists the retained worst jobs;
/// with one, prints that job's full record — span tree included.
int InspectMain(const Flags& flags) {
  if (!flags.Has("connect")) {
    std::fprintf(stderr, "inspect: --connect=HOST:PORT is required\n");
    return Usage();
  }
  auto endpoint = ConnectFlag(flags);
  if (!endpoint.ok()) return Refuse("inspect", endpoint.status());
  const double timeout_ms = flags.GetDouble("timeout-ms", 5000.0);
  auto client_result = net::Client::Connect(endpoint->first, endpoint->second);
  if (!client_result.ok()) {
    std::fprintf(stderr, "%s\n", client_result.status().ToString().c_str());
    return 1;
  }
  net::Client client = std::move(*client_result);
  // INSPECT is a diagnostic verb; like STATS it needs no HELLO handshake.
  const uint64_t job = static_cast<uint64_t>(flags.GetInt("job", 0));
  const std::string trace_hex = flags.GetString("trace-id", "");
  auto response = client.Inspect(job, trace_hex, timeout_ms);
  if (!response.ok()) {
    std::fprintf(stderr, "%s\n", response.status().ToString().c_str());
    return 1;
  }
  if (job != 0 || !trace_hex.empty()) {
    const net::Json* record = response->Find("record");
    if (record == nullptr) {
      std::fprintf(stderr, "inspect: response carries no record\n");
      return 1;
    }
    PrintRecordJson(*record);
    return 0;
  }
  const net::Json* records = response->Find("records");
  const size_t count = records != nullptr ? records->size() : 0;
  std::printf("flight recorder: %zu retained record(s)\n", count);
  if (count == 0) {
    std::printf("(no job crossed a retention trigger yet — latency "
                "threshold, non-ok status, or a firing alert)\n");
    return 0;
  }
  for (const net::Json& r : records->items()) {
    std::string triggers;
    const net::Json* t = r.Find("triggers");
    if (t != nullptr) {
      for (const net::Json& item : t->items()) {
        triggers += (triggers.empty() ? "" : ",") + item.AsString();
      }
    }
    std::printf("  trace %s  job %-5.0f %-8s %-6s %-20s wall %9.2f ms  "
                "[%s]\n",
                r.GetString("trace_id", "-").c_str(), r.GetNumber("job", 0),
                r.GetString("algo", "?").c_str(),
                r.GetString("device", "-").c_str(),
                r.GetString("status", "?").c_str(),
                r.GetNumber("wall_ms", 0), triggers.c_str());
  }
  std::printf("(re-run with --job=N or --trace-id=HEX for the span tree "
              "and kernel profile)\n");
  return 0;
}

/// `adgraph_cli --algo=ALGO <graph source> [options]`: one run of one
/// algorithm on one simulated device (or a gang or a stream of them).
int RunSingle(const Flags& flags) {
  if (flags.GetBool("version", false)) {
    int major = 0, minor = 0, patch = 0;
    adgraphGetVersion(&major, &minor, &patch);
    std::printf("adgraph_cli %d.%d.%d\n", major, minor, patch);
    return 0;
  }
  if (!flags.Has("algo")) return Usage();
  auto run = SingleRunFromFlags(flags);
  if (!run.ok()) return Refuse("adgraph_cli", run.status());

  graph::CsrGraph g;
  if (int exit = LoadCheckedGraph(flags, "adgraph_cli", &g)) return exit;
  auto stats = graph::ComputeDegreeStats(g);
  std::printf("graph: %u vertices, %llu edges, max degree %llu\n",
              stats.num_vertices,
              static_cast<unsigned long long>(stats.num_edges),
              static_cast<unsigned long long>(stats.max_degree));

  if (!OpenTrace(flags)) return 1;
  vgpu::Device::Options device_options;
  device_options.memory_scale = flags.GetDouble("memory-scale", 1.0);
  vgpu::Device device(*run->arch, device_options);
  std::printf("device: %s (%s)\n", device.name().c_str(),
              device.arch().vendor.c_str());

  Status status = RunAlgo(*run, &device, g);
  if (status.ok() && flags.GetBool("profile", false)) {
    std::cout << prof::FormatKernelLog(device);
  }
  CloseTrace(flags);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

std::vector<FlagSpec> Concat(std::vector<FlagSpec> head,
                             const std::vector<FlagSpec>& tail) {
  head.insert(head.end(), tail.begin(), tail.end());
  return head;
}

/// One `adgraph_cli` mode: the name that comes first on the command line,
/// the flags it accepts and its entry point.
struct Mode {
  const char* name;
  std::vector<FlagSpec> flags;
  int (*run)(const Flags&);
};

int Main(int argc, char** argv) {
  using F = FlagSpec;
  // What LoadGraph reads, for single-run, serve-batch and serve.
  const std::vector<F> source = {
      F::String("graph"),       F::String("dataset"),
      F::String("generate"),    F::Number("extra-divisor", 1),
      F::Int("scale", 1, 31),   F::Number("edge-factor", 0),
      F::Int("seed", 0),        F::Choice("weights", {"random"}),
      F::Bool("undirected")};
  // And what BuildPoolOptions reads, for serve-batch and serve.
  const std::vector<F> pool = Concat(
      source,
      {F::String("gpus"), F::Int("queue", 0),
       F::Choice("overflow", {"block", "reject"}), F::Number("headroom", 0),
       F::Number("occupancy-floor-ms", 0), F::Number("memory-scale", 1),
       F::Choice("graph-cache", {"on", "off"}), F::String("trace"),
       F::String("metrics-out"), F::String("metrics-format"),
       F::Number("metrics-interval-ms", 0), F::String("alert-rules")});
  const std::vector<F> connect = {F::String("connect"),
                                  F::Number("timeout-ms", 0)};
  const Mode modes[] = {
      {"serve-batch", Concat(pool, {F::String("jobs")}), ServeBatch},
      {"serve",
       Concat(pool, {F::Int("listen", 0, 65535), F::String("tenants"),
                     F::Int("handlers", 1, 256), F::Int("max-sessions", 1)}),
       Serve},
      {"client",
       Concat(connect, {F::String("jobs"), F::String("tenant"),
                        F::Number("deadline-ms", 0)}),
       ClientMain},
      {"mutate",
       Concat(connect, {F::String("graph"), F::String("add"),
                        F::String("del"), F::Bool("compact"),
                        F::String("tenant")}),
       MutateMain},
      {"inspect", Concat(connect, {F::Int("job", 0), F::String("trace-id")}),
       InspectMain},
  };
  const Mode single_run = {
      "adgraph_cli",
      Concat(source,
             {F::String("algo"), F::String("gpu"),
              // Job-line params, checked by net::BuildJobParams.
              F::String("source"), F::String("iters"), F::String("k"),
              F::String("fraction"), F::Bool("no-orient"),
              F::Bool("profile"), F::String("trace"),
              F::Number("memory-scale", 1), F::Bool("ooc"),
              F::Int("shard-bytes", 0),
              F::Int("devices", 1, core::kMaxGangDevices),
              F::String("interconnect"),
              F::Choice("partition", {"uniform", "degree"}),
              F::Bool("version")}),
      RunSingle};
  const Mode* mode = &single_run;
  for (const Mode& m : modes) {
    if (argc > 1 && std::string(argv[1]) == m.name) mode = &m;
  }
  // A mode's flags follow its name, which Parse skips as it skips argv[0].
  const int skip = mode == &single_run ? 0 : 1;
  auto flags = Flags::Parse(argc - skip, argv + skip, mode->flags);
  if (!flags.ok()) return Refuse(mode->name, flags.status());
  return mode->run(*flags);
}

}  // namespace
}  // namespace adgraph

int main(int argc, char** argv) { return adgraph::Main(argc, argv); }
