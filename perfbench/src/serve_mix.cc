// serve_mix — closed loop over loopback TCP against an in-process
// net::Server on an {A100, Z100L} pool with production defaults.
//
// A seeded list of jobs — mostly point queries (BFS/SSSP/BC from random
// sources), a minority of whole-graph jobs (CC, 5-iteration PageRank) on
// two small proxies — each pinned to one arch.  Set-up warms every
// (graph, algorithm, arch) so the timed phase is all residency hits; the
// connections cycle through the list.  Every result is checked against
// core::Run on a fresh device of the same arch.

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/api.h"
#include "serve/job.h"
#include "vgpu/device.h"
#include "wire.h"

namespace adgraph::perfbench {
namespace {

struct ServedGraph {
  const char* key;
  const char* dataset;
  double extra_divisor;
};
constexpr ServedGraph kGraphs[] = {{"web", "web-Google", 32},
                                   {"cit", "cit-Patents", 64}};

/// Job classes and how many of each the list holds (stratified, so every
/// seed runs the same class mix; sources, archs and order are seeded).
struct JobClass {
  const char* algo;
  size_t count;
};
constexpr JobClass kClasses[] = {
    {"bfs", 26}, {"sssp", 16}, {"bc", 10}, {"cc", 6}, {"pagerank", 6}};
constexpr uint32_t kPageRankIters = 5;

const char* kArchs[] = {"A100", "Z100L"};

const vgpu::ArchConfig& ArchByName(const std::string& name) {
  return name == "A100" ? vgpu::A100Config() : vgpu::Z100LConfig();
}

struct ListJob {
  WireJob wire;
  core::Algo algo = core::Algo::kBfs;
  graph::vid_t source = 0;
};

std::vector<ListJob> MakeJobList(
    const std::map<std::string, std::shared_ptr<const graph::CsrGraph>>&
        graphs,
    uint64_t seed) {
  std::mt19937_64 rng = MakeRng(seed, 200);
  std::map<std::string, std::vector<graph::vid_t>> sources;
  for (const auto& [key, g] : graphs) sources[key] = HubSources(*g);
  std::vector<ListJob> list;
  for (const JobClass& c : kClasses) {
    for (size_t i = 0; i < c.count; ++i) {
      ListJob job;
      job.algo = core::ParseAlgorithm(c.algo).value();
      job.wire.algo = c.algo;
      job.wire.graph = kGraphs[(i / 2) % std::size(kGraphs)].key;
      job.wire.arch = kArchs[i % 2];
      const auto& pool = sources[job.wire.graph];
      job.source = pool[std::uniform_int_distribution<size_t>(
          0, pool.size() - 1)(rng)];
      if (job.algo == core::Algo::kPageRank) {
        job.wire.params.Set("iters", static_cast<uint64_t>(kPageRankIters));
      } else if (job.algo != core::Algo::kConnectedComponents) {
        job.wire.params.Set("source", static_cast<uint64_t>(job.source));
      }
      list.push_back(std::move(job));
    }
  }
  std::shuffle(list.begin(), list.end(), rng);
  for (size_t i = 0; i < list.size(); ++i) list[i].wire.index = i;
  return list;
}

core::Params ReferenceParams(const ListJob& job) {
  switch (job.algo) {
    case core::Algo::kBfs: {
      core::BfsOptions o;
      o.source = job.source;
      return o;
    }
    case core::Algo::kSssp: {
      core::SsspOptions o;
      o.source = job.source;
      return o;
    }
    case core::Algo::kBetweenness: {
      core::BcOptions o;
      o.source = job.source;
      return o;
    }
    case core::Algo::kPageRank: {
      core::PageRankOptions o;
      o.max_iterations = kPageRankIters;
      return o;
    }
    default:
      return core::CcOptions{};
  }
}

}  // namespace

Outcome RunServeMix(const RunConfig& config) {
  Outcome out;
  Tracer::Get().Enable(config.trace);

  // ---- set-up, repeated: graphs, pool + server, warm-up pass.
  std::map<std::string, std::shared_ptr<const graph::CsrGraph>> graphs;
  std::unique_ptr<ServeStack> stack;
  std::vector<double> setup_s;
  double build_ms = 0;
  double edges = 0;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    stack.reset();
    graphs.clear();
    build_ms = 0;
    edges = 0;
    Span setup("setup", "bench", OperationId(config.seed, 1000000 + rep));
    for (const ServedGraph& sg : kGraphs) {
      auto g = BuildProxy(sg.dataset, sg.extra_divisor, /*weighted=*/true,
                          &build_ms, &edges);
      if (!g.ok()) {
        out.Fail(std::string("graph ") + sg.dataset + ": " +
                 g.status().ToString());
        return out;
      }
      graphs[sg.key] = std::make_shared<const graph::CsrGraph>(std::move(*g));
    }
    auto started = ServeStack::Start(
        {&vgpu::A100Config(), &vgpu::Z100LConfig()},
        net::Server::GraphMap(graphs.begin(), graphs.end()));
    if (!started.ok()) {
      out.Fail("server start: " + started.status().ToString());
      return out;
    }
    stack = std::move(*started);
    auto client = OpenSession(stack->port());
    if (!client.ok()) {
      out.Fail("connect: " + client.status().ToString());
      return out;
    }
    for (const ServedGraph& sg : kGraphs) {
      for (const char* arch : kArchs) {
        for (const JobClass& c : kClasses) {
          WireJob warm;
          warm.graph = sg.key;
          warm.algo = c.algo;
          warm.arch = arch;
          if (std::string(c.algo) == "pagerank") {
            warm.params.Set("iters", static_cast<uint64_t>(kPageRankIters));
          }
          auto done = SubmitAndWait(&*client, warm);
          if (!done.ok()) {
            out.Fail("warm-up: " + done.status().ToString());
            return out;
          }
        }
      }
    }
    setup_s.push_back(setup.End() / 1e3);
  }
  const std::vector<ListJob> list = MakeJobList(graphs, config.seed);
  const prof::ServerStats before = stack->scheduler()->Snapshot();

  // ---- timed phase.
  ClosedLoopOptions options;
  options.connections = 2;
  options.window = 2;
  options.seconds = config.seconds;
  options.seed = config.seed;
  TraceSlices slices(config.trace);
  double wall_s = 0;
  std::vector<WireOp> ops = RunClosedLoop(
      stack->port(), options,
      [&list, &options](size_t connection, uint64_t seq) {
        // Connection c cycles through list entries c, c + connections, ...
        return list[(seq * options.connections + connection) % list.size()]
            .wire;
      },
      &slices, &wall_s);
  const prof::ServerStats after = stack->scheduler()->Snapshot();
  const net::ServerCounters counters = stack->server()->Counters();
  const double rss_mb = PeakRssMb();
  stack.reset();

  // ---- checks (outside the timed phase): status, residency hit, exact
  // modeled repeat, fingerprint against a fresh device of the same arch.
  std::vector<std::string> reference(list.size());
  for (size_t i = 0; i < list.size(); ++i) {
    vgpu::Device device(ArchByName(list[i].wire.arch));
    auto result =
        core::Run(&device, core::AlgoSpec{list[i].algo},
                  *graphs.at(list[i].wire.graph), ReferenceParams(list[i]));
    if (!result.ok()) {
      out.Fail("reference " + list[i].wire.algo + ": " +
               result.status().ToString());
      continue;
    }
    reference[i] = Hex64(serve::FingerprintPayload(*result));
  }
  std::vector<double> first_modeled(list.size(), -1);
  std::vector<WireOp> good;
  VgpuTotals vgpu_pass;
  double warp_inst_all = 0;
  double exec_ms_all = 0;
  double hits = 0;
  for (WireOp& op : ops) {
    out.attempted += 1;
    std::string error = op.error;
    const std::string job = "job " + std::to_string(op.index) + " (" +
                            list[op.index].wire.algo + ")";
    if (error.empty() && op.fingerprint != reference[op.index]) {
      error = job + " fingerprint " + op.fingerprint + " != reference " +
              reference[op.index];
    }
    if (error.empty() && first_modeled[op.index] >= 0 &&
        op.modeled_ms != first_modeled[op.index]) {
      error = job + " modeled_ms did not repeat";
    }
    if (error.empty() && !op.cache_hit) {
      error = job + " missed the residency cache";
    }
    if (!error.empty()) {
      out.Fail(error);
      continue;
    }
    hits += 1;
    warp_inst_all += op.warp_inst;
    exec_ms_all += op.exec_ms;
    if (first_modeled[op.index] < 0) {
      first_modeled[op.index] = op.modeled_ms;
      AddProfile(&vgpu_pass, op);
    }
    good.push_back(std::move(op));
  }

  // ---- end-to-end metrics.
  SetWindowMetrics(&out, ClosedLoopWindows(good, config.seconds));
  out.notes.push_back(ClassLatencyNote(good));
  double modeled_sum = 0;
  size_t observed = 0;
  for (double m : first_modeled) {
    if (m >= 0) {
      modeled_sum += m;
      observed += 1;
    }
  }
  if (observed != list.size()) {
    out.Fail("timed phase ran " + std::to_string(observed) + " of " +
             std::to_string(list.size()) + " list jobs; modeled_ms incomplete");
  } else {
    out.end_to_end["modeled_ms"] = {PerOp(modeled_sum, double(observed)), "ms",
                                    observed};
  }
  SetSetupAndRss(&out, setup_s, rss_mb);

  // ---- per-layer metrics.
  SetLayer(&out, "graph.build_ms", build_ms, 1);
  SetLayer(&out, "graph.edges", edges, 1);
  vgpu_pass.Emit(&out);
  SetLayer(&out, "vgpu.host_ns_per_warp_inst",
           PerOp(exec_ms_all * 1e6, warp_inst_all), good.size());
  SetLayer(&out, "sim_minst_per_s", PerOp(warp_inst_all / 1e6, wall_s),
           good.size());
  SetServeLayerMetrics(&out, good);
  SetLayer(&out, "serve.cache_hit_ratio", PerOp(hits, double(ops.size())),
           ops.size());
  SetLayer(&out, "serve.stale_invalidated",
           double(after.cache_stale_invalidated -
                  before.cache_stale_invalidated),
           1);
  SetLayer(&out, "net.protocol_errors", double(counters.protocol_errors), 1);
  slices.Finish(&out);
  return out;
}

}  // namespace adgraph::perfbench
