// placements — gang and streamed execution through serve::Scheduler::Submit.
//
// Batch, one submitter, in process.  BFS and 5-iteration PageRank on one
// larger proxy, each as a 2- and a 4-device gang (JobSpec::gang_devices)
// and as a streamed job (allow_streamed + ooc_shard_bytes), on pools of
// four A100 slots whose memory is scaled so the algorithm's whole-graph
// working set does not fit one device.  Each job must report the path it
// was meant to take; results are checked against core/host_ref.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/host_ref.h"
#include "serve/scheduler.h"
#include "vgpu/arch.h"
#include "workloads.h"

namespace adgraph::perfbench {
namespace {

constexpr const char* kDataset = "soc-liveJournal1";
constexpr double kExtraDivisor = 8;
constexpr uint32_t kPageRankIters = 5;
/// The BFS source is drawn among this many top-degree vertices: a hub
/// reaches the whole core, so the streamed BFS's shard rounds — most of
/// its modeled time — vary little from seed to seed.
constexpr size_t kSourceHubs = 16;
/// L1 distance allowed between a placement's ranks and host_ref: gangs
/// re-associate the per-vertex sums, so they match only to rounding.
constexpr double kPageRankL1Tolerance = 1e-9;

/// One pool per algorithm, its device memory given in units of the
/// graph's CSR bytes.  BFS's whole-graph working set is ~1.2x CSR and
/// PageRank's ~3.1x (pull transpose with weights), while a 2-way PageRank
/// gang shard needs ~1.5x, so one capacity cannot serve both: each pool's
/// capacity lies below its algorithm's whole-graph set and above its gang
/// shards.  The streamed staging slots are a fraction of the capacity.
struct PoolSpec {
  core::Algo algo;
  double capacity_csr;
  double shard_fraction;
};
constexpr PoolSpec kPools[] = {{core::Algo::kBfs, 0.8, 1.0 / 8},
                               {core::Algo::kPageRank, 2.0, 1.0 / 4}};

struct Placement {
  const char* name;
  size_t pool;
  uint32_t gang;  ///< 1 = streamed
};
constexpr Placement kPlacements[] = {
    {"bfs.gang2", 0, 2},      {"bfs.gang4", 0, 4},
    {"bfs.streamed", 0, 1},   {"pagerank.gang2", 1, 2},
    {"pagerank.gang4", 1, 4}, {"pagerank.streamed", 1, 1}};

struct Pools {
  std::vector<std::unique_ptr<serve::Scheduler>> schedulers;
  std::vector<uint64_t> capacity_bytes;
};

Result<Pools> StartPools(const graph::CsrGraph& g) {
  const double csr_bytes = double(g.num_vertices() + 1) * sizeof(graph::eid_t) +
                           double(g.num_edges()) * sizeof(graph::vid_t);
  Pools pools;
  for (const PoolSpec& spec : kPools) {
    const double capacity = spec.capacity_csr * csr_bytes;
    serve::Scheduler::Options options;
    vgpu::Device::Options device;
    device.memory_scale =
        double(vgpu::A100Config().dram_capacity_bytes) / capacity;
    for (int i = 0; i < 4; ++i) {
      options.devices.push_back({&vgpu::A100Config(), device});
    }
    ADGRAPH_ASSIGN_OR_RETURN(auto scheduler,
                             serve::Scheduler::Create(std::move(options)));
    pools.schedulers.push_back(std::move(scheduler));
    pools.capacity_bytes.push_back(static_cast<uint64_t>(capacity));
  }
  return pools;
}

serve::JobSpec MakeSpec(const Placement& p, const Pools& pools,
                        std::shared_ptr<const graph::CsrGraph> g,
                        graph::vid_t source) {
  serve::JobSpec spec;
  spec.graph = std::move(g);
  const PoolSpec& pool = kPools[p.pool];
  if (pool.algo == core::Algo::kBfs) {
    core::BfsOptions o;
    o.source = source;
    spec.params = o;
  } else {
    core::PageRankOptions o;
    o.max_iterations = kPageRankIters;
    spec.params = o;
  }
  if (p.gang > 1) {
    spec.gang_devices = p.gang;
  } else {
    spec.allow_streamed = true;
    spec.ooc_shard_bytes = static_cast<uint64_t>(
        double(pools.capacity_bytes[p.pool]) * pool.shard_fraction);
  }
  return spec;
}

/// "" when the outcome took the placement's path and matches host_ref.
std::string Verify(const Placement& p, const serve::JobOutcome& o,
                   const graph::CsrGraph& g, graph::vid_t source,
                   double* pagerank_l1) {
  if (!o.status.ok()) return o.status.ToString();
  if (p.gang > 1 && o.gang_devices != p.gang) {
    return "ran on " + std::to_string(o.gang_devices) + " devices, not a gang";
  }
  if (p.gang == 1 && (!o.streamed || o.ooc_shards == 0)) {
    return "did not stream (ran in memory)";
  }
  if (kPools[p.pool].algo == core::Algo::kBfs) {
    if (std::get<core::BfsResult>(o.payload).levels !=
        core::host_ref::BfsLevels(g, source)) {
      return "BFS levels differ from host_ref";
    }
    return "";
  }
  const auto& r = std::get<core::PageRankResult>(o.payload);
  const std::vector<double> want = core::host_ref::PageRank(
      g, core::PageRankOptions{}.alpha, r.iterations);
  double l1 = 0;
  for (size_t v = 0; v < want.size(); ++v) l1 += std::fabs(r.ranks[v] - want[v]);
  *pagerank_l1 = std::max(*pagerank_l1, l1);
  if (r.ranks.size() != want.size() || !(l1 <= kPageRankL1Tolerance)) {
    return "PageRank L1 " + std::to_string(l1) + " from host_ref";
  }
  return "";
}

}  // namespace

Outcome RunPlacements(const RunConfig& config) {
  Outcome out;
  Tracer::Get().Enable(config.trace);

  std::shared_ptr<const graph::CsrGraph> graph;
  Pools pools;
  std::vector<double> setup_s;
  double build_ms = 0;
  double edges = 0;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    pools = Pools{};
    build_ms = 0;
    edges = 0;
    Span setup("setup", "bench", OperationId(config.seed, 1000000 + rep));
    auto g = BuildProxy(kDataset, kExtraDivisor, /*weighted=*/false,
                        &build_ms, &edges);
    if (!g.ok()) {
      out.Fail("graph: " + g.status().ToString());
      return out;
    }
    graph = std::make_shared<const graph::CsrGraph>(std::move(*g));
    auto started = StartPools(*graph);
    if (!started.ok()) {
      out.Fail("pools: " + started.status().ToString());
      return out;
    }
    pools = std::move(*started);
    setup_s.push_back(setup.End() / 1e3);
  }
  // One seeded BFS source among the highest-degree vertices, shared by the
  // three BFS placements so their outputs and costs compare directly.
  const std::vector<graph::vid_t> hubs = HubSources(*graph);
  std::mt19937_64 rng = MakeRng(config.seed, 500);
  const graph::vid_t source = hubs[std::uniform_int_distribution<size_t>(
      0, std::min<size_t>(kSourceHubs, hubs.size()) - 1)(rng)];

  // ---- timed phase: whole passes over the placements.
  const size_t n = std::size(kPlacements);
  std::vector<serve::JobOutcome> first(n);
  std::vector<std::vector<double>> placement_ms(n);
  std::vector<Window> passes;
  uint64_t jobs_run = 0;
  double part_ms = 0;
  double part_jobs = 0;
  double ooc_ms = 0;
  double ooc_jobs = 0;
  double warp_inst_all = 0;
  uint64_t op_index = 0;
  TraceSlices slices(config.trace);
  const auto phase_start = Clock::now();
  for (size_t pass = 0;; ++pass) {
    if (pass > 0 &&
        MsBetween(phase_start, Clock::now()) >= config.seconds * 1e3) {
      break;
    }
    const auto pass_start = Clock::now();
    Window& window = passes.emplace_back();
    for (size_t i = 0; i < n; ++i) {
      const Placement& p = kPlacements[i];
      out.attempted += 1;
      const bool traced = slices.TracedNow();
      Span op(std::string("job:") + p.name, "bench",
              OperationId(config.seed, op_index++), traced);
      Span layer(p.gang > 1 ? "part.submit_to_future" : "ooc.submit_to_future",
                 p.gang > 1 ? "part" : "ooc");
      auto submitted = pools.schedulers[p.pool]->Submit(
          MakeSpec(p, pools, graph, source));
      if (!submitted.ok()) {
        out.Fail(std::string(p.name) + ": " + submitted.status().ToString());
        continue;
      }
      serve::JobOutcome outcome = submitted->get();
      const double host_ms = layer.End();
      window.latencies_ms.push_back(op.End());
      placement_ms[i].push_back(window.latencies_ms.back());
      jobs_run += 1;
      slices.CountDone(traced);
      (p.gang > 1 ? part_ms : ooc_ms) += host_ms;
      (p.gang > 1 ? part_jobs : ooc_jobs) += 1;
      warp_inst_all += double(outcome.job_profile.warp_inst_issued);
      if (pass == 0) {
        first[i] = std::move(outcome);
      } else if (!outcome.status.ok() ||
                 outcome.modeled_ms != first[i].modeled_ms ||
                 serve::FingerprintPayload(outcome.payload) !=
                     serve::FingerprintPayload(first[i].payload)) {
        out.Fail(std::string(p.name) + ": pass " + std::to_string(pass) +
                 " differs from pass 0 (status, modeled or result)");
      }
    }
    window.seconds = MsBetween(pass_start, Clock::now()) / 1e3;
  }
  const double wall_s = MsBetween(phase_start, Clock::now()) / 1e3;
  const double rss_mb = PeakRssMb();
  pools = Pools{};

  // ---- checks: path taken and host_ref results (first pass).
  double pagerank_l1 = 0;
  for (size_t i = 0; i < n; ++i) {
    const std::string why =
        Verify(kPlacements[i], first[i], *graph, source, &pagerank_l1);
    if (!why.empty()) out.Fail(std::string(kPlacements[i].name) + ": " + why);
  }
  char note[128];
  std::snprintf(note, sizeof(note),
                "largest PageRank L1 distance from host_ref %.3g (bound %.0e)",
                pagerank_l1, kPageRankL1Tolerance);
  out.notes.push_back(note);
  std::string by_placement = "median ms by placement:";
  for (size_t i = 0; i < n; ++i) {
    std::snprintf(note, sizeof(note), " %s %.2f", kPlacements[i].name,
                  Median(placement_ms[i]));
    by_placement += note;
  }
  out.notes.push_back(by_placement);

  // ---- metrics.
  SetWindowMetrics(&out, passes);
  double modeled_sum = 0;
  for (const serve::JobOutcome& o : first) modeled_sum += o.modeled_ms;
  out.end_to_end["modeled_ms"] = {PerOp(modeled_sum, double(n)), "ms", n};
  SetSetupAndRss(&out, setup_s, rss_mb);

  SetLayer(&out, "graph.build_ms", build_ms, 1);
  SetLayer(&out, "graph.edges", edges, 1);
  double gangs = 0;
  double exchange_bytes = 0;
  double exchange_rounds = 0;
  double exchange_ms = 0;
  double streamed = 0;
  double staged_bytes = 0;
  double shards = 0;
  double overlap = 0;
  VgpuTotals vgpu_streamed;
  for (size_t i = 0; i < n; ++i) {
    const serve::JobOutcome& o = first[i];
    if (kPlacements[i].gang > 1) {
      gangs += 1;
      exchange_bytes += double(o.exchange_bytes);
      exchange_rounds += double(o.exchange_rounds);
      exchange_ms += o.exchange_ms;
    } else {
      streamed += 1;
      staged_bytes += double(o.ooc_staged_bytes);
      shards += double(o.ooc_shards);
      overlap += o.ooc_overlap_speedup;
      const prof::JobProfile& jp = o.job_profile;
      vgpu_streamed.AddOp(double(jp.warp_inst_issued), double(jp.num_kernels),
                          double(jp.dram_bytes), jp.l1_hit_rate,
                          jp.l2_hit_rate, jp.divergent_branch_ratio,
                          jp.gld_efficiency);
    }
  }
  const auto gang_n = static_cast<uint64_t>(gangs);
  const auto streamed_n = static_cast<uint64_t>(streamed);
  SetLayer(&out, "part.host_ms", PerOp(part_ms, part_jobs),
           static_cast<uint64_t>(part_jobs));
  SetLayer(&out, "part.exchange_mb", PerOp(exchange_bytes, gangs) / 1e6,
           gang_n);
  SetLayer(&out, "part.exchange_rounds", PerOp(exchange_rounds, gangs), gang_n);
  SetLayer(&out, "part.exchange_ms", PerOp(exchange_ms, gangs), gang_n);
  SetLayer(&out, "ooc.host_ms", PerOp(ooc_ms, ooc_jobs),
           static_cast<uint64_t>(ooc_jobs));
  SetLayer(&out, "ooc.staged_mb", PerOp(staged_bytes, streamed) / 1e6,
           streamed_n);
  SetLayer(&out, "ooc.shards", PerOp(shards, streamed), streamed_n);
  SetLayer(&out, "ooc.overlap_speedup", PerOp(overlap, streamed), streamed_n);
  vgpu_streamed.Emit(&out);
  SetLayer(&out, "sim_minst_per_s", PerOp(warp_inst_all / 1e6, wall_s),
           jobs_run);
  slices.Finish(&out);
  return out;
}

}  // namespace adgraph::perfbench
