// mutate_mix — writes beside reads on one small mutable graph over TCP.
//
// One writer connection sends MUTATE batches (inserts + deletes) on a fixed
// schedule: an open loop whose latency is timed from each batch's due time.
// Reader connections run a closed loop of warm-started ("incremental")
// PageRank/CC and cold BFS/SSSP point queries.  The writer keeps a shadow
// edge set and checks each reply's `applied` and `num_edges`.

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/scheduler.h"
#include "wire.h"

namespace adgraph::perfbench {
namespace {

constexpr const char* kDataset = "web-Google";
constexpr double kExtraDivisor = 16;
constexpr const char* kGraph = "live";
/// The writer's schedule: one batch of kInserts + kDeletes every
/// kIntervalMs.  Low enough that the writer keeps its schedule while
/// warm-started reads hold the graph's mutation lock.
constexpr double kIntervalMs = 100;
constexpr size_t kInserts = 8;
constexpr size_t kDeletes = 8;
/// Reader job list per arch (stratified; order and sources seeded).  Cold
/// BFS point queries are 80% of reads, so the median lies inside that
/// class; the warm-started PageRank, the slowest class at 10%, holds the
/// p95.  32 sources per arch keep the cold reads' mean modeled time within
/// a few percent from seed to seed.
struct ReadClass {
  const char* algo;
  bool incremental;
  size_t count;
};
constexpr ReadClass kReads[] = {
    {"bfs", false, 32}, {"pagerank", true, 4}, {"cc", true, 4}};
constexpr uint32_t kPageRankIters = 10;
const char* kArchs[] = {"A100", "Z100L"};

WireJob ReadJob(const ReadClass& c, const char* arch, graph::vid_t source) {
  WireJob job;
  job.graph = kGraph;
  job.algo = c.algo;
  job.arch = arch;
  job.incremental = c.incremental;
  if (std::string(c.algo) == "pagerank") {
    job.params.Set("iters", static_cast<uint64_t>(kPageRankIters));
  } else if (std::string(c.algo) != "cc") {
    job.params.Set("source", static_cast<uint64_t>(source));
  }
  return job;
}

/// The readers' job list: one block per arch (reader connection c submits
/// only block c, so the two readers never queue behind each other), each
/// block the stratified class mix in seeded order with seeded sources.
std::vector<WireJob> MakeReadList(const graph::CsrGraph& g, uint64_t seed) {
  std::mt19937_64 rng = MakeRng(seed, 300);
  const std::vector<graph::vid_t> sources = HubSources(g);
  std::uniform_int_distribution<size_t> pick(0, sources.size() - 1);
  std::vector<WireJob> list;
  for (const char* arch : kArchs) {
    const size_t block_start = list.size();
    for (const ReadClass& c : kReads) {
      for (size_t i = 0; i < c.count; ++i) {
        list.push_back(ReadJob(c, arch, sources[pick(rng)]));
      }
    }
    std::shuffle(list.begin() + block_start, list.end(), rng);
  }
  for (size_t i = 0; i < list.size(); ++i) list[i].index = i;
  return list;
}

/// The writer's model of the live edge set.
class ShadowEdges {
 public:
  explicit ShadowEdges(const graph::CsrGraph& g) : n_(g.num_vertices()) {
    for (graph::vid_t u = 0; u < g.num_vertices(); ++u) {
      for (graph::vid_t v : g.neighbors(u)) Insert(Key(u, v));
    }
  }

  /// A batch of `inserts` absent edges and `deletes` live ones, applied to
  /// the shadow as it is drawn.
  net::Json NextBatch(std::mt19937_64* rng, size_t inserts, size_t deletes) {
    net::Json updates = net::Json::MakeArray();
    std::uniform_int_distribution<graph::vid_t> vertex(0, n_ - 1);
    std::uniform_real_distribution<double> weight(0.0, 1.0);
    for (size_t i = 0; i < inserts;) {
      const graph::vid_t u = vertex(*rng);
      const graph::vid_t v = vertex(*rng);
      if (u == v || index_.count(Key(u, v)) != 0) continue;
      Insert(Key(u, v));
      updates.PushBack(Update("add", u, v, weight(*rng)));
      ++i;
    }
    for (size_t i = 0; i < deletes && !edges_.empty(); ++i) {
      const size_t at =
          std::uniform_int_distribution<size_t>(0, edges_.size() - 1)(*rng);
      const uint64_t key = edges_[at];
      Erase(at);
      updates.PushBack(Update("del", graph::vid_t(key >> 32),
                              graph::vid_t(key & 0xffffffffu), 0));
    }
    return updates;
  }

  uint64_t size() const { return edges_.size(); }

 private:
  static uint64_t Key(graph::vid_t u, graph::vid_t v) {
    return (uint64_t(u) << 32) | v;
  }
  static net::Json Update(const char* op, graph::vid_t u, graph::vid_t v,
                          double w) {
    net::Json update = net::Json::MakeObject();
    update.Set("op", op);
    update.Set("u", static_cast<uint64_t>(u));
    update.Set("v", static_cast<uint64_t>(v));
    if (w > 0) update.Set("w", w);
    return update;
  }
  void Insert(uint64_t key) {
    index_[key] = edges_.size();
    edges_.push_back(key);
  }
  void Erase(size_t at) {
    index_.erase(edges_[at]);
    if (at + 1 != edges_.size()) {
      edges_[at] = edges_.back();
      index_[edges_[at]] = at;
    }
    edges_.pop_back();
  }

  graph::vid_t n_;
  std::vector<uint64_t> edges_;
  std::unordered_map<uint64_t, size_t> index_;
};

/// What the writer thread measured.
struct WriterLog {
  std::vector<double> latency_ms;  ///< reply time - due time
  std::vector<double> rtt_ms;      ///< reply time - send time
  double max_late_ms = 0;          ///< send time - due time, worst
  uint64_t attempted = 0;
  std::vector<std::string> errors;
};

void RunWriter(uint16_t port, ShadowEdges* shadow, uint64_t seed,
               Clock::time_point start, const std::atomic<bool>* stop,
               WriterLog* log) {
  auto session = OpenSession(port);
  if (!session.ok()) {
    log->attempted += 1;
    log->errors.push_back("writer connect: " + session.status().ToString());
    return;
  }
  std::mt19937_64 rng = MakeRng(seed, 400);
  for (uint64_t k = 0; !stop->load(); ++k) {
    const auto due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(k * kIntervalMs));
    std::this_thread::sleep_until(due);
    if (stop->load()) break;
    net::Json updates = shadow->NextBatch(&rng, kInserts, kDeletes);
    const auto sent = Clock::now();
    auto reply = session->Mutate(kGraph, std::move(updates), false, 60000);
    const auto replied = Clock::now();
    log->attempted += 1;
    const double late = MsBetween(due, sent);
    log->max_late_ms = std::max(log->max_late_ms, late);
    std::string error;
    if (!reply.ok() || !reply->GetBool("ok", false)) {
      error = "MUTATE " + std::to_string(k) + ": " +
              (reply.ok() ? reply->Dump() : reply.status().ToString());
    } else if (uint64_t(reply->GetNumber("applied", 0)) !=
               kInserts + kDeletes) {
      error = "MUTATE " + std::to_string(k) + " applied " +
              reply->Dump() + ", expected " +
              std::to_string(kInserts + kDeletes);
    } else if (uint64_t(reply->GetNumber("num_edges", 0)) != shadow->size()) {
      error = "MUTATE " + std::to_string(k) + " num_edges " +
              reply->Dump() + " != shadow " + std::to_string(shadow->size());
    } else if (late >= kIntervalMs) {
      error = "writer fell a full interval behind its schedule at batch " +
              std::to_string(k);
    }
    if (!error.empty()) {
      log->errors.push_back(std::move(error));
      continue;
    }
    log->latency_ms.push_back(MsBetween(due, replied));
    log->rtt_ms.push_back(MsBetween(sent, replied));
  }
}

}  // namespace

Outcome RunMutateMix(const RunConfig& config) {
  Outcome out;
  Tracer::Get().Enable(config.trace);

  std::shared_ptr<const graph::CsrGraph> base;
  std::unique_ptr<ServeStack> stack;
  std::vector<double> setup_s;
  double build_ms = 0;
  double edges = 0;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    stack.reset();
    build_ms = 0;
    edges = 0;
    Span setup("setup", "bench", OperationId(config.seed, 1000000 + rep));
    auto g = BuildProxy(kDataset, kExtraDivisor, /*weighted=*/true, &build_ms,
                        &edges);
    if (!g.ok()) {
      out.Fail(std::string("graph: ") + g.status().ToString());
      return out;
    }
    base = std::make_shared<const graph::CsrGraph>(std::move(*g));
    auto started = ServeStack::Start(
        {&vgpu::A100Config(), &vgpu::Z100LConfig()}, {{kGraph, base}});
    if (!started.ok()) {
      out.Fail("server start: " + started.status().ToString());
      return out;
    }
    stack = std::move(*started);
    // Warm-up: seeds the warm-start store of both incremental algorithms
    // and stages the graph on both devices.
    auto client = OpenSession(stack->port());
    if (!client.ok()) {
      out.Fail("connect: " + client.status().ToString());
      return out;
    }
    for (const ReadClass& c : kReads) {
      for (const char* arch : kArchs) {
        auto done = SubmitAndWait(&*client, ReadJob(c, arch, 0));
        if (!done.ok()) {
          out.Fail("warm-up: " + done.status().ToString());
          return out;
        }
      }
    }
    setup_s.push_back(setup.End() / 1e3);
  }
  const std::vector<WireJob> reads = MakeReadList(*base, config.seed);
  ShadowEdges shadow(*base);
  const prof::ServerStats before = stack->scheduler()->Snapshot();

  // ---- timed phase: the writer's open loop beside the readers' closed
  // loop.
  std::atomic<bool> stop{false};
  WriterLog writer;
  std::thread writer_thread(RunWriter, stack->port(), &shadow, config.seed,
                            Clock::now(), &stop, &writer);
  ClosedLoopOptions options;
  options.connections = std::size(kArchs);  // one reader per arch
  options.seconds = config.seconds;
  options.seed = config.seed;
  TraceSlices slices(config.trace);
  double wall_s = 0;
  std::vector<WireOp> ops = RunClosedLoop(
      stack->port(), options,
      [&reads](size_t connection, uint64_t seq) {
        const size_t block = reads.size() / std::size(kArchs);
        return reads[connection * block + seq % block];
      },
      &slices, &wall_s);
  stop.store(true);
  writer_thread.join();
  const prof::ServerStats after = stack->scheduler()->Snapshot();
  const net::ServerCounters counters = stack->server()->Counters();
  const double rss_mb = PeakRssMb();
  stack.reset();

  // ---- checks and metrics.
  out.attempted += writer.attempted;
  for (const std::string& error : writer.errors) out.Fail(error);
  std::vector<WireOp> good;
  VgpuTotals vgpu_reads;
  double modeled_sum = 0;  // cold reads: their work does not depend on
  double cold_reads = 0;   // how far a warm start lags the writer
  double asks = 0;
  double incremental = 0;
  double hits = 0;
  for (WireOp& op : ops) {
    out.attempted += 1;
    if (!op.error.empty()) {
      out.Fail(op.error);
      continue;
    }
    if (reads[op.index].incremental) {
      asks += 1;
      if (op.incremental) incremental += 1;
    } else {
      modeled_sum += op.modeled_ms;
      cold_reads += 1;
    }
    if (op.cache_hit) hits += 1;
    AddProfile(&vgpu_reads, op);
    good.push_back(std::move(op));
  }

  SetWindowMetrics(&out, ClosedLoopWindows(good, config.seconds));
  out.notes.push_back(ClassLatencyNote(good));
  out.end_to_end["modeled_ms"] = {PerOp(modeled_sum, cold_reads), "ms",
                                  static_cast<uint64_t>(cold_reads)};
  SetSetupAndRss(&out, setup_s, rss_mb);
  const double mutate_p95 = Quantile(writer.latency_ms, 0.95);
  out.notes.push_back(
      "mutate samples " + std::to_string(writer.latency_ms.size()) + ", p50 " +
      std::to_string(Quantile(writer.latency_ms, 0.5)) + " ms, p95 " +
      std::to_string(mutate_p95) + " ms (" +
      std::to_string(CountAbove(writer.latency_ms, mutate_p95)) +
      " beyond), worst lateness " + std::to_string(writer.max_late_ms) +
      " ms");

  SetLayer(&out, "graph.build_ms", build_ms, 1);
  SetLayer(&out, "graph.edges", edges, 1);
  vgpu_reads.Emit(&out);
  SetServeLayerMetrics(&out, good);
  SetLayer(&out, "serve.cache_hit_ratio", PerOp(hits, double(good.size())),
           good.size());
  SetLayer(&out, "serve.incremental_ratio", PerOp(incremental, asks),
           static_cast<uint64_t>(asks));
  SetLayer(&out, "serve.stale_invalidated",
           double(after.cache_stale_invalidated -
                  before.cache_stale_invalidated),
           1);
  SetLayer(&out, "mutate_p95_ms", mutate_p95, writer.latency_ms.size());
  SetLayer(&out, "net.mutate_rtt_ms",
           PerOp(Sum(writer.rtt_ms), double(writer.rtt_ms.size())),
           writer.rtt_ms.size());
  SetLayer(&out, "net.writer_late_ms", writer.max_late_ms,
           writer.latency_ms.size());
  SetLayer(&out, "net.protocol_errors", double(counters.protocol_errors), 1);
  slices.Finish(&out);
  return out;
}

}  // namespace adgraph::perfbench
