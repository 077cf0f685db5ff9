#include "part/part_bfs.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/bfs.h"
#include "core/device_graph.h"
#include "runtime/runtime.h"
#include "trace/trace.h"
#include "vgpu/ctx.h"
#include "vgpu/kernel.h"

namespace adgraph::part {
namespace {

using core::kUnreachedLevel;
using graph::eid_t;
using graph::vid_t;
using vgpu::Ctx;
using vgpu::DevPtr;
using vgpu::KernelTask;
using vgpu::Lanes;
using vgpu::SmemPtr;

/// Shared-memory staging queue of the expand kernel: the single-device
/// push advance's capacity and header (engine/operators.h), so owned
/// discoveries stage and overflow exactly as they do there.
constexpr uint32_t kStageCapacity = 2048;
constexpr uint32_t kStageHeaderWords = 2;
constexpr uint32_t kStageSharedBytes =
    (kStageCapacity + kStageHeaderWords) * sizeof(uint32_t);

/// Device arrays of one shard's expand launch.
struct ExpandState {
  DevPtr<eid_t> row;
  DevPtr<vid_t> col;
  DevPtr<uint32_t> levels;
  DevPtr<vid_t> frontier;
  DevPtr<vid_t> next_frontier;
  DevPtr<uint32_t> next_size;
};

/// Fused top-down expansion + owner routing: the single per-round compute
/// launch of each shard.  Identical discovery semantics to the
/// single-device push advance (same CAS, same level assignment — that is
/// what keeps partitioned levels byte-identical); the only difference is
/// where a winner is appended: owned ids ([lo, hi)) go through the
/// shared-memory staging queue into the local next frontier, remote ids
/// append to the remote queue for host routing.  Fusing the routing into
/// the expansion keeps the per-round launch count (and the modeled fixed
/// launch overhead with it) at parity with the single-device driver, which
/// is what lets strong scaling show through on the Table 4 proxies.
KernelTask ExpandKernel(Ctx& c, ExpandState s, uint32_t frontier_size,
                        uint32_t level, vid_t lo, vid_t hi,
                        DevPtr<vid_t> remote, DevPtr<uint32_t> remote_size) {
  SmemPtr<uint32_t> counter{0};
  SmemPtr<uint32_t> flush_base{sizeof(uint32_t)};
  SmemPtr<vid_t> stage{kStageHeaderWords * sizeof(uint32_t)};

  auto local = c.BlockThreadId();
  auto zero_idx = c.Splat<uint32_t>(0);
  c.If(c.Eq(local, 0u), [&](Ctx& c) {
    c.SharedStore(counter, zero_idx, c.Splat<uint32_t>(0));
  });
  co_await c.Sync();

  auto tid = c.GlobalThreadId();
  c.If(c.Lt(tid, frontier_size), [&](Ctx& c) {
    auto u = c.Load(s.frontier, tid);
    auto begin = c.Load(s.row, u);
    auto end = c.Load(s.row, c.Add(u, 1u));
    c.For(begin, end, [&](Ctx& c, const Lanes<eid_t>& e) {
      auto v = c.Load(s.col, e);
      auto old = c.AtomicCas(s.levels, v, c.Splat(kUnreachedLevel),
                             c.Splat(level));
      c.If(c.Eq(old, kUnreachedLevel), [&](Ctx& c) {
        c.IfElse(
            c.Ge(v, lo) & c.Lt(v, hi),
            [&](Ctx& c) {
              auto pos =
                  c.SharedAtomicAdd(counter, zero_idx, c.Splat<uint32_t>(1));
              c.IfElse(
                  c.Lt(pos, kStageCapacity),
                  [&](Ctx& c) { c.SharedStore(stage, pos, v); },
                  [&](Ctx& c) {
                    auto gpos = c.AtomicAdd(s.next_size, zero_idx,
                                            c.Splat<uint32_t>(1));
                    c.Store(s.next_frontier, gpos, v);
                  });
            },
            [&](Ctx& c) {
              auto rpos =
                  c.AtomicAdd(remote_size, zero_idx, c.Splat<uint32_t>(1));
              c.Store(remote, rpos, v);
            });
      });
    });
  });
  co_await c.Sync();

  // Flush the staged owned entries: one global atomic per block.
  auto staged_raw = c.SharedLoad(counter, zero_idx);
  auto staged = c.Min(staged_raw, kStageCapacity);
  c.If(c.Eq(local, 0u), [&](Ctx& c) {
    auto base = c.AtomicAdd(s.next_size, zero_idx, staged);
    c.SharedStore(flush_base, zero_idx, base);
  });
  co_await c.Sync();
  auto base = c.SharedLoad(flush_base, zero_idx);
  auto cursor = local;
  auto block_dim = c.Splat(c.block_dim());
  c.While(
      [&](Ctx& c) { return c.Lt(cursor, staged); },
      [&](Ctx& c) {
        auto v = c.SharedLoad(stage, cursor);
        c.Store(s.next_frontier, c.Add(base, cursor), v);
        c.Assign(&cursor, c.Add(cursor, block_dim));
      });
  co_return;
}

/// Counter-slot layout in the per-device `counters` buffer.
constexpr uint64_t kOwnedSize = 0;
constexpr uint64_t kRemoteSize = 1;
constexpr uint64_t kNumCounters = 2;

/// Everything one device contributes to the BSP loop.
struct ShardState {
  core::DeviceCsr csr;                      ///< shard adjacency, global ids
  rt::DeviceBuffer<uint32_t> levels;        ///< full [0, n) — CAS dedup hint
                                            ///< off-shard, authoritative on
                                            ///< the owned range
  rt::DeviceBuffer<vid_t> frontier;
  rt::DeviceBuffer<vid_t> owned_queue;
  rt::DeviceBuffer<vid_t> remote_queue;
  rt::DeviceBuffer<uint32_t> counters;      ///< kOwnedSize / kRemoteSize
  uint32_t frontier_size = 0;
};

}  // namespace

Result<core::BfsResult> RunPartitionedBfs(PartitionedEngine* engine,
                                          const graph::CsrGraph& g,
                                          const PartitionPlan& plan,
                                          const core::BfsOptions& options,
                                          core::ExchangeStats* stats) {
  const vid_t n = g.num_vertices();
  if (n == 0) return Status::InvalidArgument("BFS on empty graph");
  if (options.source >= n) {
    return Status::InvalidArgument("BFS source " +
                                   std::to_string(options.source) +
                                   " out of range");
  }
  ADGRAPH_RETURN_NOT_OK(engine->CheckPlan(plan, n));
  const uint32_t P = engine->num_devices();

  vgpu::Interconnect& ic = engine->interconnect();
  trace::Span algo_span(ic.trace_track(), "algo:part_bfs", "algo");
  algo_span.ArgNum("num_vertices", static_cast<uint64_t>(n));
  algo_span.ArgNum("num_devices", static_cast<uint64_t>(P));
  algo_span.ArgNum("source", static_cast<uint64_t>(options.source));

  // ---- Per-device setup (graph staging excluded from timing, as the
  // single-device drivers exclude upload). -------------------------------
  std::vector<ShardState> shards(P);
  for (uint32_t d = 0; d < P; ++d) {
    vgpu::Device* dev = engine->device(d);
    ShardState& s = shards[d];
    ADGRAPH_ASSIGN_OR_RETURN(graph::CsrGraph shard_graph,
                             BuildShardGraph(g, plan, d));
    ADGRAPH_ASSIGN_OR_RETURN(s.csr, core::DeviceCsr::Upload(dev, shard_graph));
    ADGRAPH_ASSIGN_OR_RETURN(s.levels,
                             rt::DeviceBuffer<uint32_t>::Create(dev, n));
    ADGRAPH_ASSIGN_OR_RETURN(s.frontier,
                             rt::DeviceBuffer<vid_t>::Create(dev, n));
    ADGRAPH_ASSIGN_OR_RETURN(s.owned_queue,
                             rt::DeviceBuffer<vid_t>::Create(dev, n));
    ADGRAPH_ASSIGN_OR_RETURN(s.remote_queue,
                             rt::DeviceBuffer<vid_t>::Create(dev, n));
    ADGRAPH_ASSIGN_OR_RETURN(
        s.counters, rt::DeviceBuffer<uint32_t>::Create(dev, kNumCounters));
    ADGRAPH_RETURN_NOT_OK(core::primitives::Fill<uint32_t>(
        dev, s.levels.ptr(), n, kUnreachedLevel));
    // Every replica knows the source's level: no device ever "discovers"
    // the source, so it is never re-enqueued or shipped.
    ADGRAPH_RETURN_NOT_OK(core::primitives::SetElement<uint32_t>(
        dev, s.levels.ptr(), options.source, 0));
  }
  {
    // The source's owner seeds its frontier.
    const uint32_t owner = plan.OwnerOf(options.source);
    ShardState& s = shards[owner];
    ADGRAPH_RETURN_NOT_OK(core::primitives::SetElement<uint32_t>(
        engine->device(owner), s.frontier.ptr(), 0, options.source));
    s.frontier_size = 1;
  }

  core::BfsResult result;
  core::ExchangeStats exchange_stats;
  // Round deltas start here, whatever earlier work ran on these devices.
  engine->StartRounds();

  uint32_t level = 1;
  uint64_t total_frontier = 1;
  std::vector<std::vector<std::vector<vid_t>>> outboxes(
      P, std::vector<std::vector<vid_t>>(P));
  std::vector<std::vector<vid_t>> winners(P);
  const uint32_t zeros[kNumCounters] = {0, 0};

  while (total_frontier > 0) {
    trace::Span round_span(ic.trace_track(), "part_bfs.round", "phase");
    round_span.ArgNum("level", static_cast<uint64_t>(level));
    round_span.ArgNum("frontier", total_frontier);

    // --- Local expansion + owner routing, one fused launch per device
    // (modeled as concurrent across devices).
    for (uint32_t d = 0; d < P; ++d) {
      ShardState& s = shards[d];
      vgpu::Device* dev = engine->device(d);
      ADGRAPH_RETURN_NOT_OK(s.counters.Upload(zeros, kNumCounters));
      if (s.frontier_size == 0) continue;

      ExpandState state;
      state.row = s.csr.row_offsets.ptr();
      state.col = s.csr.col_indices.ptr();
      state.levels = s.levels.ptr();
      state.frontier = s.frontier.ptr();
      state.next_frontier = s.owned_queue.ptr();
      state.next_size = s.counters.ptr() + kOwnedSize;
      const uint32_t frontier_size = s.frontier_size;
      ADGRAPH_RETURN_NOT_OK(
          dev->Launch("part_bfs_expand",
                      rt::CoverThreads(frontier_size, rt::kDefaultBlockSize,
                                       kStageSharedBytes),
                      [&](Ctx& c) {
                        return ExpandKernel(c, state, frontier_size, level,
                                            plan.lo(d), plan.hi(d),
                                            s.remote_queue.ptr(),
                                            s.counters.ptr() + kRemoteSize);
                      })
              .status());
    }

    // --- Host routing: download each device's remote queue and bucket the
    // vertices by owner.
    for (uint32_t src = 0; src < P; ++src) {
      ShardState& s = shards[src];
      vgpu::Device* dev = engine->device(src);
      for (auto& bucket : outboxes[src]) bucket.clear();
      if (s.frontier_size == 0) continue;
      ADGRAPH_ASSIGN_OR_RETURN(
          uint32_t remote_count,
          core::primitives::GetElement<uint32_t>(dev, s.counters.ptr(),
                                                 kRemoteSize));
      if (remote_count == 0) continue;
      std::vector<vid_t> remote(remote_count);
      ADGRAPH_RETURN_NOT_OK(s.remote_queue.Download(remote.data(),
                                                    remote_count));
      for (vid_t v : remote) outboxes[src][plan.OwnerOf(v)].push_back(v);
    }

    // --- Exchange: ship each (src, dst) message over the interconnect
    // (byte accounting per link) and apply the arrivals on the owner during
    // routing — first arrival (or an earlier local discovery) wins, exactly
    // the CAS-ingest order a device kernel would resolve, applied in fixed
    // ascending (src, payload) order so the owner's frontier append order
    // is deterministic.  The claim writes ride the host-routed exchange, so
    // their cost is part of the modeled exchange phase (EndRound latency +
    // busiest-link bytes), not device compute — the BSP round stays at one
    // kernel launch per device, same as the single-device driver.
    for (uint32_t dst = 0; dst < P; ++dst) {
      ShardState& t = shards[dst];
      vgpu::Device* dst_dev = engine->device(dst);
      winners[dst].clear();
      for (uint32_t src = 0; src < P; ++src) {
        const std::vector<vid_t>& payload = outboxes[src][dst];
        if (payload.empty()) continue;
        ic.AccountTransfer(src, dst, payload.size() * sizeof(vid_t));
        for (vid_t v : payload) {
          ADGRAPH_ASSIGN_OR_RETURN(
              uint32_t current,
              core::primitives::GetElement<uint32_t>(dst_dev, t.levels.ptr(),
                                                     v));
          if (current != kUnreachedLevel) continue;  // duplicate arrival
          ADGRAPH_RETURN_NOT_OK(core::primitives::SetElement<uint32_t>(
              dst_dev, t.levels.ptr(), v, level));
          winners[dst].push_back(v);
        }
      }
    }

    // --- Close the round: new frontiers (locally discovered owned vertices
    // + ingested arrivals), modeled round time.
    total_frontier = 0;
    for (uint32_t d = 0; d < P; ++d) {
      ShardState& s = shards[d];
      ADGRAPH_ASSIGN_OR_RETURN(
          uint32_t owned,
          core::primitives::GetElement<uint32_t>(engine->device(d),
                                                 s.counters.ptr(), kOwnedSize));
      std::swap(s.frontier, s.owned_queue);
      if (!winners[d].empty()) {
        ADGRAPH_RETURN_NOT_OK(s.frontier.Upload(
            winners[d].data(), winners[d].size(), /*dst_offset=*/owned));
      }
      s.frontier_size = owned + static_cast<uint32_t>(winners[d].size());
      total_frontier += s.frontier_size;
    }

    result.time_ms += engine->EndRound(
        "bfs:level=" + std::to_string(level), &exchange_stats);
    if (total_frontier > 0) result.depth = level;
    ++level;
  }

  result.top_down_iterations = exchange_stats.rounds;

  // --- Owner gather: each shard's owned range is authoritative.
  result.levels.assign(n, kUnreachedLevel);
  for (uint32_t d = 0; d < P; ++d) {
    const vid_t lo = plan.lo(d);
    const vid_t count = plan.shard_size(d);
    if (count == 0) continue;
    ADGRAPH_RETURN_NOT_OK(
        shards[d].levels.Download(result.levels.data() + lo, count, lo));
  }
  for (uint32_t lvl : result.levels) {
    if (lvl != kUnreachedLevel) result.vertices_visited += 1;
  }
  algo_span.ArgNum("depth", static_cast<uint64_t>(result.depth));
  algo_span.ArgNum("rounds", static_cast<uint64_t>(exchange_stats.rounds));
  algo_span.ArgNum("exchange_bytes", exchange_stats.bytes);
  if (stats != nullptr) *stats = exchange_stats;
  return result;
}

}  // namespace adgraph::part
