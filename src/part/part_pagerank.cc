#include "part/part_pagerank.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/device_graph.h"
#include "core/pagerank_kernels.h"
#include "core/residency.h"
#include "core/spmv.h"
#include "runtime/peer_copy.h"
#include "runtime/runtime.h"
#include "trace/trace.h"
#include "vgpu/ctx.h"
#include "vgpu/kernel.h"

namespace adgraph::part {
namespace {

using core::detail::ApplyDampingKernel;
using core::detail::DanglingSumKernel;
using graph::eid_t;
using graph::vid_t;
using vgpu::Ctx;
using vgpu::DevPtr;
using vgpu::KernelTask;

/// acc[i] += sum_j inbox[j * count + i] — folds every peer's boundary
/// contribution for the owned range in ONE launch over the stacked inbox,
/// summing in fixed ascending-src order so the result is bit-identical to
/// applying the peers one at a time.  A single launch (instead of P-1)
/// keeps the per-iteration fixed launch overhead independent of the device
/// count, which is what lets the modeled strong scaling show through.
KernelTask CombineStackedKernel(Ctx& c, DevPtr<double> acc,
                                DevPtr<double> inbox, uint32_t count,
                                uint32_t num_boxes) {
  auto tid = c.GlobalThreadId();
  c.If(c.Lt(tid, count), [&](Ctx& c) {
    auto sum = c.Load(acc, tid);
    for (uint32_t j = 0; j < num_boxes; ++j) {
      c.Assign(&sum,
               c.Add(sum, c.Load(inbox + static_cast<uint64_t>(j) * count,
                                 tid)));
    }
    c.Store(acc, tid, sum);
  });
  co_return;
}

struct ShardState {
  core::DeviceCsr pull;                 ///< pull-transpose of the shard
  rt::DeviceBuffer<eid_t> row;          ///< shard row offsets (dangling scan)
  rt::DeviceBuffer<double> ranks;       ///< full replica of the rank vector
  rt::DeviceBuffer<double> partial;     ///< this shard's contribution to all
  rt::DeviceBuffer<double> inbox;       ///< (P-1) stacked peer contributions
  rt::DeviceBuffer<double> scalars;     ///< [0] dangling partial, [1] delta
};

}  // namespace

Result<core::PageRankResult> RunPartitionedPageRank(
    PartitionedEngine* engine, const graph::CsrGraph& g,
    const PartitionPlan& plan, const core::PageRankOptions& options,
    core::ExchangeStats* stats) {
  const vid_t n = g.num_vertices();
  if (n == 0) return Status::InvalidArgument("PageRank on empty graph");
  if (options.alpha <= 0 || options.alpha >= 1) {
    return Status::InvalidArgument("damping factor must be in (0,1)");
  }
  ADGRAPH_RETURN_NOT_OK(engine->CheckPlan(plan, n));
  const uint32_t P = engine->num_devices();

  vgpu::Interconnect& ic = engine->interconnect();
  trace::Span algo_span(ic.trace_track(), "algo:part_pagerank", "algo");
  algo_span.ArgNum("num_vertices", static_cast<uint64_t>(n));
  algo_span.ArgNum("num_devices", static_cast<uint64_t>(P));

  // ---- Per-device setup (staging excluded from timing). ----------------
  std::vector<ShardState> shards(P);
  for (uint32_t d = 0; d < P; ++d) {
    vgpu::Device* dev = engine->device(d);
    ShardState& s = shards[d];
    ADGRAPH_ASSIGN_OR_RETURN(graph::CsrGraph shard_graph,
                             BuildShardGraph(g, plan, d));
    // Pull operand: transpose of the shard with 1/outdeg(u) weights.  Owned
    // rows carry their full global adjacency, so shard out-degrees equal
    // global out-degrees and the shard SpMV yields exactly this shard's
    // additive contribution to every vertex.
    ADGRAPH_ASSIGN_OR_RETURN(
        graph::CsrGraph pull_graph,
        core::BuildHostVariant(shard_graph, core::GraphVariant::kPullTranspose));
    ADGRAPH_ASSIGN_OR_RETURN(s.pull, core::DeviceCsr::Upload(dev, pull_graph));
    ADGRAPH_ASSIGN_OR_RETURN(
        s.row, rt::DeviceBuffer<eid_t>::FromHost(dev, shard_graph.row_offsets()));
    ADGRAPH_ASSIGN_OR_RETURN(s.ranks,
                             rt::DeviceBuffer<double>::Create(dev, n));
    ADGRAPH_ASSIGN_OR_RETURN(s.partial,
                             rt::DeviceBuffer<double>::Create(dev, n));
    ADGRAPH_ASSIGN_OR_RETURN(
        s.inbox,
        rt::DeviceBuffer<double>::Create(
            dev, std::max<uint64_t>(
                     1, static_cast<uint64_t>(P - 1) * plan.shard_size(d))));
    ADGRAPH_ASSIGN_OR_RETURN(s.scalars,
                             rt::DeviceBuffer<double>::Create(dev, 2));
    ADGRAPH_RETURN_NOT_OK(
        core::primitives::Fill<double>(dev, s.ranks.ptr(), n, 1.0 / n));
  }

  core::PageRankResult result;
  core::ExchangeStats exchange_stats;

  engine->StartRounds();

  for (uint32_t iter = 0; iter < options.max_iterations; ++iter) {
    trace::Span sweep(ic.trace_track(), "part_pagerank.iteration", "phase");
    sweep.ArgNum("iteration", static_cast<uint64_t>(iter + 1));

    // --- (a) Dangling mass: local partial sums over owned ranges, host
    // combine (modeled as an 8-byte all-to-all scalar exchange).
    double dangling = 0;
    for (uint32_t d = 0; d < P; ++d) {
      ShardState& s = shards[d];
      vgpu::Device* dev = engine->device(d);
      const vid_t lo = plan.lo(d);
      const vid_t count = plan.shard_size(d);
      ADGRAPH_RETURN_NOT_OK(
          core::primitives::SetElement<double>(dev, s.scalars.ptr(), 0, 0.0));
      if (count > 0) {
        ADGRAPH_RETURN_NOT_OK(
            dev->Launch("pagerank_dangling", rt::CoverThreads(count),
                        [&](Ctx& c) {
                          return DanglingSumKernel(c, s.row.ptr() + lo,
                                                   s.ranks.ptr() + lo,
                                                   s.scalars.ptr(), count);
                        })
                .status());
      }
      ADGRAPH_ASSIGN_OR_RETURN(
          double local,
          core::primitives::GetElement<double>(dev, s.scalars.ptr(), 0));
      dangling += local;
    }
    for (uint32_t src = 0; src < P; ++src) {
      for (uint32_t dst = 0; dst < P; ++dst) {
        if (src != dst) ic.AccountTransfer(src, dst, sizeof(double));
      }
    }

    // --- (b) Local SpMV: partial_d = A_d^T * ranks.
    for (uint32_t d = 0; d < P; ++d) {
      ShardState& s = shards[d];
      ADGRAPH_RETURN_NOT_OK(core::RunSpmvOnDevice(
          engine->device(d), s.pull, s.ranks.ptr(), s.partial.ptr()));
    }

    // --- (c) Reduce-scatter: every peer's boundary contribution for the
    // owner's range lands in its slot of the stacked inbox (src-ascending,
    // so the fixed summation order is deterministic), then one combine
    // launch folds them all into the owner's partial.
    for (uint32_t owner = 0; owner < P; ++owner) {
      ShardState& o = shards[owner];
      vgpu::Device* owner_dev = engine->device(owner);
      const vid_t lo = plan.lo(owner);
      const vid_t count = plan.shard_size(owner);
      if (count == 0) continue;
      uint32_t boxes = 0;
      for (uint32_t src = 0; src < P; ++src) {
        if (src == owner) continue;
        ShardState& s = shards[src];
        ADGRAPH_RETURN_NOT_OK(rt::PeerCopy<double>(
            engine->device(src), s.partial.ptr() + lo, owner_dev,
            o.inbox.ptr() + static_cast<uint64_t>(boxes) * count, count, &ic,
            src, owner));
        ++boxes;
      }
      if (boxes == 0) continue;
      ADGRAPH_RETURN_NOT_OK(
          owner_dev
              ->Launch("pagerank_combine", rt::CoverThreads(count),
                       [&](Ctx& c) {
                         return CombineStackedKernel(c, o.partial.ptr() + lo,
                                                     o.inbox.ptr(), count,
                                                     boxes);
                       })
              .status());
    }

    // --- (d) Damping update on owned ranges; per-owner L1 deltas combine
    // on the host (8-byte all-to-all, as the dangling pass).
    const double base = (1.0 - options.alpha) / n +
                        options.alpha * dangling / static_cast<double>(n);
    double l1_delta = 0;
    for (uint32_t owner = 0; owner < P; ++owner) {
      ShardState& o = shards[owner];
      vgpu::Device* dev = engine->device(owner);
      const vid_t lo = plan.lo(owner);
      const vid_t count = plan.shard_size(owner);
      if (count == 0) continue;
      ADGRAPH_RETURN_NOT_OK(
          core::primitives::SetElement<double>(dev, o.scalars.ptr(), 1, 0.0));
      ADGRAPH_RETURN_NOT_OK(
          dev->Launch("pagerank_damping", rt::CoverThreads(count),
                      [&](Ctx& c) {
                        return ApplyDampingKernel(c, o.partial.ptr() + lo,
                                                  o.ranks.ptr() + lo,
                                                  o.scalars.ptr() + 1, base,
                                                  options.alpha, count);
                      })
              .status());
      ADGRAPH_ASSIGN_OR_RETURN(
          double local,
          core::primitives::GetElement<double>(dev, o.scalars.ptr(), 1));
      l1_delta += local;
    }
    for (uint32_t src = 0; src < P; ++src) {
      for (uint32_t dst = 0; dst < P; ++dst) {
        if (src != dst) ic.AccountTransfer(src, dst, sizeof(double));
      }
    }

    // --- (e) All-gather: refresh every replica with the updated segments.
    for (uint32_t owner = 0; owner < P; ++owner) {
      ShardState& o = shards[owner];
      vgpu::Device* owner_dev = engine->device(owner);
      const vid_t lo = plan.lo(owner);
      const vid_t count = plan.shard_size(owner);
      if (count == 0) continue;
      ADGRAPH_RETURN_NOT_OK(owner_dev->CopyDeviceToDevice(
          o.ranks.ptr() + lo, o.partial.ptr() + lo, count));
      for (uint32_t dst = 0; dst < P; ++dst) {
        if (dst == owner) continue;
        ADGRAPH_RETURN_NOT_OK(rt::PeerCopy<double>(
            owner_dev, o.partial.ptr() + lo, engine->device(dst),
            shards[dst].ranks.ptr() + lo, count, &ic, owner, dst));
      }
    }

    // --- Close the iteration's exchange round and roll up modeled time.
    result.time_ms += engine->EndRound(
        "pagerank:iter=" + std::to_string(iter + 1), &exchange_stats);

    result.l1_delta = l1_delta;
    sweep.ArgNum("l1_delta", l1_delta);
    result.iterations = iter + 1;
    if (options.tolerance > 0 && result.l1_delta < options.tolerance) break;
  }

  // --- Owner gather of the final ranks.
  result.ranks.assign(n, 0.0);
  for (uint32_t d = 0; d < P; ++d) {
    const vid_t lo = plan.lo(d);
    const vid_t count = plan.shard_size(d);
    if (count == 0) continue;
    ADGRAPH_RETURN_NOT_OK(
        shards[d].ranks.Download(result.ranks.data() + lo, count, lo));
  }
  algo_span.ArgNum("iterations", static_cast<uint64_t>(result.iterations));
  algo_span.ArgNum("exchange_bytes", exchange_stats.bytes);
  if (stats != nullptr) *stats = exchange_stats;
  return result;
}

}  // namespace adgraph::part
