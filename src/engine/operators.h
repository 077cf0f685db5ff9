#ifndef ADGRAPH_ENGINE_OPERATORS_H_
#define ADGRAPH_ENGINE_OPERATORS_H_

#include <cstdint>

#include "core/device_graph.h"
#include "graph/types.h"
#include "vgpu/ctx.h"
#include "vgpu/kernel.h"

namespace adgraph::engine {

/// \brief The engine's generic data-parallel operators (DESIGN.md §2.11).
///
/// Gunrock-style decomposition: every frontier algorithm is a loop of
///
///   * **Advance** — expand the frontier over its out-edges (push) or let
///     candidate vertices scan their in-edges for an active neighbor
///     (pull), applying a per-edge functor;
///   * **Filter** — compact a predicate over the vertex set into a queue.
///
/// The push kernels share one codegen (shared-memory staging, one flush
/// atomic per block) — the BFS top-down expansion whose modeled counters
/// the golden digests freeze (tests/golden_test.cc).
///
/// Functor concepts:
///
///   EdgeOp (push advance):
///     void LoadSource(Ctx&, const Lanes<vid_t>& u);
///         per-source setup after u's row is loaded (may be empty)
///     LaneMask Relax(Ctx&, u, const Lanes<eid_t>& e, const Lanes<vid_t>& v);
///         applies the edge update; returns the lanes whose v must enter
///         the output frontier (deduplicated by the op itself)
///     void OnEnqueue(Ctx&, u, v);
///         runs under the Relax mask before v is staged (e.g. parent store)
///
///   SourcePred (dense push advance): LaneMask operator()(Ctx&, u) —
///     whether vertex u expands this round.
///
///   PullOp (pull advance):
///     LaneMask Eligible(Ctx&, v) — should v look for an active neighbor?
///     LaneMask Admit(Ctx&, v, nbr) — does nbr activate v?
///     void OnAdmit(Ctx&, v, nbr) — state update when it does.
///
///   Pred (filter): LaneMask operator()(Ctx&, v).

/// Raw device view of a resident CSR (weights null when unweighted).
struct CsrView {
  vgpu::DevPtr<graph::eid_t> row;
  vgpu::DevPtr<graph::vid_t> col;
  vgpu::DevPtr<double> weights;
  uint32_t n = 0;
};

inline CsrView MakeView(const core::DeviceCsr& d) {
  CsrView v;
  v.row = d.row_offsets.ptr();
  v.col = d.col_indices.ptr();
  v.weights = d.has_weights() ? d.weights.ptr() : vgpu::DevPtr<double>{};
  v.n = d.num_vertices;
  return v;
}

/// How a push advance maps frontier entries to execution resources.
enum class LoadBalance {
  kAuto,             ///< warp-per-vertex when mean degree >= 2*warp width
  kThreadPerVertex,  ///< one thread per frontier entry (BFS's codegen)
  kWarpPerVertex,    ///< one warp per entry; lanes stride the adjacency
};

/// Shared-memory staging queue capacity (entries per block).  It sets the
/// staged/overflow split and therefore the output queue order.
inline constexpr uint32_t kStageCapacity = 2048;
/// Shared layout: [0] staging counter, [1] flush base, [2..] staged ids.
inline constexpr uint32_t kStageHeaderWords = 2;

inline uint32_t StageSharedBytes() {
  return (kStageCapacity + kStageHeaderWords) * sizeof(uint32_t);
}

namespace detail {

using graph::eid_t;
using graph::vid_t;
using vgpu::Ctx;
using vgpu::KernelTask;
using vgpu::LaneMask;
using vgpu::Lanes;
using vgpu::SmemPtr;

/// Stages v into shared memory, overflowing to the global output queue.
template <typename EdgeOp>
void StageEnqueue(Ctx& c, SmemPtr<vid_t> stage, SmemPtr<uint32_t> counter,
                  const Lanes<uint32_t>& zero_idx,
                  vgpu::DevPtr<vid_t> out_queue,
                  vgpu::DevPtr<uint32_t> out_count, const Lanes<vid_t>& u,
                  const Lanes<vid_t>& v, LaneMask fresh, EdgeOp& op) {
  c.If(fresh, [&](Ctx& c) {
    op.OnEnqueue(c, u, v);
    auto pos = c.SharedAtomicAdd(counter, zero_idx, c.Splat<uint32_t>(1));
    c.IfElse(
        c.Lt(pos, kStageCapacity),
        [&](Ctx& c) { c.SharedStore(stage, pos, v); },
        [&](Ctx& c) {
          // Staging overflow: write through to the global queue.
          auto gpos =
              c.AtomicAdd(out_count, zero_idx, c.Splat<uint32_t>(1));
          c.Store(out_queue, gpos, v);
        });
  });
}

// The staging prologue/epilogue around the per-source expansion contains
// block barriers (co_await), which cannot be factored into a helper
// coroutine — KernelTask is not awaitable — so the three push kernels
// below share it textually.

}  // namespace detail

/// Push advance over a sparse (queue) frontier, one thread per entry: the
/// BFS top-down kernel with the visit supplied as `op`.
template <typename EdgeOp>
vgpu::KernelTask PushAdvanceSparseKernel(vgpu::Ctx& c, CsrView g,
                                         vgpu::DevPtr<graph::vid_t> in_queue,
                                         uint32_t frontier_size,
                                         vgpu::DevPtr<graph::vid_t> out_queue,
                                         vgpu::DevPtr<uint32_t> out_count,
                                         EdgeOp op) {
  using detail::StageEnqueue;
  using vgpu::Ctx;
  using vgpu::LaneMask;
  using vgpu::Lanes;
  using vgpu::SmemPtr;
  using graph::eid_t;
  using graph::vid_t;

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
    auto u = c.Load(in_queue, tid);
    auto begin = c.Load(g.row, u);
    auto end = c.Load(g.row, c.Add(u, 1u));
    op.LoadSource(c, u);
    c.For(begin, end, [&](Ctx& c, const Lanes<eid_t>& e) {
      auto v = c.Load(g.col, e);
      LaneMask fresh = op.Relax(c, u, e, v);
      StageEnqueue(c, stage, counter, zero_idx, out_queue, out_count, u, v,
                   fresh, op);
    });
  });
  co_await c.Sync();

  // Flush the staged entries: one global atomic for the whole block.
  auto staged_raw = c.SharedLoad(counter, zero_idx);
  auto staged = c.Min(staged_raw, kStageCapacity);
  c.If(c.Eq(local, 0u), [&](Ctx& c) {
    auto base = c.AtomicAdd(out_count, zero_idx, staged);
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
        c.Store(out_queue, c.Add(base, cursor), v);
        c.Assign(&cursor, c.Add(cursor, block_dim));
      });
  co_return;
}

/// Push advance over a dense (flag) frontier: one thread per *vertex*,
/// expanding those that pass `pred` — constant launch shape, no queue read.
template <typename SourcePred, typename EdgeOp>
vgpu::KernelTask PushAdvanceDenseKernel(vgpu::Ctx& c, CsrView g,
                                        vgpu::DevPtr<graph::vid_t> out_queue,
                                        vgpu::DevPtr<uint32_t> out_count,
                                        SourcePred pred, EdgeOp op) {
  using detail::StageEnqueue;
  using vgpu::Ctx;
  using vgpu::LaneMask;
  using vgpu::Lanes;
  using vgpu::SmemPtr;
  using graph::eid_t;
  using graph::vid_t;

  SmemPtr<uint32_t> counter{0};
  SmemPtr<uint32_t> flush_base{sizeof(uint32_t)};
  SmemPtr<vid_t> stage{kStageHeaderWords * sizeof(uint32_t)};

  auto local = c.BlockThreadId();
  auto zero_idx = c.Splat<uint32_t>(0);
  c.If(c.Eq(local, 0u), [&](Ctx& c) {
    c.SharedStore(counter, zero_idx, c.Splat<uint32_t>(0));
  });
  co_await c.Sync();

  auto u = c.GlobalThreadId();
  c.If(c.Lt(u, g.n), [&](Ctx& c) {
    c.If(pred(c, u), [&](Ctx& c) {
      auto begin = c.Load(g.row, u);
      auto end = c.Load(g.row, c.Add(u, 1u));
      op.LoadSource(c, u);
      c.For(begin, end, [&](Ctx& c, const Lanes<eid_t>& e) {
        auto v = c.Load(g.col, e);
        LaneMask fresh = op.Relax(c, u, e, v);
        StageEnqueue(c, stage, counter, zero_idx, out_queue, out_count, u, v,
                     fresh, op);
      });
    });
  });
  co_await c.Sync();

  auto staged_raw = c.SharedLoad(counter, zero_idx);
  auto staged = c.Min(staged_raw, kStageCapacity);
  c.If(c.Eq(local, 0u), [&](Ctx& c) {
    auto base = c.AtomicAdd(out_count, zero_idx, staged);
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
        c.Store(out_queue, c.Add(base, cursor), v);
        c.Assign(&cursor, c.Add(cursor, block_dim));
      });
  co_return;
}

/// Push advance with one *warp* per frontier entry: the lanes stride the
/// entry's adjacency cooperatively.  The load-balanced gather for
/// high-degree frontiers (hubs of a power-law graph), where
/// thread-per-vertex serializes whole adjacency lists in single lanes.
template <typename EdgeOp>
vgpu::KernelTask PushAdvanceWarpKernel(vgpu::Ctx& c, CsrView g,
                                       vgpu::DevPtr<graph::vid_t> in_queue,
                                       uint32_t frontier_size,
                                       vgpu::DevPtr<graph::vid_t> out_queue,
                                       vgpu::DevPtr<uint32_t> out_count,
                                       EdgeOp op) {
  using detail::StageEnqueue;
  using vgpu::Ctx;
  using vgpu::LaneMask;
  using vgpu::Lanes;
  using vgpu::SmemPtr;
  using graph::eid_t;
  using graph::vid_t;

  SmemPtr<uint32_t> counter{0};
  SmemPtr<uint32_t> flush_base{sizeof(uint32_t)};
  SmemPtr<vid_t> stage{kStageHeaderWords * sizeof(uint32_t)};

  auto local = c.BlockThreadId();
  auto zero_idx = c.Splat<uint32_t>(0);
  c.If(c.Eq(local, 0u), [&](Ctx& c) {
    c.SharedStore(counter, zero_idx, c.Splat<uint32_t>(0));
  });
  co_await c.Sync();

  // Warp-uniform frontier index; the guard is uniform across the warp, so
  // plain host control flow (no divergence accounting) is correct.
  const uint32_t warp =
      c.block_id() * (c.block_dim() / c.width()) + c.warp_in_block();
  if (warp < frontier_size) {
    auto widx = c.Splat<uint32_t>(warp);
    auto u = c.Load(in_queue, widx);
    auto begin = c.Load(g.row, u);
    auto end = c.Load(g.row, c.Add(u, 1u));
    op.LoadSource(c, u);
    auto cursor = c.Add(begin, c.Cast<eid_t>(c.LaneId()));
    auto stride = c.Splat<eid_t>(c.width());
    c.While(
        [&](Ctx& c) { return c.Lt(cursor, end); },
        [&](Ctx& c) {
          auto v = c.Load(g.col, cursor);
          LaneMask fresh = op.Relax(c, u, cursor, v);
          StageEnqueue(c, stage, counter, zero_idx, out_queue, out_count, u,
                       v, fresh, op);
          c.Assign(&cursor, c.Add(cursor, stride));
        });
  }
  co_await c.Sync();

  auto staged_raw = c.SharedLoad(counter, zero_idx);
  auto staged = c.Min(staged_raw, kStageCapacity);
  c.If(c.Eq(local, 0u), [&](Ctx& c) {
    auto base = c.AtomicAdd(out_count, zero_idx, staged);
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
        c.Store(out_queue, c.Add(base, cursor), v);
        c.Assign(&cursor, c.Add(cursor, block_dim));
      });
  co_return;
}

/// Pull (bottom-up) advance: every vertex passing `Eligible` scans its
/// adjacency for an admitting neighbor, early-exiting on the first hit;
/// newly admitted vertices are tallied into `out_count` with one warp
/// reduction + atomic: the BFS bottom-up kernel with the level test
/// supplied as `op`.
template <typename PullOp>
vgpu::KernelTask PullAdvanceKernel(vgpu::Ctx& c, CsrView g,
                                   vgpu::DevPtr<uint32_t> out_count,
                                   PullOp op) {
  using vgpu::Ctx;
  using vgpu::LaneMask;
  using graph::eid_t;

  auto tid = c.GlobalThreadId();
  LaneMask found = 0;
  c.If(c.Lt(tid, g.n), [&](Ctx& c) {
    c.If(op.Eligible(c, tid), [&](Ctx& c) {
      auto cursor = c.Load(g.row, tid);
      auto end = c.Load(g.row, c.Add(tid, 1u));
      c.While(
          [&](Ctx& c) { return c.Lt(cursor, end) & ~found; },
          [&](Ctx& c) {
            auto v = c.Load(g.col, cursor);
            LaneMask hit = op.Admit(c, tid, v);
            c.If(hit, [&](Ctx& c) { op.OnAdmit(c, tid, v); });
            found |= hit;
            c.Assign(&cursor, c.Add(cursor, eid_t{1}));
          });
    });
  });
  // Tally admitted vertices: warp reduction + one atomic per warp.
  auto ones = c.Select(found, c.Splat<uint32_t>(1), c.Splat<uint32_t>(0));
  uint32_t sum = c.ReduceAdd(ones);
  c.If(c.Eq(c.LaneId(), 0u), [&](Ctx& c) {
    c.AtomicAdd(out_count, c.Splat<uint32_t>(0), c.Splat(sum));
  });
  co_return;
}

/// Filter: compacts the vertices passing `pred` into `out_queue` with
/// thread-ordered atomic ticketing (BFS's queue rebuild after a pull
/// round, with the level test supplied as `pred`).
template <typename Pred>
vgpu::KernelTask FilterToQueueKernel(vgpu::Ctx& c, uint32_t n,
                                     vgpu::DevPtr<graph::vid_t> out_queue,
                                     vgpu::DevPtr<uint32_t> out_count,
                                     Pred pred) {
  using vgpu::Ctx;

  auto tid = c.GlobalThreadId();
  c.If(c.Lt(tid, n), [&](Ctx& c) {
    c.If(pred(c, tid), [&](Ctx& c) {
      auto pos =
          c.AtomicAdd(out_count, c.Splat<uint32_t>(0), c.Splat<uint32_t>(1));
      c.Store(out_queue, pos, tid);
    });
  });
  co_return;
}

/// Filter predicate: vertex `v` sits on `level` (the queue rebuild after a
/// BFS pull round, and per level in BC's backward sweep).
struct LevelEqPred {
  vgpu::DevPtr<uint32_t> levels;
  uint32_t level;

  vgpu::LaneMask operator()(vgpu::Ctx& c, const vgpu::Lanes<graph::vid_t>& v) {
    return c.Eq(c.Load(levels, v), level);
  }
};

/// Resolves kAuto from the graph's mean degree: warp-per-vertex pays off
/// when an average adjacency spans multiple warp-widths.
inline LoadBalance ResolveLoadBalance(LoadBalance lb, uint64_t num_edges,
                                      uint32_t num_vertices,
                                      uint32_t warp_width) {
  if (lb != LoadBalance::kAuto) return lb;
  if (num_vertices == 0) return LoadBalance::kThreadPerVertex;
  const double mean_degree = static_cast<double>(num_edges) / num_vertices;
  return mean_degree >= 2.0 * warp_width ? LoadBalance::kWarpPerVertex
                                         : LoadBalance::kThreadPerVertex;
}

}  // namespace adgraph::engine

#endif  // ADGRAPH_ENGINE_OPERATORS_H_
