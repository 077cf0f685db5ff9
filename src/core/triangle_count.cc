#include "core/triangle_count.h"

#include <algorithm>

#include "core/residency.h"
#include "trace/trace.h"
#include "vgpu/ctx.h"
#include "vgpu/kernel.h"

namespace adgraph::core {
namespace {

using graph::eid_t;
using graph::vid_t;
using vgpu::Ctx;
using vgpu::DevPtr;
using vgpu::KernelTask;
using vgpu::LaneMask;
using vgpu::Lanes;
using vgpu::SmemPtr;

/// Launch shape of the counting kernel: 128-thread blocks, at most 8192 of
/// them resident, striding over the vertices.
constexpr uint32_t kBlockSize = 128;
constexpr uint32_t kMaxGrid = 8192;

constexpr uint32_t kEmptySlot = 0xFFFFFFFFu;
constexpr uint32_t kHashMultiplier = 2654435761u;  // Knuth

/// One block per vertex u (grid-stride): stage adj(u) in a shared hash set,
/// then for every two-hop edge (v, w) with v in adj(u), probe w.  Vertices
/// whose degree exceeds the table fall back to binary search in global
/// memory (heavier branching, no shared memory — the paper's "two
/// mainstream paradigms" in one kernel).
KernelTask TcKernel(Ctx& c, DevPtr<eid_t> row, DevPtr<vid_t> col,
                    DevPtr<uint64_t> count, uint32_t num_vertices,
                    uint32_t hash_capacity, bool force_binary_search,
                    uint32_t vertex_sample) {
  SmemPtr<uint32_t> table{0};
  auto local = c.BlockThreadId();
  auto block_dim = c.Splat(c.block_dim());
  auto zero_idx = c.Splat<uint32_t>(0);
  auto my_count = c.Splat<uint64_t>(0);

  for (uint32_t u = c.block_id(); u < num_vertices; u += c.grid_dim()) {
    // Sampled simulation: process every vertex_sample-th vertex; the launch
    // extrapolates counters via LaunchDims::work_replication.
    if (u % vertex_sample != 0) continue;
    const eid_t begin = c.ScalarOf(c.Load(row, c.Splat(u)));
    const eid_t end = c.ScalarOf(c.Load(row, c.Splat(u + 1)));
    const uint32_t degree = static_cast<uint32_t>(end - begin);
    if (degree < 2) continue;
    // Keep the open-addressing load factor under 1/2.
    const bool use_hash =
        !force_binary_search && degree <= hash_capacity / 2;

    if (use_hash) {
      // Clear + build the hash set of adj(u), block-cooperatively.
      c.SharedBlockFill(table, hash_capacity, kEmptySlot);
      co_await c.Sync();
      auto cursor = local;
      auto deg_l = c.Splat(degree);
      c.While(
          [&](Ctx& c) { return c.Lt(cursor, deg_l); },
          [&](Ctx& c) {
            auto e = c.Add(c.Cast<eid_t>(cursor), begin);
            auto w = c.Load(col, e);
            c.SharedHashInsert(table, hash_capacity, w, kHashMultiplier,
                               kEmptySlot);
            c.Assign(&cursor, c.Add(cursor, block_dim));
          });
      co_await c.Sync();
    }

    // Probe phase: threads stride over v in adj(u).
    auto vcur = local;
    auto deg_l = c.Splat(degree);
    c.While(
        [&](Ctx& c) { return c.Lt(vcur, deg_l); },
        [&](Ctx& c) {
          auto ve = c.Add(c.Cast<eid_t>(vcur), begin);
          auto v = c.Load(col, ve);
          auto v_begin = c.Load(row, v);
          auto v_end = c.Load(row, c.Add(v, 1u));
          c.For(v_begin, v_end, [&](Ctx& c, const Lanes<eid_t>& e) {
            auto w = c.Load(col, e);
            if (use_hash) {
              LaneMask found = c.SharedHashProbe(table, hash_capacity, w,
                                                 kHashMultiplier, kEmptySlot);
              auto hits = c.Select(found, c.Splat<uint64_t>(1),
                                   c.Splat<uint64_t>(0));
              c.Assign(&my_count, c.Add(my_count, hits));
            } else {
              // Binary search of w in adj(u) — global loads + divergence.
              auto lo = c.Splat<eid_t>(begin);
              auto hi = c.Splat<eid_t>(end);
              c.While(
                  [&](Ctx& c) { return c.Lt(lo, hi); },
                  [&](Ctx& c) {
                    auto mid = c.Add(lo, c.Shr(c.Sub(hi, lo), eid_t{1}));
                    auto x = c.Load(col, mid);
                    auto below = c.Lt(x, w);
                    c.IfElse(
                        below,
                        [&](Ctx& c) {
                          c.Assign(&lo, c.Add(mid, eid_t{1}));
                        },
                        [&](Ctx& c) { c.Assign(&hi, mid); });
                  });
              // Found iff lo is in range and col[lo] == w.
              LaneMask in_range = c.Lt(lo, c.Splat<eid_t>(end));
              LaneMask found = 0;
              c.If(in_range, [&](Ctx& c) {
                auto x = c.Load(col, lo);
                found = c.Eq(x, w);
              });
              auto hits = c.Select(found, c.Splat<uint64_t>(1),
                                   c.Splat<uint64_t>(0));
              c.Assign(&my_count, c.Add(my_count, hits));
            }
          });
          c.Assign(&vcur, c.Add(vcur, block_dim));
        });
    if (use_hash) {
      co_await c.Sync();  // table is cleared at the top of the next round
    }
  }

  uint64_t sum = c.ReduceAdd(my_count);
  c.If(c.Eq(c.LaneId(), 0u), [&](Ctx& c) {
    c.AtomicAdd(count, zero_idx, c.Splat(sum));
  });
  co_return;
}

/// Bisson-Fatica-style counting on the full symmetrized adjacency: each
/// block owns a smallest-vertex u, stages adj(u) in the shared hash set
/// (or falls back to binary search for hub rows that exceed it), and
/// counts w in adj(v) ∩ adj(u) over ordered wedges u < v < w.  Hub rows
/// make this the load-imbalance- and divergence-heavy variant.
KernelTask UnorientedTcKernel(Ctx& c, DevPtr<eid_t> row, DevPtr<vid_t> col,
                              DevPtr<uint64_t> count, uint32_t num_vertices,
                              uint32_t hash_capacity, bool force_binary_search,
                              uint32_t vertex_sample) {
  SmemPtr<uint32_t> table{0};
  auto local = c.BlockThreadId();
  auto block_dim = c.Splat(c.block_dim());
  auto zero_idx = c.Splat<uint32_t>(0);
  auto my_count = c.Splat<uint64_t>(0);

  for (uint32_t u = c.block_id(); u < num_vertices; u += c.grid_dim()) {
    if (u % vertex_sample != 0) continue;
    const eid_t begin = c.ScalarOf(c.Load(row, c.Splat(u)));
    const eid_t end = c.ScalarOf(c.Load(row, c.Splat(u + 1)));
    const uint32_t degree = static_cast<uint32_t>(end - begin);
    if (degree < 2) continue;
    // First neighbor > u (uniform binary search over the sorted row;
    // block-uniform, so the control flow below stays barrier-safe).
    eid_t lo = begin;
    eid_t hi = end;
    while (lo < hi) {
      eid_t mid = lo + (hi - lo) / 2;
      vid_t x = c.ScalarOf(c.Load(col, c.Splat(mid)));
      if (x <= u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    const eid_t v_start = lo;
    if (v_start >= end) continue;

    const bool use_hash =
        !force_binary_search && degree <= hash_capacity / 2;
    if (use_hash) {
      c.SharedBlockFill(table, hash_capacity, kEmptySlot);
      co_await c.Sync();
      auto cursor = local;
      auto deg_l = c.Splat(degree);
      c.While(
          [&](Ctx& c) { return c.Lt(cursor, deg_l); },
          [&](Ctx& c) {
            auto e = c.Add(c.Cast<eid_t>(cursor), begin);
            auto w = c.Load(col, e);
            c.SharedHashInsert(table, hash_capacity, w, kHashMultiplier,
                               kEmptySlot);
            c.Assign(&cursor, c.Add(cursor, block_dim));
          });
      co_await c.Sync();
    }

    // Threads stride over candidate middles v (neighbors of u above u).
    auto vcur = c.Add(c.Cast<eid_t>(local), c.Splat(v_start));
    auto v_end_l = c.Splat<eid_t>(end);
    c.While(
        [&](Ctx& c) { return c.Lt(vcur, v_end_l); },
        [&](Ctx& c) {
          auto v = c.Load(col, vcur);
          auto adj_begin = c.Load(row, v);
          auto adj_end = c.Load(row, c.Add(v, 1u));
          // Per-lane binary search: first w > v in adj(v) (divergent).
          auto slo = adj_begin;
          auto shi = adj_end;
          c.While(
              [&](Ctx& c) { return c.Lt(slo, shi); },
              [&](Ctx& c) {
                auto mid = c.Add(slo, c.Shr(c.Sub(shi, slo), eid_t{1}));
                auto x = c.Load(col, mid);
                c.IfElse(
                    c.Le(x, v),
                    [&](Ctx& c) { c.Assign(&slo, c.Add(mid, eid_t{1})); },
                    [&](Ctx& c) { c.Assign(&shi, mid); });
              });
          c.For(slo, adj_end, [&](Ctx& c, const Lanes<eid_t>& e) {
            auto w = c.Load(col, e);
            if (use_hash) {
              LaneMask found = c.SharedHashProbe(table, hash_capacity, w,
                                                 kHashMultiplier, kEmptySlot);
              auto hits = c.Select(found, c.Splat<uint64_t>(1),
                                   c.Splat<uint64_t>(0));
              c.Assign(&my_count, c.Add(my_count, hits));
            } else {
              // Hub fallback: binary-search w in adj(u) (heavy divergence).
              auto blo = c.Splat<eid_t>(begin);
              auto bhi = c.Splat<eid_t>(end);
              c.While(
                  [&](Ctx& c) { return c.Lt(blo, bhi); },
                  [&](Ctx& c) {
                    auto mid = c.Add(blo, c.Shr(c.Sub(bhi, blo), eid_t{1}));
                    auto x = c.Load(col, mid);
                    c.IfElse(
                        c.Lt(x, w),
                        [&](Ctx& c) { c.Assign(&blo, c.Add(mid, eid_t{1})); },
                        [&](Ctx& c) { c.Assign(&bhi, mid); });
                  });
              LaneMask in_range = c.Lt(blo, c.Splat<eid_t>(end));
              LaneMask found = 0;
              c.If(in_range, [&](Ctx& c) {
                auto x = c.Load(col, blo);
                found = c.Eq(x, w);
              });
              auto hits = c.Select(found, c.Splat<uint64_t>(1),
                                   c.Splat<uint64_t>(0));
              c.Assign(&my_count, c.Add(my_count, hits));
            }
          });
          c.Assign(&vcur, c.Add(vcur, c.Cast<eid_t>(block_dim)));
        });
    if (use_hash) {
      co_await c.Sync();
    }
  }

  uint64_t sum = c.ReduceAdd(my_count);
  c.If(c.Eq(c.LaneId(), 0u), [&](Ctx& c) {
    c.AtomicAdd(count, zero_idx, c.Splat(sum));
  });
  co_return;
}

}  // namespace

Result<graph::CsrGraph> SymmetrizeForTc(const graph::CsrGraph& g) {
  graph::CsrBuildOptions sym_options;
  sym_options.make_undirected = true;
  sym_options.remove_duplicates = true;
  sym_options.remove_self_loops = true;
  sym_options.sort_neighbors = true;
  return graph::CsrGraph::FromCoo(g.ToCoo(), sym_options);
}

Result<graph::CsrGraph> OrientByDegree(const graph::CsrGraph& g) {
  // Undirected interpretation: symmetrize, drop loops and duplicates.
  ADGRAPH_ASSIGN_OR_RETURN(graph::CsrGraph sym, SymmetrizeForTc(g));
  // Keep u -> v iff (deg(u), u) < (deg(v), v): every undirected edge
  // survives exactly once and the result is a DAG with bounded out-degree.
  graph::CooGraph oriented;
  oriented.num_vertices = sym.num_vertices();
  auto keep = [&sym](vid_t u, vid_t v) {
    eid_t du = sym.degree(u);
    eid_t dv = sym.degree(v);
    return du != dv ? du < dv : u < v;
  };
  for (vid_t u = 0; u < sym.num_vertices(); ++u) {
    for (vid_t v : sym.neighbors(u)) {
      if (keep(u, v)) oriented.AddEdge(u, v);
    }
  }
  graph::CsrBuildOptions dag_options;
  dag_options.sort_neighbors = true;
  return graph::CsrGraph::FromCoo(oriented, dag_options);
}

Result<TcResult> RunTriangleCountOnDevice(vgpu::Device* device,
                                          const DeviceCsr& prepared,
                                          const TcOptions& options) {
  if (prepared.num_vertices == 0) {
    return Status::InvalidArgument("triangle count on empty graph");
  }
  ADGRAPH_ASSIGN_OR_RETURN(
      auto count, rt::DeviceBuffer<uint64_t>::CreateZeroed(device, 1));

  const uint32_t sample = std::max<uint32_t>(options.vertex_sample, 1);
  rt::DeviceTimer timer(device);
  vgpu::LaunchDims dims;
  dims.grid = std::min(prepared.num_vertices, kMaxGrid);
  dims.block = kBlockSize;
  dims.shared_bytes = options.hash_capacity * sizeof(uint32_t);
  dims.work_replication = sample;
  ADGRAPH_RETURN_NOT_OK(
      device
          ->Launch(options.orient ? "tc_hash_intersect" : "tc_bisson_fatica",
                   dims,
                   [&](Ctx& c) {
                     if (options.orient) {
                       return TcKernel(c, prepared.row_offsets.ptr(),
                                       prepared.col_indices.ptr(),
                                       count.ptr(), prepared.num_vertices,
                                       options.hash_capacity,
                                       options.force_binary_search, sample);
                     }
                     return UnorientedTcKernel(
                         c, prepared.row_offsets.ptr(),
                         prepared.col_indices.ptr(), count.ptr(),
                         prepared.num_vertices, options.hash_capacity,
                         options.force_binary_search, sample);
                   })
          .status());

  TcResult result;
  result.time_ms = timer.ElapsedMs();
  result.oriented_edges = prepared.num_edges;
  result.sampled = sample > 1;
  ADGRAPH_ASSIGN_OR_RETURN(
      result.triangles,
      primitives::GetElement<uint64_t>(device, count.ptr(), 0));
  result.triangles *= sample;  // extrapolation (exact when sample == 1)
  return result;
}

Result<TcResult> RunTriangleCount(vgpu::Device* device,
                                  const graph::CsrGraph& g,
                                  const TcOptions& options,
                                  GraphResidency* residency) {
  trace::Span algo_span(device->trace_track(), "algo:tc", "algo");
  algo_span.ArgNum("num_vertices", static_cast<uint64_t>(g.num_vertices()));
  ResidentCsr staged;
  {
    trace::Span prep(device->trace_track(), "tc.prepare", "phase");
    prep.Arg("mode", options.orient ? "orient" : "symmetrize");
    ADGRAPH_ASSIGN_OR_RETURN(
        staged, Stage(residency, device, g,
                      options.orient ? GraphVariant::kTcOriented
                                     : GraphVariant::kSymSimple));
  }
  return RunTriangleCountOnDevice(device, *staged, options);
}

}  // namespace adgraph::core
