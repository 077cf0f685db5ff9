#include "core/subgraph.h"

#include <algorithm>

#include "core/residency.h"
#include "trace/trace.h"
#include "vgpu/ctx.h"
#include "vgpu/kernel.h"

namespace adgraph::core {
namespace {

using graph::eid_t;
using graph::vid_t;
using graph::weight_t;
using vgpu::Ctx;
using vgpu::DevPtr;
using vgpu::KernelTask;
using vgpu::Lanes;

/// Counts, per source vertex, the edges appearing in the CSC (one thread
/// per CSC entry; scattered atomics — the conversion's irregular phase).
KernelTask CscCountKernel(Ctx& c, DevPtr<vid_t> csc_col, DevPtr<uint32_t> deg,
                          uint64_t num_entries) {
  auto tid = c.Cast<uint64_t>(c.GlobalThreadId());
  c.If(c.Lt(tid, num_entries), [&](Ctx& c) {
    auto src = c.Load(csc_col, tid);
    c.AtomicAdd(deg, src, c.Splat<uint32_t>(1));
  });
  co_return;
}

/// Scatters CSC entries into CSR order using per-source cursors.
KernelTask CscScatterKernel(Ctx& c, DevPtr<eid_t> csc_row,
                            DevPtr<vid_t> csc_col, DevPtr<weight_t> csc_w,
                            DevPtr<uint32_t> cursor, DevPtr<vid_t> csr_col,
                            DevPtr<weight_t> csr_w, uint32_t num_vertices) {
  auto v = c.GlobalThreadId();
  c.If(c.Lt(v, num_vertices), [&](Ctx& c) {
    auto begin = c.Load(csc_row, v);
    auto end = c.Load(csc_row, c.Add(v, 1u));
    c.For(begin, end, [&](Ctx& c, const Lanes<eid_t>& e) {
      auto src = c.Load(csc_col, e);
      auto w = c.Load(csc_w, e);
      auto pos = c.AtomicAdd(cursor, src, c.Splat<uint32_t>(1));
      c.Store(csr_col, pos, v);
      c.Store(csr_w, pos, w);
    });
  });
  co_return;
}

/// Marks the selected vertices.
KernelTask MarkKernel(Ctx& c, DevPtr<vid_t> selected, DevPtr<uint32_t> flags,
                      uint64_t count) {
  auto tid = c.Cast<uint64_t>(c.GlobalThreadId());
  c.If(c.Lt(tid, count), [&](Ctx& c) {
    auto v = c.Load(selected, tid);
    c.Store(flags, v, c.Splat<uint32_t>(1));
  });
  co_return;
}

/// Emits the induced edges as renumbered COO triples (the branch-heavy
/// heart of ESBV: two flag tests and an atomic per candidate edge).
KernelTask EmitKernel(Ctx& c, DevPtr<uint32_t> csr_row32, DevPtr<vid_t> csr_col,
                      DevPtr<weight_t> csr_w, DevPtr<uint32_t> flags,
                      DevPtr<uint32_t> map, DevPtr<vid_t> coo_src,
                      DevPtr<vid_t> coo_dst, DevPtr<weight_t> coo_w,
                      DevPtr<uint32_t> coo_count, uint32_t num_vertices) {
  auto u = c.GlobalThreadId();
  c.If(c.Lt(u, num_vertices), [&](Ctx& c) {
    auto selected = c.Load(flags, u);
    c.If(c.Eq(selected, 1u), [&](Ctx& c) {
      auto begin = c.Load(csr_row32, u);
      auto end = c.Load(csr_row32, c.Add(u, 1u));
      auto new_u = c.Load(map, u);
      c.For(begin, end, [&](Ctx& c, const Lanes<uint32_t>& e) {
        auto v = c.Load(csr_col, e);
        auto v_selected = c.Load(flags, v);
        c.If(c.Eq(v_selected, 1u), [&](Ctx& c) {
          auto w = c.Load(csr_w, e);
          auto new_v = c.Load(map, v);
          auto pos =
              c.AtomicAdd(coo_count, c.Splat<uint32_t>(0), c.Splat<uint32_t>(1));
          c.Store(coo_src, pos, new_u);
          c.Store(coo_dst, pos, new_v);
          c.Store(coo_w, pos, w);
        });
      });
    });
  });
  co_return;
}

/// Per-output-vertex degree of the COO (thread per COO entry).
KernelTask CooCountKernel(Ctx& c, DevPtr<vid_t> coo_src, DevPtr<uint32_t> deg,
                          uint64_t num_entries) {
  auto tid = c.Cast<uint64_t>(c.GlobalThreadId());
  c.If(c.Lt(tid, num_entries), [&](Ctx& c) {
    auto src = c.Load(coo_src, tid);
    c.AtomicAdd(deg, src, c.Splat<uint32_t>(1));
  });
  co_return;
}

/// Builds the CSR-order permutation of COO entries (counting-sort scatter
/// phase of the cusparse-style argsort conversion).
KernelTask CooPermKernel(Ctx& c, DevPtr<vid_t> coo_src,
                         DevPtr<uint32_t> cursor, DevPtr<uint32_t> perm,
                         uint64_t num_entries) {
  auto tid = c.Cast<uint64_t>(c.GlobalThreadId());
  c.If(c.Lt(tid, num_entries), [&](Ctx& c) {
    auto src = c.Load(coo_src, tid);
    auto pos = c.AtomicAdd(cursor, src, c.Splat<uint32_t>(1));
    c.Store(perm, pos, c.Cast<uint32_t>(tid));
  });
  co_return;
}

/// Out-of-place gather of (dst, weight) through the permutation.
KernelTask CooGatherKernel(Ctx& c, DevPtr<uint32_t> perm,
                           DevPtr<vid_t> coo_dst, DevPtr<weight_t> coo_w,
                           DevPtr<vid_t> out_col, DevPtr<weight_t> out_w,
                           uint64_t num_entries) {
  auto tid = c.Cast<uint64_t>(c.GlobalThreadId());
  c.If(c.Lt(tid, num_entries), [&](Ctx& c) {
    auto e = c.Load(perm, tid);
    c.Store(out_col, tid, c.Load(coo_dst, e));
    c.Store(out_w, tid, c.Load(coo_w, e));
  });
  co_return;
}

/// Finds the source vertex of each selected edge by binary search over the
/// row offsets (the CSR has no reverse edge->src map), then marks both
/// endpoints.  Per-lane divergent search — the extraction family's
/// signature branching.
KernelTask EsbeMarkKernel(Ctx& c, DevPtr<eid_t> row, DevPtr<vid_t> col,
                          DevPtr<uint32_t> edge_list, DevPtr<vid_t> edge_src,
                          DevPtr<uint32_t> flags, uint32_t num_vertices,
                          uint64_t num_selected) {
  auto tid = c.Cast<uint64_t>(c.GlobalThreadId());
  c.If(c.Lt(tid, num_selected), [&](Ctx& c) {
    auto e = c.Cast<eid_t>(c.Load(edge_list, tid));
    // src = last u with row[u] <= e: binary search for upper bound.
    auto lo = c.Splat<uint32_t>(0);
    auto hi = c.Splat<uint32_t>(num_vertices);
    c.While(
        [&](Ctx& c) {
          return c.Lt(c.Add(lo, 1u), hi);
        },
        [&](Ctx& c) {
          auto mid = c.Add(lo, c.Shr(c.Sub(hi, lo), 1u));
          auto off = c.Load(row, mid);
          c.IfElse(
              c.Le(off, e), [&](Ctx& c) { c.Assign(&lo, mid); },
              [&](Ctx& c) { c.Assign(&hi, mid); });
        });
    auto dst = c.Load(col, e);
    c.Store(edge_src, tid, lo);
    c.Store(flags, lo, c.Splat<uint32_t>(1));
    c.Store(flags, dst, c.Splat<uint32_t>(1));
  });
  co_return;
}

/// Per-output-vertex degree of the selected edges.
KernelTask EsbeCountKernel(Ctx& c, DevPtr<vid_t> edge_src, DevPtr<uint32_t> map,
                           DevPtr<uint32_t> deg, uint64_t num_selected) {
  auto tid = c.Cast<uint64_t>(c.GlobalThreadId());
  c.If(c.Lt(tid, num_selected), [&](Ctx& c) {
    auto src = c.Load(edge_src, tid);
    auto new_src = c.Load(map, src);
    c.AtomicAdd(deg, new_src, c.Splat<uint32_t>(1));
  });
  co_return;
}

/// Scatters the selected edges into the output CSR (renumbered).
KernelTask EsbeScatterKernel(Ctx& c, DevPtr<vid_t> col, DevPtr<weight_t> w,
                             DevPtr<uint32_t> edge_list, DevPtr<vid_t> edge_src,
                             DevPtr<uint32_t> map, DevPtr<uint32_t> cursor,
                             DevPtr<vid_t> out_col, DevPtr<weight_t> out_w,
                             uint64_t num_selected) {
  const bool weighted = !w.is_null();
  auto tid = c.Cast<uint64_t>(c.GlobalThreadId());
  c.If(c.Lt(tid, num_selected), [&](Ctx& c) {
    auto e = c.Cast<eid_t>(c.Load(edge_list, tid));
    auto new_src = c.Load(map, c.Load(edge_src, tid));
    auto pos = c.AtomicAdd(cursor, new_src, c.Splat<uint32_t>(1));
    c.Store(out_col, pos, c.Load(map, c.Load(col, e)));
    if (weighted) c.Store(out_w, pos, c.Load(w, e));
  });
  co_return;
}

}  // namespace

std::vector<vid_t> SelectPseudoCluster(vid_t num_vertices, double fraction,
                                       uint64_t seed) {
  std::vector<vid_t> out;
  double threshold = std::clamp(fraction, 0.0, 1.0) * 4294967296.0;
  for (vid_t v = 0; v < num_vertices; ++v) {
    uint64_t h = (v + seed + 1) * 2654435761ull;
    h ^= h >> 16;
    if (static_cast<double>(h & 0xFFFFFFFFull) < threshold) out.push_back(v);
  }
  return out;
}

Result<EsbvResult> ExtractSubgraphByVertex(vgpu::Device* device,
                                           const graph::CsrGraph& g,
                                           const EsbvOptions& options,
                                           GraphResidency* residency) {
  const vid_t n = g.num_vertices();
  const eid_t m = g.num_edges();
  if (n == 0) return Status::InvalidArgument("ESBV on empty graph");
  if (!g.has_weights()) {
    return Status::InvalidArgument(
        "ESBV requires edge weights (paper §4.5); attach them first");
  }
  for (vid_t v : options.vertices) {
    if (v >= n) {
      return Status::InvalidArgument("selected vertex out of range");
    }
  }

  trace::Span algo_span(device->trace_track(), "algo:esbv", "algo");
  algo_span.ArgNum("num_vertices", static_cast<uint64_t>(n));
  algo_span.ArgNum("selected", static_cast<uint64_t>(options.vertices.size()));

  // --- Library-native storage: the CSC of g, weights included -----------
  ADGRAPH_ASSIGN_OR_RETURN(
      ResidentCsr staged,
      Stage(residency, device, g, GraphVariant::kCscWeighted));
  const DeviceCsr& csc = *staged;
  ADGRAPH_ASSIGN_OR_RETURN(
      auto selected, rt::DeviceBuffer<vid_t>::FromHost(device, options.vertices));

  // --- Working allocations (the ~44 B/edge set; see DESIGN.md) ----------
  ADGRAPH_ASSIGN_OR_RETURN(auto csr_row32,
                           rt::DeviceBuffer<uint32_t>::Create(device, n + 1));
  ADGRAPH_ASSIGN_OR_RETURN(auto csr_col,
                           rt::DeviceBuffer<vid_t>::Create(device, m));
  ADGRAPH_ASSIGN_OR_RETURN(auto csr_w,
                           rt::DeviceBuffer<weight_t>::Create(device, m));
  ADGRAPH_ASSIGN_OR_RETURN(auto cursor,
                           rt::DeviceBuffer<uint32_t>::Create(device, n));
  ADGRAPH_ASSIGN_OR_RETURN(auto flags,
                           rt::DeviceBuffer<uint32_t>::Create(device, n));
  ADGRAPH_ASSIGN_OR_RETURN(auto map,
                           rt::DeviceBuffer<uint32_t>::Create(device, n));
  // Conservative full-size intermediate COO (nvGRAPH-style; extraction size
  // is unknown until the emit pass completes).
  ADGRAPH_ASSIGN_OR_RETURN(auto coo_src,
                           rt::DeviceBuffer<vid_t>::Create(device, m));
  ADGRAPH_ASSIGN_OR_RETURN(auto coo_dst,
                           rt::DeviceBuffer<vid_t>::Create(device, m));
  ADGRAPH_ASSIGN_OR_RETURN(auto coo_w,
                           rt::DeviceBuffer<weight_t>::Create(device, m));
  ADGRAPH_ASSIGN_OR_RETURN(auto coo_count,
                           rt::DeviceBuffer<uint32_t>::Create(device, 1));
  // Conversion permutation, conservatively sized like the COO (the
  // cusparse coo2csr + gather path's working set).
  ADGRAPH_ASSIGN_OR_RETURN(auto coo_perm,
                           rt::DeviceBuffer<uint32_t>::Create(device, m));

  rt::DeviceTimer timer(device);

  // --- Phase 1: on-device CSC -> CSR conversion --------------------------
  ADGRAPH_RETURN_NOT_OK(
      primitives::Fill<uint32_t>(device, cursor.ptr(), n, 0));
  ADGRAPH_RETURN_NOT_OK(
      device
          ->Launch("esbv_csc_count", rt::CoverThreads(m),
                   [&](Ctx& c) {
                     return CscCountKernel(c, csc.col_indices.ptr(),
                                           cursor.ptr(), m);
                   })
          .status());
  ADGRAPH_ASSIGN_OR_RETURN(
      uint64_t total_edges,
      primitives::ExclusiveScanU32(device, cursor.ptr(), csr_row32.ptr(), n));
  ADGRAPH_RETURN_NOT_OK(primitives::SetElement<uint32_t>(
      device, csr_row32.ptr(), n, static_cast<uint32_t>(total_edges)));
  ADGRAPH_RETURN_NOT_OK(device->CopyDeviceToDevice(
      cursor.ptr(), csr_row32.ptr(), n));
  ADGRAPH_RETURN_NOT_OK(
      device
          ->Launch("esbv_csc_scatter", rt::CoverThreads(n),
                   [&](Ctx& c) {
                     return CscScatterKernel(
                         c, csc.row_offsets.ptr(), csc.col_indices.ptr(),
                         csc.weights.ptr(), cursor.ptr(), csr_col.ptr(),
                         csr_w.ptr(), n);
                   })
          .status());

  // --- Phase 2: mark + renumber ------------------------------------------
  ADGRAPH_RETURN_NOT_OK(primitives::Fill<uint32_t>(device, flags.ptr(), n, 0));
  if (!options.vertices.empty()) {
    ADGRAPH_RETURN_NOT_OK(
        device
            ->Launch("esbv_mark", rt::CoverThreads(options.vertices.size()),
                     [&](Ctx& c) {
                       return MarkKernel(c, selected.ptr(), flags.ptr(),
                                         options.vertices.size());
                     })
            .status());
  }
  ADGRAPH_ASSIGN_OR_RETURN(
      uint64_t num_selected,
      primitives::ExclusiveScanU32(device, flags.ptr(), map.ptr(), n));

  // --- Phase 3: emit induced edges as renumbered COO ----------------------
  ADGRAPH_RETURN_NOT_OK(
      primitives::SetElement<uint32_t>(device, coo_count.ptr(), 0, 0));
  ADGRAPH_RETURN_NOT_OK(
      device
          ->Launch("esbv_emit", rt::CoverThreads(n),
                   [&](Ctx& c) {
                     return EmitKernel(c, csr_row32.ptr(), csr_col.ptr(),
                                       csr_w.ptr(), flags.ptr(), map.ptr(),
                                       coo_src.ptr(), coo_dst.ptr(),
                                       coo_w.ptr(), coo_count.ptr(), n);
                   })
          .status());
  ADGRAPH_ASSIGN_OR_RETURN(
      uint32_t out_edges,
      primitives::GetElement<uint32_t>(device, coo_count.ptr(), 0));

  // --- Phase 4: on-device COO -> CSR rebuild ------------------------------
  const uint64_t k = num_selected;
  ADGRAPH_ASSIGN_OR_RETURN(auto out_row32,
                           rt::DeviceBuffer<uint32_t>::Create(device, k + 1));
  ADGRAPH_ASSIGN_OR_RETURN(auto out_col,
                           rt::DeviceBuffer<vid_t>::Create(device, out_edges));
  ADGRAPH_ASSIGN_OR_RETURN(
      auto out_w, rt::DeviceBuffer<weight_t>::Create(device, out_edges));
  ADGRAPH_ASSIGN_OR_RETURN(auto out_cursor,
                           rt::DeviceBuffer<uint32_t>::Create(device, k));
  ADGRAPH_RETURN_NOT_OK(
      primitives::Fill<uint32_t>(device, out_cursor.ptr(), k, 0));
  if (out_edges > 0) {
    ADGRAPH_RETURN_NOT_OK(
        device
            ->Launch("esbv_coo_count", rt::CoverThreads(out_edges),
                     [&](Ctx& c) {
                       return CooCountKernel(c, coo_src.ptr(),
                                             out_cursor.ptr(), out_edges);
                     })
            .status());
  }
  ADGRAPH_ASSIGN_OR_RETURN(
      uint64_t check_total,
      primitives::ExclusiveScanU32(device, out_cursor.ptr(), out_row32.ptr(),
                                   k));
  if (check_total != out_edges) {
    return Status::Internal("ESBV edge-count mismatch in COO->CSR rebuild");
  }
  ADGRAPH_RETURN_NOT_OK(primitives::SetElement<uint32_t>(
      device, out_row32.ptr(), k, out_edges));
  ADGRAPH_RETURN_NOT_OK(
      device->CopyDeviceToDevice(out_cursor.ptr(), out_row32.ptr(), k));
  if (out_edges > 0) {
    ADGRAPH_RETURN_NOT_OK(
        device
            ->Launch("esbv_coo_perm", rt::CoverThreads(out_edges),
                     [&](Ctx& c) {
                       return CooPermKernel(c, coo_src.ptr(),
                                            out_cursor.ptr(), coo_perm.ptr(),
                                            out_edges);
                     })
            .status());
    ADGRAPH_RETURN_NOT_OK(
        device
            ->Launch("esbv_coo_gather", rt::CoverThreads(out_edges),
                     [&](Ctx& c) {
                       return CooGatherKernel(c, coo_perm.ptr(),
                                              coo_dst.ptr(), coo_w.ptr(),
                                              out_col.ptr(), out_w.ptr(),
                                              out_edges);
                     })
            .status());
  }

  EsbvResult result;
  result.time_ms = timer.ElapsedMs();
  result.subgraph_vertices = k;
  result.subgraph_edges = out_edges;

  // --- Download and package the subgraph ---------------------------------
  ADGRAPH_ASSIGN_OR_RETURN(std::vector<uint32_t> h_row32, out_row32.ToHost());
  ADGRAPH_ASSIGN_OR_RETURN(std::vector<vid_t> h_col, out_col.ToHost());
  ADGRAPH_ASSIGN_OR_RETURN(std::vector<weight_t> h_w, out_w.ToHost());
  std::vector<eid_t> h_row(h_row32.begin(), h_row32.end());
  ADGRAPH_ASSIGN_OR_RETURN(
      result.subgraph,
      graph::CsrGraph::FromArrays(static_cast<vid_t>(k), std::move(h_row),
                                  std::move(h_col), std::move(h_w)));
  return result;
}


Result<EsbeResult> ExtractSubgraphByEdge(vgpu::Device* device,
                                         const graph::CsrGraph& g,
                                         const EsbeOptions& options) {
  const vid_t n = g.num_vertices();
  const eid_t m = g.num_edges();
  if (n == 0) return Status::InvalidArgument("ESBE on empty graph");
  if (m > 0xFFFFFFFFull) {
    return Status::InvalidArgument("ESBE device path limited to 2^32 edges");
  }
  for (eid_t e : options.edges) {
    if (e >= m) return Status::InvalidArgument("selected edge out of range");
  }
  const uint64_t num_selected = options.edges.size();
  std::vector<uint32_t> edges32(options.edges.begin(), options.edges.end());

  ADGRAPH_ASSIGN_OR_RETURN(DeviceCsr input, DeviceCsr::Upload(device, g));
  ADGRAPH_ASSIGN_OR_RETURN(
      auto edge_list, rt::DeviceBuffer<uint32_t>::FromHost(device, edges32));
  ADGRAPH_ASSIGN_OR_RETURN(
      auto edge_src,
      rt::DeviceBuffer<vid_t>::Create(device, std::max<uint64_t>(num_selected, 1)));
  ADGRAPH_ASSIGN_OR_RETURN(auto flags,
                           rt::DeviceBuffer<uint32_t>::Create(device, n));
  ADGRAPH_ASSIGN_OR_RETURN(auto map,
                           rt::DeviceBuffer<uint32_t>::Create(device, n));

  rt::DeviceTimer timer(device);
  ADGRAPH_RETURN_NOT_OK(primitives::Fill<uint32_t>(device, flags.ptr(), n, 0));
  if (num_selected > 0) {
    ADGRAPH_RETURN_NOT_OK(
        device
            ->Launch("esbe_mark", rt::CoverThreads(num_selected),
                     [&](Ctx& c) {
                       return EsbeMarkKernel(c, input.row_offsets.ptr(),
                                             input.col_indices.ptr(),
                                             edge_list.ptr(), edge_src.ptr(),
                                             flags.ptr(), n, num_selected);
                     })
            .status());
  }
  ADGRAPH_ASSIGN_OR_RETURN(
      uint64_t k,
      primitives::ExclusiveScanU32(device, flags.ptr(), map.ptr(), n));

  ADGRAPH_ASSIGN_OR_RETURN(auto out_row32,
                           rt::DeviceBuffer<uint32_t>::Create(device, k + 1));
  ADGRAPH_ASSIGN_OR_RETURN(
      auto out_col,
      rt::DeviceBuffer<vid_t>::Create(device, std::max<uint64_t>(num_selected, 1)));
  rt::DeviceBuffer<weight_t> out_w;
  if (g.has_weights()) {
    ADGRAPH_ASSIGN_OR_RETURN(
        out_w, rt::DeviceBuffer<weight_t>::Create(
                   device, std::max<uint64_t>(num_selected, 1)));
  }
  ADGRAPH_ASSIGN_OR_RETURN(
      auto out_cursor,
      rt::DeviceBuffer<uint32_t>::Create(device, std::max<uint64_t>(k, 1)));
  ADGRAPH_RETURN_NOT_OK(
      primitives::Fill<uint32_t>(device, out_cursor.ptr(), k, 0));
  if (num_selected > 0) {
    ADGRAPH_RETURN_NOT_OK(
        device
            ->Launch("esbe_count", rt::CoverThreads(num_selected),
                     [&](Ctx& c) {
                       return EsbeCountKernel(c, edge_src.ptr(), map.ptr(),
                                              out_cursor.ptr(), num_selected);
                     })
            .status());
  }
  ADGRAPH_ASSIGN_OR_RETURN(
      uint64_t total,
      primitives::ExclusiveScanU32(device, out_cursor.ptr(), out_row32.ptr(),
                                   k));
  if (total != num_selected) {
    return Status::Internal("ESBE edge-count mismatch");
  }
  ADGRAPH_RETURN_NOT_OK(primitives::SetElement<uint32_t>(
      device, out_row32.ptr(), k, static_cast<uint32_t>(num_selected)));
  ADGRAPH_RETURN_NOT_OK(
      device->CopyDeviceToDevice(out_cursor.ptr(), out_row32.ptr(), k));
  if (num_selected > 0) {
    ADGRAPH_RETURN_NOT_OK(
        device
            ->Launch("esbe_scatter", rt::CoverThreads(num_selected),
                     [&](Ctx& c) {
                       return EsbeScatterKernel(
                           c, input.col_indices.ptr(),
                           g.has_weights() ? input.weights.ptr()
                                           : DevPtr<weight_t>{},
                           edge_list.ptr(), edge_src.ptr(), map.ptr(),
                           out_cursor.ptr(), out_col.ptr(),
                           g.has_weights() ? out_w.ptr()
                                           : DevPtr<weight_t>{},
                           num_selected);
                     })
            .status());
  }

  EsbeResult result;
  result.time_ms = timer.ElapsedMs();
  result.subgraph_vertices = k;
  result.subgraph_edges = num_selected;

  ADGRAPH_ASSIGN_OR_RETURN(std::vector<uint32_t> h_row32, out_row32.ToHost());
  std::vector<eid_t> h_row(h_row32.begin(), h_row32.end());
  std::vector<vid_t> h_col(num_selected);
  std::vector<weight_t> h_w;
  if (num_selected > 0) {
    ADGRAPH_RETURN_NOT_OK(out_col.Download(h_col.data(), num_selected));
    if (g.has_weights()) {
      h_w.resize(num_selected);
      ADGRAPH_RETURN_NOT_OK(out_w.Download(h_w.data(), num_selected));
    }
  }
  ADGRAPH_ASSIGN_OR_RETURN(
      result.subgraph,
      graph::CsrGraph::FromArrays(static_cast<vid_t>(k), std::move(h_row),
                                  std::move(h_col), std::move(h_w)));
  return result;
}

}  // namespace adgraph::core
