#include "ooc/streamed.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/bfs.h"
#include "core/device_graph.h"
#include "core/pagerank.h"
#include "core/pagerank_kernels.h"
#include "core/spmv.h"
#include "runtime/runtime.h"
#include "runtime/stream.h"
#include "trace/trace.h"
#include "vgpu/ctx.h"
#include "vgpu/kernel.h"

namespace adgraph::ooc {
namespace {

using graph::eid_t;
using graph::vid_t;
using graph::weight_t;
using vgpu::Ctx;
using vgpu::DevPtr;
using vgpu::KernelTask;
using vgpu::Lanes;

/// \brief Analytic copy/compute overlap model of the double-buffered
/// pipeline.
///
/// The simulator executes eagerly on one device clock, so "overlap" cannot
/// be observed; it is reconstructed from per-operation durations with the
/// classic two-slot software-pipeline recurrence: a staging copy starts once
/// the copy engine is free AND its target slot's previous consumer finished;
/// a shard's compute starts once the compute queue is free AND its slot's
/// copy landed.  Full-width steps (dangling sum, damping, frontier counter
/// reads) serialize on the compute queue only — the copy engine may keep
/// prefetching past them, which is exactly what cudaMemcpyAsync on a second
/// stream buys on real hardware.
struct OverlapTimeline {
  double copy_clock = 0;
  double compute_clock = 0;
  double slot_ready[2] = {0, 0};
  double slot_free[2] = {0, 0};
  double copy_total = 0;
  double compute_total = 0;
  double serial_total = 0;

  void Staged(int slot, double copy_ms) {
    const double start = std::max(copy_clock, slot_free[slot]);
    copy_clock = start + copy_ms;
    slot_ready[slot] = copy_clock;
    copy_total += copy_ms;
  }
  void Computed(int slot, double compute_ms) {
    const double start = std::max(compute_clock, slot_ready[slot]);
    compute_clock = start + compute_ms;
    slot_free[slot] = compute_clock;
    compute_total += compute_ms;
  }
  void Serial(double ms) {
    compute_clock += ms;
    serial_total += ms;
  }

  double serialized_ms() const {
    return copy_total + compute_total + serial_total;
  }
  double overlapped_ms() const { return std::max(copy_clock, compute_clock); }
};

/// Double-buffered shard stager: two device slots sized for the largest
/// shard; shard k+1 prefetches on the copy stream while shard k's kernels
/// run, with the rebased row slice recomputed on the host per staging.
class ShardPipeline {
 public:
  ShardPipeline(vgpu::Device* device, const OocCsr* g, const OocOptions* opts,
                bool stage_weights)
      : device_(device),
        g_(g),
        opts_(opts),
        stage_weights_(stage_weights),
        copy_stream_(device, "ooc_copy"),
        compute_stream_(device, "ooc_compute") {}

  Status AllocSlots() {
    const uint64_t rows_n = g_->max_shard_rows() + 1;
    const uint64_t edges_n = std::max<uint64_t>(1, g_->max_shard_edges());
    for (int s = 0; s < 2; ++s) {
      ADGRAPH_ASSIGN_OR_RETURN(
          rows_[s], rt::DeviceBuffer<eid_t>::Create(device_, rows_n));
      ADGRAPH_ASSIGN_OR_RETURN(
          cols_[s], rt::DeviceBuffer<vid_t>::Create(device_, edges_n));
      if (stage_weights_) {
        ADGRAPH_ASSIGN_OR_RETURN(
            weights_[s], rt::DeviceBuffer<weight_t>::Create(device_, edges_n));
      }
    }
    return Status::OK();
  }

  /// Stages shard `s` into the next slot in round-robin order.
  Status Stage(uint32_t s) {
    const int slot = static_cast<int>(stage_count_ % 2);
    if (opts_->copy_fault) {
      ADGRAPH_RETURN_NOT_OK(opts_->copy_fault(stage_count_, s));
    }
    const ShardView v = g_->shard(s);
    const std::span<const eid_t> ro = g_->row_offsets();
    const double before = copy_stream_.transfer_ms();
    scratch_.resize(v.num_rows() + 1);
    for (uint64_t i = 0; i <= v.num_rows(); ++i) {
      scratch_[i] = ro[v.lo + i] - v.edge_begin;
    }
    ADGRAPH_RETURN_NOT_OK(copy_stream_.CopyToDeviceAsync(
        rows_[slot].ptr(), scratch_.data(), v.num_rows() + 1));
    if (v.num_edges() > 0) {
      ADGRAPH_RETURN_NOT_OK(copy_stream_.CopyToDeviceAsync(
          cols_[slot].ptr(), g_->col_indices().data() + v.edge_begin,
          v.num_edges()));
      if (stage_weights_) {
        ADGRAPH_RETURN_NOT_OK(copy_stream_.CopyToDeviceAsync(
            weights_[slot].ptr(), g_->weights().data() + v.edge_begin,
            v.num_edges()));
      }
    }
    timeline_.Staged(slot, copy_stream_.transfer_ms() - before);
    stage_count_ += 1;
    return Status::OK();
  }

  /// One full pass over the shards: prefetch shard s+1, then run
  /// `compute(slot_of_s, shard_view_of_s)`.
  template <typename Fn>
  Status Sweep(Fn&& compute) {
    const uint32_t num_shards = g_->num_shards();
    ADGRAPH_RETURN_NOT_OK(Stage(0));
    for (uint32_t s = 0; s < num_shards; ++s) {
      if (s + 1 < num_shards) ADGRAPH_RETURN_NOT_OK(Stage(s + 1));
      const int slot = static_cast<int>(compute_count_ % 2);
      const double before = device_->elapsed_ms();
      ADGRAPH_RETURN_NOT_OK(compute(slot, g_->shard(s)));
      timeline_.Computed(slot, device_->elapsed_ms() - before);
      compute_count_ += 1;
    }
    return Status::OK();
  }

  /// A full-width (non-sharded) step: times it onto the compute queue.
  template <typename Fn>
  Status Serial(Fn&& fn) {
    const double before = device_->elapsed_ms();
    ADGRAPH_RETURN_NOT_OK(fn());
    timeline_.Serial(device_->elapsed_ms() - before);
    return Status::OK();
  }

  rt::Stream* compute_stream() { return &compute_stream_; }
  DevPtr<eid_t> rows(int slot) { return rows_[slot].ptr(); }
  DevPtr<vid_t> cols(int slot) { return cols_[slot].ptr(); }
  DevPtr<weight_t> weights(int slot) {
    return stage_weights_ ? weights_[slot].ptr() : DevPtr<weight_t>{};
  }

  /// The run's staging statistics, into `stats` (when set) and, so an
  /// inspected streamed job shows its transfer burden, onto `algo_span`.
  void Report(trace::Span* algo_span, core::StagingStats* stats) const {
    algo_span->ArgNum("shards_staged", stage_count_);
    algo_span->ArgNum("staged_bytes", copy_stream_.staged_bytes());
    if (stats == nullptr) return;
    stats->num_shards = g_->num_shards();
    stats->shards_staged = stage_count_;
    stats->staged_bytes = copy_stream_.staged_bytes();
    stats->serialized_ms = timeline_.serialized_ms();
    stats->overlapped_ms = timeline_.overlapped_ms();
  }

 private:
  vgpu::Device* device_;
  const OocCsr* g_;
  const OocOptions* opts_;
  bool stage_weights_;
  rt::Stream copy_stream_;
  rt::Stream compute_stream_;
  rt::DeviceBuffer<eid_t> rows_[2];
  rt::DeviceBuffer<vid_t> cols_[2];
  rt::DeviceBuffer<weight_t> weights_[2];
  std::vector<eid_t> scratch_;
  OverlapTimeline timeline_;
  uint64_t stage_count_ = 0;
  uint64_t compute_count_ = 0;
};

/// Top-down expansion of one vertex-range shard: thread t owns global row
/// lo+t.  Levels are canonical (a vertex's level is its BFS distance no
/// matter which expansion order discovered it), so sharding the expansion
/// cannot change the output — the AtomicCas claim is the same one the
/// in-memory BFS push advance performs.
KernelTask BfsShardKernel(Ctx& c, DevPtr<eid_t> row, DevPtr<vid_t> col,
                          DevPtr<uint32_t> levels, DevPtr<uint32_t> produced,
                          uint32_t num_rows, vid_t lo, uint32_t level) {
  auto tid = c.GlobalThreadId();
  c.If(c.Lt(tid, num_rows), [&](Ctx& c) {
    auto u = c.Add(tid, lo);
    auto lu = c.Load(levels, u);
    c.If(c.Eq(lu, level - 1), [&](Ctx& c) {
      auto begin = c.Load(row, tid);
      auto end = c.Load(row, c.Add(tid, 1u));
      c.For(begin, end, [&](Ctx& c, const Lanes<eid_t>& e) {
        auto v = c.Load(col, e);
        auto old = c.AtomicCas(levels, v, c.Splat(core::kUnreachedLevel),
                               c.Splat(level));
        c.If(c.Eq(old, core::kUnreachedLevel), [&](Ctx& c) {
          c.AtomicAdd(produced, c.Splat<uint32_t>(0), c.Splat<uint32_t>(1));
        });
      });
    });
  });
  co_return;
}

}  // namespace

Result<core::BfsResult> RunStreamedBfs(vgpu::Device* device,
                                       const OocCsr& base,
                                       const core::BfsOptions& options,
                                       const OocOptions& ooc,
                                       core::StagingStats* stats) {
  const vid_t n = base.num_vertices();
  if (n == 0) return Status::InvalidArgument("BFS on empty graph");
  if (options.source >= n) {
    return Status::InvalidArgument("BFS source " +
                                   std::to_string(options.source) +
                                   " out of range");
  }

  trace::Span algo_span(device->trace_track(), "algo:bfs_streamed", "algo");
  algo_span.ArgNum("num_vertices", static_cast<uint64_t>(n));
  algo_span.ArgNum("num_shards", static_cast<uint64_t>(base.num_shards()));

  ShardPipeline pipe(device, &base, &ooc, /*stage_weights=*/false);
  ADGRAPH_RETURN_NOT_OK(pipe.AllocSlots());
  ADGRAPH_ASSIGN_OR_RETURN(auto levels,
                           rt::DeviceBuffer<uint32_t>::Create(device, n));
  ADGRAPH_ASSIGN_OR_RETURN(auto produced_buf,
                           rt::DeviceBuffer<uint32_t>::Create(device, 1));

  rt::DeviceTimer timer(device);
  ADGRAPH_RETURN_NOT_OK(pipe.Serial([&] {
    ADGRAPH_RETURN_NOT_OK(core::primitives::Fill<uint32_t>(
        device, levels.ptr(), n, core::kUnreachedLevel));
    return core::primitives::SetElement<uint32_t>(device, levels.ptr(),
                                                  options.source, 0);
  }));

  core::BfsResult result;
  uint32_t level = 1;
  while (true) {
    trace::Span sweep(device->trace_track(), "bfs_streamed.level", "phase");
    sweep.ArgNum("level", static_cast<uint64_t>(level));
    ADGRAPH_RETURN_NOT_OK(pipe.Serial([&] {
      return core::primitives::SetElement<uint32_t>(device,
                                                    produced_buf.ptr(), 0, 0);
    }));
    ADGRAPH_RETURN_NOT_OK(pipe.Sweep([&](int slot, const ShardView& v) {
      if (v.num_edges() == 0) return Status::OK();
      return pipe.compute_stream()
          ->Launch("bfs_top_down_shard", rt::CoverThreads(v.num_rows()),
                   [&](Ctx& c) {
                     return BfsShardKernel(c, pipe.rows(slot), pipe.cols(slot),
                                           levels.ptr(), produced_buf.ptr(),
                                           v.num_rows(), v.lo, level);
                   })
          .status();
    }));
    uint32_t produced = 0;
    ADGRAPH_RETURN_NOT_OK(pipe.Serial([&] {
      ADGRAPH_ASSIGN_OR_RETURN(produced, core::primitives::GetElement<uint32_t>(
                                             device, produced_buf.ptr(), 0));
      return Status::OK();
    }));
    result.top_down_iterations += 1;
    sweep.ArgNum("produced", static_cast<uint64_t>(produced));
    if (produced == 0) break;
    result.depth = level;
    level += 1;
  }

  result.time_ms = timer.ElapsedMs();
  ADGRAPH_ASSIGN_OR_RETURN(result.levels, levels.ToHost());
  for (uint32_t lvl : result.levels) {
    if (lvl != core::kUnreachedLevel) result.vertices_visited += 1;
  }
  pipe.Report(&algo_span, stats);
  return result;
}

Result<core::PageRankResult> RunStreamedPageRank(
    vgpu::Device* device, const OocCsr& pull,
    std::span<const eid_t> base_row_offsets,
    const core::PageRankOptions& options, const OocOptions& ooc,
    core::StagingStats* stats) {
  const vid_t n = pull.num_vertices();
  if (n == 0) return Status::InvalidArgument("PageRank on empty graph");
  if (options.alpha <= 0 || options.alpha >= 1) {
    return Status::InvalidArgument("damping factor must be in (0,1)");
  }
  if (base_row_offsets.size() != static_cast<size_t>(n) + 1) {
    return Status::InvalidArgument(
        "base row offsets have " + std::to_string(base_row_offsets.size()) +
        " entries; the pull transpose has " + std::to_string(n) + " vertices");
  }

  trace::Span algo_span(device->trace_track(), "algo:pagerank_streamed",
                        "algo");
  algo_span.ArgNum("num_vertices", static_cast<uint64_t>(n));
  algo_span.ArgNum("num_shards", static_cast<uint64_t>(pull.num_shards()));

  const bool weighted = pull.has_weights();
  ShardPipeline pipe(device, &pull, &ooc, weighted);
  ADGRAPH_RETURN_NOT_OK(pipe.AllocSlots());
  ADGRAPH_ASSIGN_OR_RETURN(auto d_row,
                           rt::DeviceBuffer<eid_t>::Create(device, n + 1));
  ADGRAPH_RETURN_NOT_OK(d_row.Upload(base_row_offsets.data(), n + 1));
  ADGRAPH_ASSIGN_OR_RETURN(auto ranks,
                           rt::DeviceBuffer<double>::Create(device, n));
  ADGRAPH_ASSIGN_OR_RETURN(auto next,
                           rt::DeviceBuffer<double>::Create(device, n));
  ADGRAPH_ASSIGN_OR_RETURN(auto scalars,
                           rt::DeviceBuffer<double>::Create(device, 2));

  rt::DeviceTimer timer(device);
  ADGRAPH_RETURN_NOT_OK(pipe.Serial([&] {
    return core::primitives::Fill<double>(device, ranks.ptr(), n, 1.0 / n);
  }));

  core::PageRankResult result;
  for (uint32_t iter = 0; iter < options.max_iterations; ++iter) {
    trace::Span sweep(device->trace_track(), "pagerank_streamed.iteration",
                      "phase");
    sweep.ArgNum("iteration", static_cast<uint64_t>(iter + 1));

    double dangling = 0;
    ADGRAPH_RETURN_NOT_OK(pipe.Serial([&] {
      ADGRAPH_RETURN_NOT_OK(
          core::primitives::SetElement<double>(device, scalars.ptr(), 0, 0.0));
      ADGRAPH_RETURN_NOT_OK(
          device
              ->Launch("pagerank_dangling", rt::CoverThreads(n),
                       [&](Ctx& c) {
                         return core::detail::DanglingSumKernel(
                             c, d_row.ptr(), ranks.ptr(), scalars.ptr(), n);
                       })
              .status());
      ADGRAPH_ASSIGN_OR_RETURN(dangling, core::primitives::GetElement<double>(
                                             device, scalars.ptr(), 0));
      return Status::OK();
    }));

    // The pull SpMV, streamed: each destination-range shard runs the exact
    // in-memory kernel body over its rebased row slice, writing its slice of
    // `next`.  Rows never split across shards, so per-row accumulation order
    // — and hence every double — matches the single whole-matrix launch.
    ADGRAPH_RETURN_NOT_OK(pipe.Sweep([&](int slot, const ShardView& v) {
      return pipe.compute_stream()
          ->Launch("spmv_shard", rt::CoverThreads(v.num_rows()),
                   [&](Ctx& c) {
                     return core::detail::SpmvRowSliceKernel(
                         c, pipe.rows(slot), pipe.cols(slot),
                         weighted ? pipe.weights(slot) : DevPtr<double>{},
                         ranks.ptr(), next.ptr() + v.lo, v.num_rows(),
                         core::Semiring::kPlusTimes);
                   })
          .status();
    }));

    const double base = (1.0 - options.alpha) / n +
                        options.alpha * dangling / static_cast<double>(n);
    ADGRAPH_RETURN_NOT_OK(pipe.Serial([&] {
      ADGRAPH_RETURN_NOT_OK(
          core::primitives::SetElement<double>(device, scalars.ptr(), 1, 0.0));
      ADGRAPH_RETURN_NOT_OK(
          device
              ->Launch("pagerank_damping", rt::CoverThreads(n),
                       [&](Ctx& c) {
                         return core::detail::ApplyDampingKernel(
                             c, next.ptr(), ranks.ptr(), scalars.ptr() + 1,
                             base, options.alpha, n);
                       })
              .status());
      ADGRAPH_ASSIGN_OR_RETURN(result.l1_delta,
                               core::primitives::GetElement<double>(
                                   device, scalars.ptr(), 1));
      return Status::OK();
    }));

    std::swap(ranks, next);
    result.iterations = iter + 1;
    if (options.tolerance > 0 && result.l1_delta < options.tolerance) break;
  }

  result.time_ms = timer.ElapsedMs();
  ADGRAPH_ASSIGN_OR_RETURN(result.ranks, ranks.ToHost());
  pipe.Report(&algo_span, stats);
  return result;
}

}  // namespace adgraph::ooc
