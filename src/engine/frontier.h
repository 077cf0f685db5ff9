#ifndef ADGRAPH_ENGINE_FRONTIER_H_
#define ADGRAPH_ENGINE_FRONTIER_H_

#include <cstdint>
#include <span>
#include <utility>

#include "graph/types.h"
#include "runtime/runtime.h"
#include "util/status.h"
#include "vgpu/device.h"

namespace adgraph::engine {

/// \brief The engine's unit of traversal state: the set of active vertices
/// of one round (DESIGN.md §2.11).
///
/// A frontier keeps two device representations of the same set, both
/// maintained by every producer (the advance operators claim an output
/// flag before enqueueing):
///
///  * **sparse** — a compact queue of vertex ids (`queue`, `count` valid).
///    Work launched over it is proportional to the frontier, the win when
///    the set is small.
///  * **dense** — a per-vertex 0/1 flag array (`flags`).  Constant-size
///    kernels and sequential memory traffic — the win when the set is a
///    large fraction of all vertices.
///
/// `rep` records which one the next round launches over; the drivers pick
/// it from the direction engine's density heuristic, so switching is a
/// relabel, not a conversion kernel.
class Frontier {
 public:
  enum class Rep { kSparse, kDense };

  Frontier() = default;

  /// Allocates queue (n entries), flags (n entries), and the count cell.
  static Result<Frontier> Create(vgpu::Device* device, graph::vid_t n);

  /// Resets to the singleton set {source}: queue=[source], flag set,
  /// count=1, representation sparse.
  Status InitSource(graph::vid_t source);

  /// Resets to the full vertex set 0..n-1: all flags set, queue=iota,
  /// count=n, representation dense.
  Status InitAllVertices();

  /// Resets to an arbitrary host-side seed set (duplicate-free, ids < n):
  /// queue=seeds, flags scattered, count=|seeds|, representation sparse.
  /// The incremental-recompute entry point (DESIGN.md §2.12) uses this to
  /// re-expand only the vertices a delta touched.
  Status InitFromHost(std::span<const graph::vid_t> seeds);

  /// Resets to the empty set (flags cleared, count 0, sparse).
  Status Clear();

  /// Re-reads the device count cell into the host mirror.
  Status RefreshCount();

  Rep rep() const { return rep_; }
  /// Host mirror of the set size (valid after Init*/RefreshCount).
  uint32_t size() const { return size_; }
  graph::vid_t num_vertices() const { return n_; }
  /// size / n in [0, 1]; the direction/representation heuristic input.
  double density() const { return n_ == 0 ? 0.0 : double(size_) / n_; }
  bool empty() const { return size_ == 0; }

  vgpu::DevPtr<graph::vid_t> queue() { return queue_.ptr(); }
  vgpu::DevPtr<uint32_t> flags() { return flags_.ptr(); }
  vgpu::DevPtr<uint32_t> count() { return count_.ptr(); }

  void set_rep(Rep rep) { rep_ = rep; }

  /// Swaps device buffers and host state (double-buffering).
  friend void swap(Frontier& a, Frontier& b) noexcept {
    using std::swap;
    swap(a.device_, b.device_);
    swap(a.queue_, b.queue_);
    swap(a.flags_, b.flags_);
    swap(a.count_, b.count_);
    swap(a.n_, b.n_);
    swap(a.size_, b.size_);
    swap(a.rep_, b.rep_);
  }

 private:
  vgpu::Device* device_ = nullptr;
  rt::DeviceBuffer<graph::vid_t> queue_;
  rt::DeviceBuffer<uint32_t> flags_;
  rt::DeviceBuffer<uint32_t> count_;
  graph::vid_t n_ = 0;
  uint32_t size_ = 0;
  Rep rep_ = Rep::kSparse;
};

}  // namespace adgraph::engine

#endif  // ADGRAPH_ENGINE_FRONTIER_H_
