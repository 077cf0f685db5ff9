#ifndef ADGRAPH_ENGINE_ENGINE_H_
#define ADGRAPH_ENGINE_ENGINE_H_

#include <cstdint>
#include <string>

#include "engine/frontier.h"
#include "engine/operators.h"
#include "util/status.h"
#include "vgpu/device.h"

namespace adgraph::engine {

/// Traversal direction of one engine round.
enum class Direction {
  kPush,  ///< frontier expands over its out-edges (top-down)
  kPull,  ///< candidate vertices scan for an active neighbor (bottom-up)
};

/// Caller policy for the per-round direction choice.
enum class DirectionPolicy {
  kAuto,      ///< density heuristic picks per round (GraphBLAST-style)
  kPushOnly,  ///< never pull (the classic push-only baseline)
  kPullOnly,  ///< always pull; fails when the algorithm cannot pull
};

/// Counters of every decision the engine made during one algorithm run —
/// the observable record of the direction optimization.
struct DirectionStats {
  uint32_t push_rounds = 0;
  uint32_t pull_rounds = 0;
  uint32_t direction_flips = 0;    ///< rounds whose mode differs from prior
  uint32_t sparse_to_dense = 0;    ///< frontier representation conversions
  uint32_t dense_to_sparse = 0;
};

/// \brief Per-run direction chooser: applies the density heuristic each
/// round, traces the decision, and keeps the stats.  Its thresholds are
/// constants (engine.cc), the values the golden BFS digests were frozen
/// with; the switch back to push re-evaluates the same condition on the
/// shrunken frontier.
class DirectionEngine {
 public:
  /// `can_pull`: whether the algorithm has a pull formulation available on
  /// this input (e.g. BFS bottom-up needs a symmetric adjacency).
  DirectionEngine(vgpu::Device* device, DirectionPolicy policy, bool can_pull)
      : device_(device), policy_(policy), can_pull_(can_pull) {}

  /// Picks the round's direction from the frontier density.  Emits an
  /// "engine.direction" trace span carrying round, frontier size, and the
  /// decision.  kFailedPrecondition when policy is kPullOnly but the
  /// algorithm cannot pull here.
  Result<Direction> Choose(uint32_t frontier_size, uint32_t num_vertices,
                           uint32_t round);

  /// Records a frontier representation conversion.
  void RecordConversion(Frontier::Rep from, Frontier::Rep to);

  /// Labels `next`, which a push advance from `cur` filled with `produced`
  /// vertices, for the next round: dense past the pull threshold, sparse
  /// otherwise.  The advance maintains queue and flags together, so the
  /// switch is a relabel, recorded as a conversion.
  void ChooseRep(const Frontier& cur, Frontier* next, uint32_t produced,
                 uint32_t num_vertices);

  const DirectionStats& stats() const { return stats_; }

 private:
  vgpu::Device* device_;
  DirectionPolicy policy_;
  bool can_pull_;
  DirectionStats stats_;
  bool has_prior_ = false;
  Direction prior_ = Direction::kPush;
};

/// Cross-algorithm engine knobs, threaded from benches and tests.
struct EngineOptions {
  DirectionPolicy direction = DirectionPolicy::kAuto;
  LoadBalance load_balance = LoadBalance::kAuto;
};

/// Per-run observability report filled by the engine algorithm drivers.
struct EngineReport {
  DirectionStats direction;
};

/// Dense-round eligibility: the vertex's frontier flag is set.
struct FlagSetPred {
  vgpu::DevPtr<uint32_t> flags;
  vgpu::LaneMask operator()(vgpu::Ctx& c, const vgpu::Lanes<graph::vid_t>& v) {
    return c.Eq(c.Load(flags, v), 1u);
  }
};

/// \brief One push-advance round from `cur` (`frontier_size` vertices) into
/// `next`, launched the same way by every push driver: over every vertex
/// whose flag is set (kernel `<name>_dense`) when `cur` is dense, else one
/// warp (`<name>_warp`) or one thread (`<name>`) per queued vertex, as `lb`
/// says.  `op` is the advance functor (LoadSource / Relax / OnEnqueue).
template <typename EdgeOp>
Status LaunchPushAdvance(vgpu::Device* device, const std::string& name,
                         const CsrView& view, LoadBalance lb, Frontier& cur,
                         uint32_t frontier_size, Frontier& next, EdgeOp& op) {
  constexpr uint32_t kBlock = rt::kDefaultBlockSize;
  if (cur.rep() == Frontier::Rep::kDense) {
    FlagSetPred pred{cur.flags()};
    return device
        ->Launch(name + "_dense",
                 rt::CoverThreads(view.n, kBlock, StageSharedBytes()),
                 [&](vgpu::Ctx& c) {
                   return PushAdvanceDenseKernel(c, view, next.queue(),
                                                 next.count(), pred, op);
                 })
        .status();
  }
  if (lb == LoadBalance::kWarpPerVertex) {
    const uint64_t warp_threads =
        static_cast<uint64_t>(frontier_size) * device->arch().warp_width;
    return device
        ->Launch(name + "_warp",
                 rt::CoverThreads(warp_threads, kBlock, StageSharedBytes()),
                 [&](vgpu::Ctx& c) {
                   return PushAdvanceWarpKernel(c, view, cur.queue(),
                                                frontier_size, next.queue(),
                                                next.count(), op);
                 })
        .status();
  }
  return device
      ->Launch(name,
               rt::CoverThreads(frontier_size, kBlock, StageSharedBytes()),
               [&](vgpu::Ctx& c) {
                 return PushAdvanceSparseKernel(c, view, cur.queue(),
                                                frontier_size, next.queue(),
                                                next.count(), op);
               })
      .status();
}

}  // namespace adgraph::engine

#endif  // ADGRAPH_ENGINE_ENGINE_H_
