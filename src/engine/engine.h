#ifndef ADGRAPH_ENGINE_ENGINE_H_
#define ADGRAPH_ENGINE_ENGINE_H_

#include <cstdint>

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

/// The frontier-density switch thresholds.  Defaults equal BfsOptions
/// alpha/beta plus a 64-entry floor, the decisions the golden BFS digests
/// were frozen with.
struct DirectionHeuristic {
  /// Pull when frontier_size > n / alpha.
  double alpha = 16.0;
  /// Return-to-push threshold (newly visited < n / beta).  Recorded for
  /// parity with BfsOptions; the switch back is decided by re-evaluating
  /// the alpha condition on the shrunken frontier.
  double beta = 64.0;
  /// Never pull below this frontier size.
  uint32_t min_pull_frontier = 64;
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
/// round, traces the decision, and keeps the stats.
class DirectionEngine {
 public:
  /// `can_pull`: whether the algorithm has a pull formulation available on
  /// this input (e.g. BFS bottom-up needs a symmetric adjacency).
  DirectionEngine(vgpu::Device* device, DirectionPolicy policy,
                  DirectionHeuristic heuristic, bool can_pull)
      : device_(device),
        policy_(policy),
        heuristic_(heuristic),
        can_pull_(can_pull) {}

  /// Picks the round's direction from the frontier density.  Emits an
  /// "engine.direction" trace span carrying round, frontier size, and the
  /// decision.  kFailedPrecondition when policy is kPullOnly but the
  /// algorithm cannot pull here.
  Result<Direction> Choose(uint32_t frontier_size, uint32_t num_vertices,
                           uint32_t round);

  /// Records a frontier representation conversion.
  void RecordConversion(Frontier::Rep from, Frontier::Rep to);

  const DirectionStats& stats() const { return stats_; }
  DirectionPolicy policy() const { return policy_; }
  const DirectionHeuristic& heuristic() const { return heuristic_; }
  bool can_pull() const { return can_pull_; }

 private:
  vgpu::Device* device_;
  DirectionPolicy policy_;
  DirectionHeuristic heuristic_;
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

}  // namespace adgraph::engine

#endif  // ADGRAPH_ENGINE_ENGINE_H_
