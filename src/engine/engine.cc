#include "engine/engine.h"

#include "trace/trace.h"

namespace adgraph::engine {
namespace {

/// Beamer's switch thresholds: a frontier is dense (pull, dense bitmap)
/// when it holds more than n / kPullAlpha vertices and more than
/// kMinPullFrontier.
constexpr double kPullAlpha = 16.0;
constexpr uint32_t kMinPullFrontier = 64;

bool IsDense(uint32_t frontier_size, uint32_t num_vertices) {
  return frontier_size > kMinPullFrontier &&
         static_cast<double>(frontier_size) > num_vertices / kPullAlpha;
}

}  // namespace

Result<Direction> DirectionEngine::Choose(uint32_t frontier_size,
                                          uint32_t num_vertices,
                                          uint32_t round) {
  Direction dir = Direction::kPush;
  switch (policy_) {
    case DirectionPolicy::kPushOnly:
      break;
    case DirectionPolicy::kPullOnly:
      if (!can_pull_) {
        return Status::FailedPrecondition(
            "pull-only direction policy, but the algorithm has no pull "
            "formulation on this input (needs a symmetric adjacency)");
      }
      dir = Direction::kPull;
      break;
    case DirectionPolicy::kAuto:
      // Beamer's switch: bottom-up while the frontier is dense.
      if (can_pull_ && IsDense(frontier_size, num_vertices)) {
        dir = Direction::kPull;
      }
      break;
  }

  if (dir == Direction::kPull) {
    stats_.pull_rounds += 1;
  } else {
    stats_.push_rounds += 1;
  }
  if (has_prior_ && dir != prior_) stats_.direction_flips += 1;
  prior_ = dir;
  has_prior_ = true;

  trace::Span span(device_->trace_track(), "engine.direction", "engine");
  span.ArgNum("round", static_cast<uint64_t>(round));
  span.ArgNum("frontier_size", static_cast<uint64_t>(frontier_size));
  span.ArgNum("num_vertices", static_cast<uint64_t>(num_vertices));
  span.ArgNum("pull", static_cast<uint64_t>(dir == Direction::kPull ? 1 : 0));
  return dir;
}

void DirectionEngine::RecordConversion(Frontier::Rep from, Frontier::Rep to) {
  if (from == to) return;
  if (to == Frontier::Rep::kDense) {
    stats_.sparse_to_dense += 1;
  } else {
    stats_.dense_to_sparse += 1;
  }
}

void DirectionEngine::ChooseRep(const Frontier& cur, Frontier* next,
                                uint32_t produced, uint32_t num_vertices) {
  next->set_rep(Frontier::Rep::kSparse);
  if (IsDense(produced, num_vertices)) {
    RecordConversion(Frontier::Rep::kSparse, Frontier::Rep::kDense);
    next->set_rep(Frontier::Rep::kDense);
  } else if (cur.rep() == Frontier::Rep::kDense) {
    RecordConversion(Frontier::Rep::kDense, Frontier::Rep::kSparse);
  }
}

}  // namespace adgraph::engine
