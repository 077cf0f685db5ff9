#ifndef ADGRAPH_ENGINE_RELAX_H_
#define ADGRAPH_ENGINE_RELAX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/residency.h"
#include "engine/engine.h"
#include "trace/trace.h"

namespace adgraph::engine {

/// \brief The one push relaxation to a fixpoint (DESIGN.md §2.11): SSSP,
/// widest path, connected components and the warm BFS re-expansion are this
/// loop over different semirings.
///
/// A semiring is a stateless type that says how a value travels:
///
///   using Value;                               the per-vertex value type
///   static Lanes<Value> Push(Ctx&, x)          what a source holding x pushes
///   static Lanes<Value> Extend(Ctx&, pushed, weights, e)
///                                              that value carried along edge
///                                              e (weights null: unweighted)
///   static Lanes<Value> Keep(Ctx&, values, v, cand)
///                                              the atomic that keeps the
///                                              better value; returns the old
///   static LaneMask Improved(Ctx&, old, cand)  whether cand beat old
///
/// Each hook issues exactly the Ctx operations of the relaxation it
/// describes, in order; golden_test hashes every kernel's counters.

/// The min semiring over `T`: a value crosses an edge unchanged and the
/// smaller one wins (min-label, CC's semiring).  Min-plus and min over
/// level + 1 derive from it and replace Extend or Push.
template <typename T>
struct MinSemiring {
  using Value = T;

  static vgpu::Lanes<T> Push(vgpu::Ctx&, const vgpu::Lanes<T>& x) { return x; }
  static vgpu::Lanes<T> Extend(vgpu::Ctx&, const vgpu::Lanes<T>& x,
                               vgpu::DevPtr<double>,
                               const vgpu::Lanes<graph::eid_t>&) {
    return x;
  }
  static vgpu::Lanes<T> Keep(vgpu::Ctx& c, vgpu::DevPtr<T> values,
                             const vgpu::Lanes<graph::vid_t>& v,
                             const vgpu::Lanes<T>& x) {
    return c.AtomicMin(values, v, x);
  }
  static vgpu::LaneMask Improved(vgpu::Ctx& c, const vgpu::Lanes<T>& old,
                                 const vgpu::Lanes<T>& x) {
    return c.Gt(old, x);
  }
};

/// The relaxation as a push-advance functor.  A destination enters the
/// next frontier when its value improved *and* this lane won the claim
/// flag — the dedup that keeps the output queue a set.
template <typename Semiring>
struct RelaxPushOp {
  using Value = typename Semiring::Value;
  vgpu::DevPtr<double> weights;
  vgpu::DevPtr<Value> values;
  vgpu::DevPtr<uint32_t> out_flags;
  vgpu::Lanes<Value> pushed;

  void LoadSource(vgpu::Ctx& c, const vgpu::Lanes<graph::vid_t>& u) {
    pushed = Semiring::Push(c, c.Load(values, u));
  }
  vgpu::LaneMask Relax(vgpu::Ctx& c, const vgpu::Lanes<graph::vid_t>&,
                       const vgpu::Lanes<graph::eid_t>& e,
                       const vgpu::Lanes<graph::vid_t>& v) {
    auto candidate = Semiring::Extend(c, pushed, weights, e);
    auto old = Semiring::Keep(c, values, v, candidate);
    vgpu::LaneMask fresh = 0;
    c.If(Semiring::Improved(c, old, candidate), [&](vgpu::Ctx& c) {
      auto prev = c.AtomicExch(out_flags, v, c.Splat<uint32_t>(1));
      fresh = c.Eq(prev, 0u);
    });
    return fresh;
  }
  void OnEnqueue(vgpu::Ctx&, const vgpu::Lanes<graph::vid_t>&,
                 const vgpu::Lanes<graph::vid_t>&) {}
};

/// Where a relaxation ended: one value per vertex, the rounds it ran and
/// their modeled device time.
template <typename T>
struct Fixpoint {
  std::vector<T> values;
  uint32_t rounds = 0;
  double time_ms = 0;
};

/// Stages `g` as `variant`, allocates the values and two frontiers, starts
/// the timer, and lets `start(values, cur)` set the values and the first
/// frontier (an upload there is a transfer, not device time).  Then
/// relaxes until no value improves or `max_rounds` rounds ran; an empty
/// first frontier runs none.  Each round is one push advance named
/// `kernel`.  The direction engine records it (relaxation cannot pull, so
/// kPullOnly fails) and makes the next frontier dense past its threshold;
/// `report`, when non-null, receives its decisions.
template <typename Semiring, typename Start>
Result<Fixpoint<typename Semiring::Value>> RelaxToFixpoint(
    vgpu::Device* device, const graph::CsrGraph& g,
    core::GraphResidency* residency, core::GraphVariant variant,
    const std::string& kernel, uint32_t max_rounds,
    const EngineOptions& engine, EngineReport* report, Start start) {
  using Value = typename Semiring::Value;
  ADGRAPH_ASSIGN_OR_RETURN(core::ResidentCsr staged,
                           core::Stage(residency, device, g, variant));
  const CsrView view = MakeView(*staged);
  const uint32_t n = view.n;
  ADGRAPH_ASSIGN_OR_RETURN(auto values,
                           rt::DeviceBuffer<Value>::Create(device, n));
  ADGRAPH_ASSIGN_OR_RETURN(Frontier cur, Frontier::Create(device, n));
  ADGRAPH_ASSIGN_OR_RETURN(Frontier next, Frontier::Create(device, n));

  rt::DeviceTimer timer(device);
  ADGRAPH_RETURN_NOT_OK(start(values, cur));
  DirectionEngine director(device, engine.direction, /*can_pull=*/false);
  const LoadBalance lb = ResolveLoadBalance(
      engine.load_balance, staged->num_edges, n, device->arch().warp_width);
  Fixpoint<Value> fixpoint;
  uint32_t frontier_size = cur.size();
  while (frontier_size > 0 && fixpoint.rounds < max_rounds) {
    trace::Span sweep(device->trace_track(), "relax.round", "phase");
    sweep.ArgNum("round", static_cast<uint64_t>(fixpoint.rounds + 1));
    sweep.ArgNum("frontier_size", static_cast<uint64_t>(frontier_size));
    ADGRAPH_RETURN_NOT_OK(next.Clear());
    ADGRAPH_RETURN_NOT_OK(
        director.Choose(frontier_size, n, fixpoint.rounds + 1).status());
    RelaxPushOp<Semiring> op{view.weights, values.ptr(), next.flags(), {}};
    ADGRAPH_RETURN_NOT_OK(LaunchPushAdvance(device, kernel, view, lb, cur,
                                            frontier_size, next, op));
    fixpoint.rounds += 1;
    ADGRAPH_RETURN_NOT_OK(next.RefreshCount());
    frontier_size = next.size();
    if (frontier_size == 0) break;
    director.ChooseRep(cur, &next, frontier_size, n);
    swap(cur, next);
  }

  fixpoint.time_ms = timer.ElapsedMs();
  ADGRAPH_ASSIGN_OR_RETURN(fixpoint.values, values.ToHost());
  if (report != nullptr) report->direction = director.stats();
  return fixpoint;
}

}  // namespace adgraph::engine

#endif  // ADGRAPH_ENGINE_RELAX_H_
