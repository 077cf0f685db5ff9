// SSSP and widest path: one single-source driver over two semirings.

#include <limits>
#include <string>
#include <utility>

#include "engine/algorithms.h"
#include "engine/relax.h"

namespace adgraph::engine {
namespace {

using graph::eid_t;
using graph::vid_t;
using vgpu::Ctx;
using vgpu::DevPtr;
using vgpu::LaneMask;
using vgpu::Lanes;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The weight of edge `e`; on an unweighted graph every edge weighs 1.
Lanes<double> EdgeWeight(Ctx& c, DevPtr<double> weights,
                         const Lanes<eid_t>& e) {
  return weights.is_null() ? c.Splat(1.0) : c.Load(weights, e);
}

/// Min-plus (SSSP): a distance grows by the edge weight, the shorter one
/// wins.  Unreached vertices hold the semiring's zero, the source its one.
struct MinPlus : MinSemiring<double> {
  static constexpr double kZero = kInf, kOne = 0.0;

  static Lanes<double> Extend(Ctx& c, const Lanes<double>& du,
                              DevPtr<double> weights, const Lanes<eid_t>& e) {
    return c.Add(du, EdgeWeight(c, weights, e));
  }
};

/// Max-min (widest path): a width narrows to the edge's capacity, the
/// wider one wins.
struct MaxMin {
  using Value = double;
  static constexpr double kZero = 0.0, kOne = kInf;

  static Lanes<double> Push(Ctx&, const Lanes<double>& wu) { return wu; }
  static Lanes<double> Extend(Ctx& c, const Lanes<double>& wu,
                              DevPtr<double> weights, const Lanes<eid_t>& e) {
    return c.Min(wu, EdgeWeight(c, weights, e));
  }
  static Lanes<double> Keep(Ctx& c, DevPtr<double> width,
                            const Lanes<vid_t>& v, const Lanes<double>& w) {
    return c.AtomicMax(width, v, w);
  }
  static LaneMask Improved(Ctx& c, const Lanes<double>& old,
                           const Lanes<double>& w) {
    return c.Lt(old, w);
  }
};

/// RunSssp's and RunWidestPath's one body: relaxes `S` from `source` to
/// its fixpoint and returns `R` {values, rounds, time_ms}.  `name` is the
/// algorithm in messages; `tag` names its span (`algo:<tag>`) and kernel
/// (`<tag>_relax`).
template <typename S, typename R>
Result<R> RunSingleSource(vgpu::Device* device, const graph::CsrGraph& g,
                          vid_t source, core::GraphResidency* residency,
                          const EngineOptions& engine, EngineReport* report,
                          const std::string& name, const std::string& tag) {
  const vid_t n = g.num_vertices();
  if (n == 0) return Status::InvalidArgument(name + " on empty graph");
  if (source >= n) {
    return Status::InvalidArgument(name + " source out of range");
  }
  if (g.has_weights()) {
    for (double w : g.weights()) {
      if (w < 0) {
        return Status::InvalidArgument(name +
                                       " requires non-negative weights (got " +
                                       std::to_string(w) + ")");
      }
    }
  }

  trace::Span algo_span(device->trace_track(), "algo:" + tag, "algo");
  algo_span.ArgNum("num_vertices", static_cast<uint64_t>(n));
  algo_span.ArgNum("source", static_cast<uint64_t>(source));
  auto start = [&](rt::DeviceBuffer<double>& values, Frontier& cur) {
    ADGRAPH_RETURN_NOT_OK(
        core::primitives::Fill<double>(device, values.ptr(), n, S::kZero));
    ADGRAPH_RETURN_NOT_OK(core::primitives::SetElement<double>(
        device, values.ptr(), source, S::kOne));
    return cur.InitSource(source);
  };
  ADGRAPH_ASSIGN_OR_RETURN(
      Fixpoint<double> fixpoint,
      RelaxToFixpoint<S>(device, g, residency, core::GraphVariant::kAsIs,
                         tag + "_relax", n > 1 ? n - 1 : 1, engine, report,
                         start));
  algo_span.ArgNum("rounds", static_cast<uint64_t>(fixpoint.rounds));
  return R{std::move(fixpoint.values), fixpoint.rounds, fixpoint.time_ms};
}

}  // namespace

Result<core::SsspResult> RunSssp(vgpu::Device* device,
                                 const graph::CsrGraph& g,
                                 const core::SsspOptions& options,
                                 core::GraphResidency* residency,
                                 const EngineOptions& engine,
                                 EngineReport* report) {
  return RunSingleSource<MinPlus, core::SsspResult>(
      device, g, options.source, residency, engine, report, "SSSP", "sssp");
}

Result<core::WidestPathResult> RunWidestPath(
    vgpu::Device* device, const graph::CsrGraph& g,
    const core::WidestPathOptions& options, core::GraphResidency* residency,
    const EngineOptions& engine, EngineReport* report) {
  return RunSingleSource<MaxMin, core::WidestPathResult>(
      device, g, options.source, residency, engine, report, "widest path",
      "widest");
}

}  // namespace adgraph::engine
