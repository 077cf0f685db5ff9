#include <utility>

#include "engine/algorithms.h"
#include "engine/relax.h"

namespace adgraph::engine {
namespace {

using graph::vid_t;
using vgpu::Ctx;
using vgpu::DevPtr;
using vgpu::KernelTask;

KernelTask IotaLabelsKernel(Ctx& c, DevPtr<vid_t> labels, uint32_t n) {
  auto v = c.GlobalThreadId();
  c.If(c.Lt(v, n), [&](Ctx& c) { c.Store(labels, v, v); });
  co_return;
}

}  // namespace

// A warm start resumes from earlier labels: min-label propagation from any
// labels that are already unions of true components lands on the same
// fixpoint.
Result<core::CcResult> RunConnectedComponents(vgpu::Device* device,
                                              const graph::CsrGraph& g,
                                              const core::CcOptions&,
                                              core::GraphResidency* residency,
                                              const EngineOptions& engine,
                                              EngineReport* report,
                                              const CcStart* start) {
  const vid_t n = g.num_vertices();
  if (n == 0) {
    return Status::InvalidArgument("connected components on empty graph");
  }
  if (start != nullptr && start->labels.size() != n) {
    return Status::InvalidArgument("warm-start labels do not match the graph");
  }

  trace::Span algo_span(device->trace_track(),
                        start != nullptr ? "algo:cc_delta" : "algo:cc", "algo");
  algo_span.ArgNum("num_vertices", static_cast<uint64_t>(n));

  auto relax_start = [&](rt::DeviceBuffer<vid_t>& labels, Frontier& cur) {
    if (start != nullptr) {
      ADGRAPH_RETURN_NOT_OK(labels.Upload(start->labels.data(), n));
      return cur.InitFromHost(start->seeds);
    }
    auto labels_ptr = labels.ptr();
    ADGRAPH_RETURN_NOT_OK(
        device
            ->Launch("cc_iota", rt::CoverThreads(n),
                     [&](Ctx& c) { return IotaLabelsKernel(c, labels_ptr, n); })
            .status());
    return cur.InitAllVertices();
  };
  // Min-label propagation converges within the graph diameter; n rounds is
  // the safe ceiling.
  ADGRAPH_ASSIGN_OR_RETURN(
      Fixpoint<vid_t> fixpoint,
      RelaxToFixpoint<MinSemiring<vid_t>>(
          device, g, residency, core::GraphVariant::kSymSimple, "cc_propagate",
          n, engine, report, relax_start));
  core::CcResult result;
  result.labels = std::move(fixpoint.values);
  result.iterations = fixpoint.rounds;
  result.time_ms = fixpoint.time_ms;
  // At the fixpoint each component is labeled by its smallest member, so
  // the component count is the number of self-labeled vertices.
  for (vid_t v = 0; v < n; ++v) {
    if (result.labels[v] == v) result.num_components += 1;
  }
  algo_span.ArgNum("num_components", result.num_components);
  algo_span.ArgNum("iterations", static_cast<uint64_t>(result.iterations));
  return result;
}

}  // namespace adgraph::engine
