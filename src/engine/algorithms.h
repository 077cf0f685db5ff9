#ifndef ADGRAPH_ENGINE_ALGORITHMS_H_
#define ADGRAPH_ENGINE_ALGORITHMS_H_

#include <span>
#include <vector>

#include "core/api.h"
#include "engine/engine.h"
#include "graph/csr.h"
#include "util/status.h"
#include "vgpu/device.h"

namespace adgraph::engine {

/// \brief The single-device drivers of the frontier-based algorithms
/// (DESIGN.md §2.11).
///
/// Each is a short driver over the shared Frontier/Advance/Filter
/// operators; `core::Run` dispatches here, and they are the only
/// single-device implementations of these algorithms.  golden_test freezes
/// each driver's results and modeled kernel counters on the bundled
/// proxies and checks the results against core/host_ref:
///
///  * BFS's digests are the ones Tables 5/6 were built from: its codegen,
///    device allocations and direction heuristic must not drift.
///  * SSSP, CC and widest path are one relaxation loop (engine/relax.h)
///    over their semirings (min-plus, min-label, max-min; the warm BFS
///    re-expansion is a fourth, min over level + 1).  Each converges to
///    the semiring's unique fixpoint, so the result arrays equal the host
///    reference bitwise; their `-warp` rows freeze the warp-per-vertex
///    launches, which kAuto never picks on the proxies.
///  * PageRank is floating-point-order sensitive: its kernel sequence
///    (dangling sum, pull SpMV, damping) is fixed, so ranks and iteration
///    count are bit-stable run to run.
///  * BC's forward pass claims levels and counts paths in its own push
///    loop; its rows freeze both gathers too.
///
/// `report`, when non-null, receives the per-run direction statistics.

Result<core::BfsResult> RunBfs(vgpu::Device* device, const graph::CsrGraph& g,
                               const core::BfsOptions& options,
                               core::GraphResidency* residency = nullptr,
                               const EngineOptions& engine = {},
                               EngineReport* report = nullptr);

Result<core::SsspResult> RunSssp(vgpu::Device* device,
                                 const graph::CsrGraph& g,
                                 const core::SsspOptions& options,
                                 core::GraphResidency* residency = nullptr,
                                 const EngineOptions& engine = {},
                                 EngineReport* report = nullptr);

/// `warm_start`, when non-null, holds one rank per vertex to iterate from
/// instead of 1/n: the warm-started delta-PageRank.
Result<core::PageRankResult> RunPageRank(
    vgpu::Device* device, const graph::CsrGraph& g,
    const core::PageRankOptions& options,
    core::GraphResidency* residency = nullptr, const EngineOptions& engine = {},
    EngineReport* report = nullptr,
    const std::vector<double>* warm_start = nullptr);

/// Where min-label propagation starts: a cold run labels every vertex
/// with itself and puts all of them in the frontier; a warm start resumes
/// from earlier labels with only `seeds` in the frontier (an empty set runs
/// no round).
struct CcStart {
  std::span<const graph::vid_t> labels;  ///< one per vertex
  std::span<const graph::vid_t> seeds;
};

Result<core::CcResult> RunConnectedComponents(
    vgpu::Device* device, const graph::CsrGraph& g,
    const core::CcOptions& options, core::GraphResidency* residency = nullptr,
    const EngineOptions& engine = {}, EngineReport* report = nullptr,
    const CcStart* start = nullptr);

Result<core::WidestPathResult> RunWidestPath(
    vgpu::Device* device, const graph::CsrGraph& g,
    const core::WidestPathOptions& options,
    core::GraphResidency* residency = nullptr, const EngineOptions& engine = {},
    EngineReport* report = nullptr);

/// Brandes single-source betweenness: an engine BFS forward pass that also
/// accumulates shortest-path counts, then a level-synchronous backward
/// dependency sweep — the "new algorithm in a few dozen lines" the engine
/// refactor exists to enable.
Result<core::BcResult> RunBetweenness(vgpu::Device* device,
                                      const graph::CsrGraph& g,
                                      const core::BcOptions& options,
                                      core::GraphResidency* residency = nullptr,
                                      const EngineOptions& engine = {},
                                      EngineReport* report = nullptr);

/// The delta path of a warm-started one-device run (engine/incremental.cc),
/// for a request core::Run's fallback list has cleared: `algo` is BFS,
/// CC or PageRank, `warm.previous` holds its result on a graph of the same
/// vertex count, `warm.updates` is set (insert-only for BFS and CC), and
/// BFS asks for no parents.  BFS and CC re-expand through the relaxation
/// loop from the previous values.  Fills `info->seed_vertices`.
Result<core::AlgoResult> RunWarmStarted(vgpu::Device* device,
                                        core::Algo algo,
                                        const graph::CsrGraph& g,
                                        const core::Params& params,
                                        const core::WarmStart& warm,
                                        core::GraphResidency* residency,
                                        core::IncrementalInfo* info);

}  // namespace adgraph::engine

#endif  // ADGRAPH_ENGINE_ALGORITHMS_H_
