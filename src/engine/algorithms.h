#ifndef ADGRAPH_ENGINE_ALGORITHMS_H_
#define ADGRAPH_ENGINE_ALGORITHMS_H_

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
///  * SSSP / CC / widest-path converge to the unique semiring fixpoint
///    (min-plus, min-label, max-min), so the result arrays equal the host
///    reference bitwise.
///  * PageRank is floating-point-order sensitive: its kernel sequence
///    (dangling sum, pull SpMV, damping) is fixed, so ranks and iteration
///    count are bit-stable run to run.
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
/// instead of 1/n: the incremental path's delta-PageRank
/// (core::RunIncremental).
Result<core::PageRankResult> RunPageRank(
    vgpu::Device* device, const graph::CsrGraph& g,
    const core::PageRankOptions& options,
    core::GraphResidency* residency = nullptr, const EngineOptions& engine = {},
    EngineReport* report = nullptr,
    const std::vector<double>* warm_start = nullptr);

Result<core::CcResult> RunConnectedComponents(
    vgpu::Device* device, const graph::CsrGraph& g,
    const core::CcOptions& options, core::GraphResidency* residency = nullptr,
    const EngineOptions& engine = {}, EngineReport* report = nullptr);

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

}  // namespace adgraph::engine

#endif  // ADGRAPH_ENGINE_ALGORITHMS_H_
