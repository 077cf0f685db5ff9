#ifndef ADGRAPH_CORE_API_H_
#define ADGRAPH_CORE_API_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/bfs.h"
#include "core/coloring.h"
#include "core/conn_components.h"
#include "core/jaccard.h"
#include "core/kcore.h"
#include "core/pagerank.h"
#include "core/placement.h"
#include "core/sssp.h"
#include "core/subgraph.h"
#include "core/triangle_count.h"
#include "core/widest_path.h"
#include "graph/csr.h"
#include "graph/delta.h"
#include "prof/metrics.h"
#include "util/status.h"
#include "vgpu/device.h"

namespace adgraph::core {

/// Every library algorithm behind the uniform `core::Run` entry point.
/// Enumerator order is frozen: it matches the alternative order of
/// `Params`/`AlgoResult` (static_asserted in api.cc) and the serving
/// layer's wire protocol.  New algorithms append.
enum class Algo {
  kBfs,
  kSssp,
  kPageRank,
  kTriangleCount,
  kConnectedComponents,
  kKCore,
  kJaccard,
  kWidestPath,
  kColoring,
  kEsbv,
  kBetweenness,
};

/// Lower-case wire/CLI name ("bfs", "pagerank", "esbv", "bc", ...).
std::string_view AlgorithmName(Algo algo);

/// Inverse of AlgorithmName; kNotFound for unknown names.
Result<Algo> ParseAlgorithm(std::string_view name);

/// Options of engine-based Brandes betweenness centrality (single source).
struct BcOptions {
  graph::vid_t source = 0;
};

/// Outcome of a betweenness run.
struct BcResult {
  /// Per-vertex dependency of `source` on the vertex (Brandes δ_s(v)):
  /// the source-restricted betweenness contribution.  Summing over all
  /// sources yields exact betweenness centrality.
  std::vector<double> centrality;
  /// Per-vertex shortest-path counts from the source (σ_s(v); exact —
  /// integer-valued doubles).
  std::vector<double> sigma;
  uint32_t depth = 0;  ///< deepest BFS level reached
  double time_ms = 0;
};

/// Uniform request parameters: the variant alternative *is* the algorithm
/// selection.  Alternative order matches enum Algo.
using Params =
    std::variant<BfsOptions, SsspOptions, PageRankOptions, TcOptions,
                 CcOptions, KCoreOptions, JaccardOptions, WidestPathOptions,
                 ColoringOptions, EsbvOptions, BcOptions>;

/// Uniform result payload, same alternative order as Params.
///
/// Named AlgoResult (not Result) because `adgraph::Result<T>` is the
/// library-wide fallible-value wrapper and is used unqualified throughout
/// namespace core.
using AlgoResult =
    std::variant<BfsResult, SsspResult, PageRankResult, TcResult, CcResult,
                 KCoreResult, JaccardResult, WidestPathResult, ColoringResult,
                 EsbvResult, BcResult>;

/// \brief A warm start (DESIGN.md §2.12): a result computed on an earlier
/// version of the graph plus the edge updates made since, both by value.
/// `core::Run` re-expands from it instead of recomputing when the delta is
/// small and the algorithm has a delta path, and says why not otherwise.
struct WarmStart {
  /// The earlier result; null when none is stored yet.
  std::shared_ptr<const AlgoResult> previous;
  /// The updates from `previous`'s graph to the run's graph, oldest first;
  /// nullopt when that history was trimmed.
  std::optional<std::vector<graph::EdgeUpdate>> updates;
  /// Recompute in full when the delta touches more than this fraction of
  /// the run graph's edges: past it, re-expansion does comparable work to
  /// a cold run without its memory locality.
  double full_threshold = 0.01;
};

/// What a warm-started Run actually did.
struct IncrementalInfo {
  bool incremental = false;      ///< true = the delta path ran
  std::string fallback_reason;   ///< why full recompute ran ("" if not)
  uint64_t seed_vertices = 0;    ///< vertices seeding the re-expansion
};

/// The placement- and warm-start-specific half of a run's outcome
/// (`core::Run`'s optional out-param); the payload carries the algorithm's
/// own result.
struct RunReport {
  ExchangeStats exchange;
  StagingStats staging;
  IncrementalInfo incremental;
  /// A gang's kernel profile: one window over its devices' kernel logs,
  /// concatenated in device order.  Empty for the other placements, whose
  /// kernels run on the caller's device.
  prof::JobProfile gang_profile;
};

/// Which algorithm a Run call dispatches, where, and from what start.
/// Kept as a struct (rather than a bare enum parameter) so cross-algorithm
/// knobs extend it without touching every caller.
struct AlgoSpec {
  Algo algo = Algo::kBfs;
  Placement placement = {};
  /// Null = a cold run.  Must outlive the Run call.
  const WarmStart* warm_start = nullptr;
};

/// \brief The one statement of which algorithms run in which placement:
/// every algorithm runs on one device; a gang or a stream runs BFS without
/// parents and PageRank.  Anything else is kFailedPrecondition.  A gang
/// must also have 1 to kMaxGangDevices devices and a valid interconnect
/// (kInvalidArgument).  `core::Run` checks it; so do the serving layer's
/// validation and admission, and the CLI, before they commit to a
/// placement.
Status CheckPlacement(const Placement& placement, const Params& params);

/// Modeled device time carried inside the payload (the per-algorithm
/// `time_ms` field).
double ResultTimeMs(const AlgoResult& result);

class GraphResidency;

/// \brief The uniform algorithm entry point: dispatches `spec.algo` with
/// the matching `params` alternative on `g`, in `spec.placement`, cold or
/// from `spec.warm_start`.
///
/// Fails with kInvalidArgument when `spec.algo` does not match
/// `params.index()`, and with CheckPlacement's status when the placement
/// cannot run the request.  On one device, BFS, SSSP, PageRank, CC,
/// widest-path, and betweenness run on the frontier/operator engine
/// (src/engine/, DESIGN.md §2.11), whose drivers are their only
/// single-device implementations; the remaining algorithms dispatch to
/// their core implementations on the same signature.  A gang runs on a
/// fresh part::PartitionedEngine of devices like `device` (§2.7); a stream
/// runs on `device` through the ooc drivers (§2.13).  Neither uses
/// `residency`.
///
/// A warm start runs on one device only, and lands on the same fixpoint a
/// cold run does: BFS re-expands insert-only deltas from the previous
/// levels, and CC runs the engine CC driver from the previous labels with
/// the bridging inserts' endpoints as its frontier (levels and labels are
/// byte-identical to a cold run); PageRank iterates from the previous
/// ranks (equal to the configured tolerance).  Anything else recomputes
/// in full and says why in `report->incremental`: no previous result,
/// another placement, a previous result of another algorithm or size,
/// trimmed history, a delta over `full_threshold` or naming vertices `g`
/// does not have, parents, a deletion for BFS or CC, or an algorithm
/// without a delta path.
///
/// `report`, when set, receives the gang's exchange statistics and kernel
/// profile or the stream's staging statistics, and what the warm start
/// did.  Defined in src/engine/run.cc — callers link adgraph_engine (every
/// in-tree consumer already does).
Result<AlgoResult> Run(vgpu::Device* device, const AlgoSpec& spec,
                       const graph::CsrGraph& g, const Params& params,
                       GraphResidency* residency = nullptr,
                       RunReport* report = nullptr);

/// The Params / AlgoResult alternative of algorithm `A`.
template <Algo A>
using ParamsOf = std::variant_alternative_t<static_cast<size_t>(A), Params>;
template <Algo A>
using ResultOf = std::variant_alternative_t<static_cast<size_t>(A), AlgoResult>;

/// Typed form of Run for callers that name the algorithm statically:
/// `core::Run<Algo::kBfs>(&device, g, options)` yields the BfsResult.
template <Algo A>
Result<ResultOf<A>> Run(vgpu::Device* device, const graph::CsrGraph& g,
                        const ParamsOf<A>& params,
                        GraphResidency* residency = nullptr) {
  constexpr size_t kIndex = static_cast<size_t>(A);
  ADGRAPH_ASSIGN_OR_RETURN(
      AlgoResult result,
      Run(device, AlgoSpec{A}, g, Params(std::in_place_index<kIndex>, params),
          residency));
  return std::get<kIndex>(std::move(result));
}

}  // namespace adgraph::core

#endif  // ADGRAPH_CORE_API_H_
