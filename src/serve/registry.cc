#include "serve/registry.h"

#include <algorithm>
#include <cmath>

namespace adgraph::serve {

namespace {

/// Device bytes one allocation of `bytes` occupies: the vgpu allocator
/// rounds every request, zero-byte ones included, up to 256 bytes.
uint64_t Alloc(uint64_t bytes) {
  constexpr uint64_t kAlignment = 256;
  return (std::max<uint64_t>(bytes, 1) + kAlignment - 1) / kAlignment *
         kAlignment;
}

/// Device footprint of uploading a CSR graph as-is (DeviceCsr::Upload):
/// 64-bit row offsets, 32-bit column indices, FP64 weights when present.
uint64_t UploadBytes(uint64_t n, uint64_t m, bool weighted) {
  return Alloc((n + 1) * sizeof(graph::eid_t)) +
         Alloc(m * sizeof(graph::vid_t)) +
         (weighted ? Alloc(m * sizeof(graph::weight_t)) : 0);
}

/// Footprint of the kSymSimple variant (make_undirected at most doubles
/// the edge count; duplicates are removed, so this is an upper bound).  The
/// symmetrized copy keeps the input's weights.
uint64_t SymUploadBytes(const graph::CsrGraph& g) {
  return UploadBytes(g.num_vertices(), 2 * g.num_edges(), g.has_weights());
}

/// One engine Frontier (engine/frontier.h): queue, flags, count cell.
uint64_t FrontierBytes(uint64_t n) {
  return 2 * Alloc(n * sizeof(uint32_t)) + Alloc(sizeof(uint32_t));
}

template <typename Options>
const Options& Params(const JobSpec& spec) {
  return std::get<Options>(spec.params);
}

/// graph_variant for the algorithms whose staged layout doesn't depend on
/// the job parameters (everything except triangle counting).
std::function<core::GraphVariant(const JobSpec&)> Always(
    core::GraphVariant variant) {
  return [variant](const JobSpec&) { return variant; };
}

std::vector<AlgorithmHandler> BuildRegistry() {
  std::vector<AlgorithmHandler> reg(std::variant_size_v<JobParams>);
  auto add = [&reg](AlgorithmHandler h) {
    reg[static_cast<size_t>(h.algo)] = std::move(h);
  };

  add({.algo = Algorithm::kBfs,
       .graph_variant = Always(core::GraphVariant::kAsIs),
       .estimate_device_bytes =
           [](const JobSpec& s) {
             const auto& g = *s.graph;
             uint64_t n = g.num_vertices();
             // levels + two queues + count cell (+ parents).
             const uint64_t parents =
                 Params<core::BfsOptions>(s).compute_parents ? 1 : 0;
             return UploadBytes(n, g.num_edges(), g.has_weights()) +
                    (3 + parents) * Alloc(4 * n) + Alloc(4);
           }});

  add({.algo = Algorithm::kSssp,
       .graph_variant = Always(core::GraphVariant::kAsIs),
       .estimate_device_bytes =
           [](const JobSpec& s) {
             const auto& g = *s.graph;
             uint64_t n = g.num_vertices();
             // distances (f64) + two frontiers.
             return UploadBytes(n, g.num_edges(), g.has_weights()) +
                    Alloc(8 * n) + 2 * FrontierBytes(n);
           }});

  add({.algo = Algorithm::kPageRank,
       .graph_variant = Always(core::GraphVariant::kPullTranspose),
       .estimate_device_bytes =
           [](const JobSpec& s) {
             const auto& g = *s.graph;
             uint64_t n = g.num_vertices();
             // Normalized transpose (always weighted) + out-degree offsets
             // + two rank vectors + two reduction cells.
             return UploadBytes(n, g.num_edges(), /*weighted=*/true) +
                    Alloc((n + 1) * sizeof(graph::eid_t)) + 2 * Alloc(8 * n) +
                    Alloc(16);
           }});

  add({.algo = Algorithm::kTriangleCount,
       .graph_variant =
           [](const JobSpec& s) {
             return Params<core::TcOptions>(s).orient
                        ? core::GraphVariant::kTcOriented
                        : core::GraphVariant::kSymSimple;
           },
       .estimate_device_bytes =
           [](const JobSpec& s) {
             const auto& g = *s.graph;
             // The oriented DAG (orient=true) is unweighted and at most the
             // symmetrized edge count; the symmetrized copy (orient=false,
             // the Bisson-Fatica TC) keeps the weights.  Plus the counter.
             const uint64_t staged =
                 Params<core::TcOptions>(s).orient
                     ? UploadBytes(g.num_vertices(), 2 * g.num_edges(),
                                   /*weighted=*/false)
                     : SymUploadBytes(g);
             return staged + Alloc(8);
           }});

  add({.algo = Algorithm::kConnectedComponents,
       .graph_variant = Always(core::GraphVariant::kSymSimple),
       .estimate_device_bytes =
           [](const JobSpec& s) {
             uint64_t n = s.graph->num_vertices();
             // Labels + two frontiers.
             return SymUploadBytes(*s.graph) + Alloc(4 * n) +
                    2 * FrontierBytes(n);
           }});

  add({.algo = Algorithm::kKCore,
       .graph_variant = Always(core::GraphVariant::kSymSimple),
       .estimate_device_bytes =
           [](const JobSpec& s) {
             uint64_t n = s.graph->num_vertices();
             // Degrees + membership + the changed flag.
             return SymUploadBytes(*s.graph) + 2 * Alloc(4 * n) + Alloc(4);
           }});

  add({.algo = Algorithm::kJaccard,
       .graph_variant = Always(core::GraphVariant::kAsIs),
       .estimate_device_bytes =
           [](const JobSpec& s) {
             const auto& g = *s.graph;
             return UploadBytes(g.num_vertices(), g.num_edges(),
                                g.has_weights()) +
                    g.num_edges() * sizeof(double) + 256;
           }});

  add({.algo = Algorithm::kWidestPath,
       .graph_variant = Always(core::GraphVariant::kAsIs),
       .estimate_device_bytes =
           [](const JobSpec& s) {
             const auto& g = *s.graph;
             uint64_t n = g.num_vertices();
             // widths (f64) + two frontiers.
             return UploadBytes(n, g.num_edges(), g.has_weights()) +
                    Alloc(8 * n) + 2 * FrontierBytes(n);
           }});

  add({.algo = Algorithm::kColoring,
       .graph_variant = Always(core::GraphVariant::kSymSimple),
       .estimate_device_bytes =
           [](const JobSpec& s) {
             uint64_t n = s.graph->num_vertices();
             // Colors + the progress flag.
             return SymUploadBytes(*s.graph) + Alloc(4 * n) + Alloc(4);
           }});

  add({.algo = Algorithm::kEsbv,
       .graph_variant = Always(core::GraphVariant::kCscWeighted),
       .estimate_device_bytes =
           [](const JobSpec& s) {
             const auto& g = *s.graph;
             uint64_t n = g.num_vertices();
             uint64_t m = g.num_edges();
             const auto& selected = Params<core::EsbvOptions>(s).vertices;
             // The paper's capacity-killer (§4.4/§4.5): the weighted CSC
             // upload, then every buffer of ExtractSubgraphByVertex live at
             // once, the output at its n-row, m-edge bound: the selection;
             // two 32-bit row arrays (converted and output CSR); five
             // 32-bit edge arrays (both CSRs' columns, the full-size COO's
             // src and dst, its permutation) and three weight arrays;
             // cursor, flags, renumber map and output cursor; the COO
             // count; one scan's block sums (at most n bytes).
             return UploadBytes(n, m, /*weighted=*/true) +
                    Alloc(4 * selected.size()) + 2 * Alloc(4 * (n + 1)) +
                    5 * Alloc(4 * m) + 3 * Alloc(8 * m) + 4 * Alloc(4 * n) +
                    Alloc(4) + Alloc(n);
           },
       .requires_weights = true});

  add({.algo = Algorithm::kBetweenness,
       .graph_variant = Always(core::GraphVariant::kSymSimple),
       .estimate_device_bytes =
           [](const JobSpec& s) {
             uint64_t n = s.graph->num_vertices();
             // Levels + sigma + delta + two engine frontiers.
             return SymUploadBytes(*s.graph) + Alloc(4 * n) +
                    2 * Alloc(8 * n) + 2 * FrontierBytes(n);
           }});

  return reg;
}

}  // namespace

const std::vector<AlgorithmHandler>& AlgorithmRegistry() {
  static const std::vector<AlgorithmHandler>* registry =
      new std::vector<AlgorithmHandler>(BuildRegistry());
  return *registry;
}

const AlgorithmHandler& GetHandler(Algorithm algo) {
  return AlgorithmRegistry()[static_cast<size_t>(algo)];
}

uint64_t EstimateJobDeviceBytes(const JobSpec& spec) {
  return GetHandler(spec.algorithm()).estimate_device_bytes(spec);
}

core::GraphVariant GraphVariantFor(const JobSpec& spec) {
  return GetHandler(spec.algorithm()).graph_variant(spec);
}

Status ValidateJobSpec(const JobSpec& spec) {
  if (spec.graph == nullptr) {
    return Status::InvalidArgument("job has no graph");
  }
  if (spec.graph->num_vertices() == 0) {
    return Status::InvalidArgument("job graph is empty");
  }
  // NaN would poison the tenant's fair-share virtual time (every vtime
  // comparison false); a negative deadline sheds every job.
  if (!(std::isfinite(spec.fair_weight) && spec.fair_weight > 0)) {
    return Status::InvalidArgument("fair_weight must be finite and > 0, got " +
                                   std::to_string(spec.fair_weight));
  }
  if (!(std::isfinite(spec.deadline_ms) && spec.deadline_ms >= 0)) {
    return Status::InvalidArgument("deadline_ms must be finite and >= 0, got " +
                                   std::to_string(spec.deadline_ms));
  }
  const AlgorithmHandler& handler = GetHandler(spec.algorithm());
  if (handler.requires_weights && !spec.graph->has_weights()) {
    return Status::InvalidArgument(
        std::string(AlgorithmName(handler.algo)) +
        " requires edge weights (attach them with WithUniformWeights or "
        "graph::AttachRandomWeights before submitting)");
  }
  ADGRAPH_RETURN_NOT_OK(core::CheckPlacement(spec.placement(), spec.params));
  if (spec.warm_start != nullptr) {
    if (spec.delta == nullptr) {
      return Status::InvalidArgument(
          "incremental warm start requires the mutable graph's delta");
    }
    if (spec.gang_devices > 1) {
      return Status::InvalidArgument(
          "incremental warm start does not compose with gang execution");
    }
    if (spec.warm_start->index() != spec.params.index()) {
      return Status::InvalidArgument(
          "warm-start payload is from a different algorithm than the job");
    }
  }
  return Status::OK();
}

}  // namespace adgraph::serve
