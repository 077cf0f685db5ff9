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

/// Footprint after host-side symmetrization (make_undirected at most
/// doubles the edge count; duplicates are removed, so this is an upper
/// bound).
uint64_t SymUploadBytes(uint64_t n, uint64_t m, bool weighted) {
  return UploadBytes(n, 2 * m, weighted);
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
             // Symmetrized (orient=false) or oriented-DAG (orient=true)
             // upload, unweighted either way, + the counter cell.  The
             // symmetrized bound covers both.
             return SymUploadBytes(g.num_vertices(), g.num_edges(),
                                   /*weighted=*/false) +
                    256;
           }});

  add({.algo = Algorithm::kConnectedComponents,
       .graph_variant = Always(core::GraphVariant::kSymSimple),
       .estimate_device_bytes =
           [](const JobSpec& s) {
             const auto& g = *s.graph;
             uint64_t n = g.num_vertices();
             // The symmetrized copy keeps the weights; labels + two
             // frontiers.
             return SymUploadBytes(n, g.num_edges(), g.has_weights()) +
                    Alloc(4 * n) + 2 * FrontierBytes(n);
           }});

  add({.algo = Algorithm::kKCore,
       .graph_variant = Always(core::GraphVariant::kSymSimple),
       .estimate_device_bytes =
           [](const JobSpec& s) {
             const auto& g = *s.graph;
             uint64_t n = g.num_vertices();
             // degrees + membership + removal queue + flag.
             return SymUploadBytes(n, g.num_edges(), /*weighted=*/false) +
                    12 * n + 256;
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
             const auto& g = *s.graph;
             uint64_t n = g.num_vertices();
             return SymUploadBytes(n, g.num_edges(), /*weighted=*/false) +
                    4 * n + 256;
           }});

  add({.algo = Algorithm::kEsbv,
       .graph_variant = Always(core::GraphVariant::kCscWeighted),
       .estimate_device_bytes =
           [](const JobSpec& s) {
             const auto& g = *s.graph;
             uint64_t n = g.num_vertices();
             uint64_t m = g.num_edges();
             // The paper's capacity-killer (§4.4/§4.5): weighted CSC
             // upload (8n + 12m) plus the conservatively-sized extraction
             // intermediates — flag/renumber scans (~16n) and the COO
             // rebuild working set (~32m) — lands near 44 bytes/edge.
             return UploadBytes(n, m, /*weighted=*/true) + 16 * n + 32 * m +
                    256;
           },
       .requires_weights = true});

  add({.algo = Algorithm::kBetweenness,
       .graph_variant = Always(core::GraphVariant::kSymSimple),
       .estimate_device_bytes =
           [](const JobSpec& s) {
             const auto& g = *s.graph;
             uint64_t n = g.num_vertices();
             // levels (4n) + sigma/delta (8n each) + two engine frontiers
             // (queue + flags, 8n each) + count cells.
             return SymUploadBytes(n, g.num_edges(), /*weighted=*/false) +
                    36 * n + 256;
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
  if (spec.gang_devices > 1) {
    const Algorithm algo = spec.algorithm();
    if (algo != Algorithm::kBfs && algo != Algorithm::kPageRank) {
      return Status::InvalidArgument(
          "gang execution supports bfs and pagerank, not " +
          std::string(AlgorithmName(algo)));
    }
    if (algo == Algorithm::kBfs &&
        std::get<core::BfsOptions>(spec.params).compute_parents) {
      return Status::InvalidArgument(
          "gang bfs does not produce parents (partitioned traversal "
          "reports levels only)");
    }
    ADGRAPH_RETURN_NOT_OK(
        vgpu::ValidateInterconnectConfig(spec.gang_interconnect));
  }
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
