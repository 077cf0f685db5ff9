#include "core/api.h"

#include <string>

namespace adgraph::core {

namespace {

template <size_t I, typename P, typename R>
constexpr bool AlternativeMatches() {
  return std::is_same_v<std::variant_alternative_t<I, Params>, P> &&
         std::is_same_v<std::variant_alternative_t<I, AlgoResult>, R>;
}

#define ADGRAPH_CHECK_ALT(algo, P, R)                                       \
  static_assert(AlternativeMatches<static_cast<size_t>(Algo::algo), P, R>(), \
                "Params/AlgoResult alternative order must match enum Algo")

ADGRAPH_CHECK_ALT(kBfs, BfsOptions, BfsResult);
ADGRAPH_CHECK_ALT(kSssp, SsspOptions, SsspResult);
ADGRAPH_CHECK_ALT(kPageRank, PageRankOptions, PageRankResult);
ADGRAPH_CHECK_ALT(kTriangleCount, TcOptions, TcResult);
ADGRAPH_CHECK_ALT(kConnectedComponents, CcOptions, CcResult);
ADGRAPH_CHECK_ALT(kKCore, KCoreOptions, KCoreResult);
ADGRAPH_CHECK_ALT(kJaccard, JaccardOptions, JaccardResult);
ADGRAPH_CHECK_ALT(kWidestPath, WidestPathOptions, WidestPathResult);
ADGRAPH_CHECK_ALT(kColoring, ColoringOptions, ColoringResult);
ADGRAPH_CHECK_ALT(kEsbv, EsbvOptions, EsbvResult);
ADGRAPH_CHECK_ALT(kBetweenness, BcOptions, BcResult);

#undef ADGRAPH_CHECK_ALT

static_assert(std::variant_size_v<Params> == std::variant_size_v<AlgoResult>,
              "every algorithm has exactly one Params and one AlgoResult "
              "alternative");

}  // namespace

std::string_view AlgorithmName(Algo algo) {
  switch (algo) {
    case Algo::kBfs:
      return "bfs";
    case Algo::kSssp:
      return "sssp";
    case Algo::kPageRank:
      return "pagerank";
    case Algo::kTriangleCount:
      return "tc";
    case Algo::kConnectedComponents:
      return "cc";
    case Algo::kKCore:
      return "kcore";
    case Algo::kJaccard:
      return "jaccard";
    case Algo::kWidestPath:
      return "widest";
    case Algo::kColoring:
      return "color";
    case Algo::kEsbv:
      return "esbv";
    case Algo::kBetweenness:
      return "bc";
  }
  return "?";
}

Result<Algo> ParseAlgorithm(std::string_view name) {
  constexpr size_t kNumAlgos = std::variant_size_v<Params>;
  for (size_t i = 0; i < kNumAlgos; ++i) {
    Algo algo = static_cast<Algo>(i);
    if (AlgorithmName(algo) == name) return algo;
  }
  return Status::NotFound("unknown algorithm: " + std::string(name));
}

Status CheckPlacement(const Placement& placement, const Params& params) {
  if (placement.kind == Placement::Kind::kDevice) return Status::OK();
  const bool gang = placement.kind == Placement::Kind::kGang;
  if (gang) {
    if (placement.gang_devices == 0 ||
        placement.gang_devices > kMaxGangDevices) {
      return Status::InvalidArgument(
          "a gang has 1 to " + std::to_string(kMaxGangDevices) +
          " devices, not " + std::to_string(placement.gang_devices));
    }
    ADGRAPH_RETURN_NOT_OK(
        vgpu::ValidateInterconnectConfig(placement.interconnect));
  }
  const Algo algo = static_cast<Algo>(params.index());
  const bool parents = algo == Algo::kBfs &&
                       std::get<BfsOptions>(params).compute_parents;
  if ((algo == Algo::kBfs && !parents) || algo == Algo::kPageRank) {
    return Status::OK();
  }
  // Gang and streamed BFS report levels only: a parent is tie-broken by
  // expansion order, which sharding changes.
  return Status::FailedPrecondition(
      std::string(gang ? "a gang" : "a stream") +
      " runs bfs without parents and pagerank, not " +
      std::string(AlgorithmName(algo)) + (parents ? " with parents" : ""));
}

double ResultTimeMs(const AlgoResult& result) {
  return std::visit([](const auto& r) { return r.time_ms; }, result);
}

}  // namespace adgraph::core
