#ifndef ADGRAPH_CORE_PAGERANK_H_
#define ADGRAPH_CORE_PAGERANK_H_

#include <cstdint>
#include <vector>

namespace adgraph::core {

/// Options of semiring-SpMV-based PageRank (pull formulation; `core::Run`
/// with Algo::kPageRank, driver engine::RunPageRank): each round is one
/// plus-times SpMV over the 1/out-degree-normalized transpose, plus the
/// damping/dangling correction — the linear-algebra style the paper
/// describes for nvGRAPH (§3.2.1).
struct PageRankOptions {
  double alpha = 0.85;          ///< damping factor
  uint32_t max_iterations = 50;
  double tolerance = 1e-7;      ///< L1 convergence threshold (0 = run all)
};

struct PageRankResult {
  std::vector<double> ranks;
  uint32_t iterations = 0;
  double l1_delta = 0;  ///< last iteration's L1 change
  double time_ms = 0;
};

}  // namespace adgraph::core

#endif  // ADGRAPH_CORE_PAGERANK_H_
