#ifndef ADGRAPH_TESTS_GROWING_SHARDS_H_
#define ADGRAPH_TESTS_GROWING_SHARDS_H_

#include "graph/csr.h"

namespace adgraph {

/// Four 128-vertex shards under a uniform 4-way plan: shard 0 is a ring,
/// and each vertex of shard s > 0 has 64 + 16 s out-edges, so every later
/// shard is larger than the one before it.  On A100s shrunk to 32 KiB,
/// shard 0 fits, for BFS and PageRank alike, and no later shard's columns
/// do.
inline graph::CsrGraph GrowingShards() {
  constexpr graph::vid_t kShard = 128;
  graph::CooGraph coo;
  coo.num_vertices = 4 * kShard;
  for (graph::vid_t u = 0; u < kShard; ++u) coo.AddEdge(u, (u + 1) % kShard);
  for (graph::vid_t u = kShard; u < 4 * kShard; ++u) {
    const graph::vid_t degree = 64 + 16 * (u / kShard);
    for (graph::vid_t k = 1; k <= degree; ++k) {
      coo.AddEdge(u, (u + k) % coo.num_vertices);
    }
  }
  return graph::CsrGraph::FromCoo(coo, {}).value();
}

}  // namespace adgraph

#endif  // ADGRAPH_TESTS_GROWING_SHARDS_H_
