#include "core/host_ref.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <numeric>
#include <queue>

#include "core/bfs.h"
#include "graph/builder.h"

namespace adgraph::core::host_ref {

using graph::CsrGraph;
using graph::eid_t;
using graph::vid_t;

std::vector<uint32_t> BfsLevels(const CsrGraph& g, vid_t source) {
  std::vector<uint32_t> levels(g.num_vertices(), kUnreachedLevel);
  std::queue<vid_t> queue;
  levels[source] = 0;
  queue.push(source);
  while (!queue.empty()) {
    vid_t u = queue.front();
    queue.pop();
    for (vid_t v : g.neighbors(u)) {
      if (levels[v] == kUnreachedLevel) {
        levels[v] = levels[u] + 1;
        queue.push(v);
      }
    }
  }
  return levels;
}

namespace {

// Undirected simple adjacency (sorted, no loops/duplicates).
CsrGraph Symmetrized(const CsrGraph& g) {
  graph::CsrBuildOptions options;
  options.make_undirected = true;
  options.remove_duplicates = true;
  options.remove_self_loops = true;
  options.sort_neighbors = true;
  auto result = CsrGraph::FromCoo(g.ToCoo(), options);
  return std::move(result).value();  // inputs already validated
}

}  // namespace

uint64_t TriangleCount(const CsrGraph& g) {
  CsrGraph sym = Symmetrized(g);
  // Count each triangle once via the u < v < w ordering on sorted lists.
  uint64_t count = 0;
  for (vid_t u = 0; u < sym.num_vertices(); ++u) {
    auto adj_u = sym.neighbors(u);
    for (vid_t v : adj_u) {
      if (v <= u) continue;
      auto adj_v = sym.neighbors(v);
      // Intersect the > v suffixes of adj(u) and adj(v).
      auto it_u = std::upper_bound(adj_u.begin(), adj_u.end(), v);
      auto it_v = adj_v.begin();
      while (it_u != adj_u.end() && it_v != adj_v.end()) {
        if (*it_u < *it_v) {
          ++it_u;
        } else if (*it_v < *it_u) {
          ++it_v;
        } else {
          if (*it_u > v) ++count;
          ++it_u;
          ++it_v;
        }
      }
    }
  }
  return count;
}

CsrGraph ExtractSubgraph(const CsrGraph& g,
                         const std::vector<vid_t>& vertices) {
  std::vector<uint32_t> flag(g.num_vertices(), 0);
  for (vid_t v : vertices) flag[v] = 1;
  std::vector<vid_t> map(g.num_vertices(), 0);
  vid_t next = 0;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (flag[v]) map[v] = next++;
  }
  graph::CooGraph coo;
  coo.num_vertices = next;
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    if (!flag[u]) continue;
    auto adj = g.neighbors(u);
    for (size_t i = 0; i < adj.size(); ++i) {
      vid_t v = adj[i];
      if (!flag[v]) continue;
      if (g.has_weights()) {
        coo.AddEdge(map[u], map[v], g.edge_weights(u)[i]);
      } else {
        coo.AddEdge(map[u], map[v]);
      }
    }
  }
  graph::CsrBuildOptions options;
  options.sort_neighbors = true;
  return std::move(CsrGraph::FromCoo(coo, options)).value();
}

std::vector<double> PageRank(const CsrGraph& g, double alpha,
                             uint32_t iterations) {
  const vid_t n = g.num_vertices();
  std::vector<double> rank(n, n > 0 ? 1.0 / n : 0.0);
  std::vector<double> next(n);
  for (uint32_t iter = 0; iter < iterations; ++iter) {
    double dangling = 0;
    std::fill(next.begin(), next.end(), 0.0);
    for (vid_t u = 0; u < n; ++u) {
      eid_t deg = g.degree(u);
      if (deg == 0) {
        dangling += rank[u];
        continue;
      }
      double share = rank[u] / deg;
      for (vid_t v : g.neighbors(u)) next[v] += share;
    }
    double base = (1.0 - alpha) / n + alpha * dangling / n;
    for (vid_t v = 0; v < n; ++v) next[v] = base + alpha * next[v];
    rank.swap(next);
  }
  return rank;
}

std::vector<double> Sssp(const CsrGraph& g, vid_t source) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(g.num_vertices(), kInf);
  dist[source] = 0;
  // Bellman-Ford with a change flag (matches the device iteration scheme).
  for (vid_t round = 0; round + 1 < std::max<vid_t>(g.num_vertices(), 1); ++round) {
    bool changed = false;
    for (vid_t u = 0; u < g.num_vertices(); ++u) {
      if (dist[u] == kInf) continue;
      auto adj = g.neighbors(u);
      for (size_t i = 0; i < adj.size(); ++i) {
        double w = g.has_weights() ? g.edge_weights(u)[i] : 1.0;
        if (dist[u] + w < dist[adj[i]]) {
          dist[adj[i]] = dist[u] + w;
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  return dist;
}

std::vector<vid_t> ConnectedComponents(const CsrGraph& g) {
  CsrGraph sym = Symmetrized(g);
  std::vector<vid_t> label(sym.num_vertices(), graph::kInvalidVertex);
  for (vid_t s = 0; s < sym.num_vertices(); ++s) {
    if (label[s] != graph::kInvalidVertex) continue;
    label[s] = s;
    std::deque<vid_t> queue{s};
    while (!queue.empty()) {
      vid_t u = queue.front();
      queue.pop_front();
      for (vid_t v : sym.neighbors(u)) {
        if (label[v] == graph::kInvalidVertex) {
          label[v] = s;
          queue.push_back(v);
        }
      }
    }
  }
  return label;
}

std::vector<double> JaccardPerEdge(const CsrGraph& g) {
  std::vector<double> out;
  out.reserve(g.num_edges());
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    auto adj_u = g.neighbors(u);
    for (vid_t v : adj_u) {
      auto adj_v = g.neighbors(v);
      size_t inter = 0;
      auto it_u = adj_u.begin();
      auto it_v = adj_v.begin();
      while (it_u != adj_u.end() && it_v != adj_v.end()) {
        if (*it_u < *it_v) {
          ++it_u;
        } else if (*it_v < *it_u) {
          ++it_v;
        } else {
          ++inter;
          ++it_u;
          ++it_v;
        }
      }
      size_t uni = adj_u.size() + adj_v.size() - inter;
      out.push_back(uni == 0 ? 0.0 : static_cast<double>(inter) / uni);
    }
  }
  return out;
}

std::vector<uint32_t> CoreNumbers(const CsrGraph& g) {
  CsrGraph sym = Symmetrized(g);
  const vid_t n = sym.num_vertices();
  std::vector<uint32_t> degree(n);
  uint32_t max_degree = 0;
  for (vid_t v = 0; v < n; ++v) {
    degree[v] = static_cast<uint32_t>(sym.degree(v));
    max_degree = std::max(max_degree, degree[v]);
  }
  // Matula-Beck peeling via bucket queue.
  std::vector<std::vector<vid_t>> buckets(max_degree + 1);
  for (vid_t v = 0; v < n; ++v) buckets[degree[v]].push_back(v);
  std::vector<uint32_t> core(n, 0);
  std::vector<bool> removed(n, false);
  uint32_t current = 0;
  for (uint32_t d = 0; d <= max_degree; ++d) {
    auto& bucket = buckets[d];
    for (size_t i = 0; i < bucket.size(); ++i) {
      vid_t v = bucket[i];
      if (removed[v] || degree[v] > d) continue;
      removed[v] = true;
      current = std::max(current, d);
      core[v] = current;
      for (vid_t w : sym.neighbors(v)) {
        if (removed[w] || degree[w] <= d) continue;
        degree[w] -= 1;
        buckets[std::max(degree[w], d)].push_back(w);
      }
    }
  }
  return core;
}

std::vector<double> SpmvPlusTimes(const CsrGraph& g,
                                  const std::vector<double>& x) {
  std::vector<double> y(g.num_vertices(), 0.0);
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    auto adj = g.neighbors(u);
    double acc = 0;
    for (size_t i = 0; i < adj.size(); ++i) {
      double w = g.has_weights() ? g.edge_weights(u)[i] : 1.0;
      acc += w * x[adj[i]];
    }
    y[u] = acc;
  }
  return y;
}

std::vector<double> WidestPath(const CsrGraph& g, vid_t source) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> width(g.num_vertices(), 0.0);
  width[source] = kInf;
  for (vid_t round = 0; round + 1 < std::max<vid_t>(g.num_vertices(), 1);
       ++round) {
    bool changed = false;
    for (vid_t u = 0; u < g.num_vertices(); ++u) {
      if (width[u] == 0.0) continue;
      auto adj = g.neighbors(u);
      for (size_t i = 0; i < adj.size(); ++i) {
        double w = g.has_weights() ? g.edge_weights(u)[i] : 1.0;
        double candidate = std::min(width[u], w);
        if (candidate > width[adj[i]]) {
          width[adj[i]] = candidate;
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  return width;
}

}  // namespace adgraph::core::host_ref
