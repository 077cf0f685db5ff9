#include "graph/csr.h"

#include <algorithm>
#include <numeric>
#include <string>

namespace adgraph::graph {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

template <typename T>
void FnvMix(uint64_t* h, const T* data, size_t count) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(data);
  for (size_t i = 0; i < count * sizeof(T); ++i) {
    *h ^= bytes[i];
    *h *= kFnvPrime;
  }
}

/// Stable counting sort of `items` by `key(item)`, a value below
/// `num_keys`: O(items + num_keys).
template <typename T, typename Key>
void StableCountingSort(std::vector<T>* items, size_t num_keys, Key key) {
  std::vector<eid_t> next(num_keys + 1, 0);
  for (const T& item : *items) ++next[key(item) + 1];
  std::partial_sum(next.begin(), next.end(), next.begin());
  std::vector<T> sorted(items->size());
  for (const T& item : *items) sorted[next[key(item)]++] = item;
  items->swap(sorted);
}

}  // namespace

CsrGraph::CsrGraph(const CsrGraph& other)
    : num_vertices_(other.num_vertices_),
      row_offsets_(other.row_offsets_),
      col_indices_(other.col_indices_),
      weights_(other.weights_),
      fingerprint_memo_(
          other.fingerprint_memo_.load(std::memory_order_relaxed)),
      mutation_epoch_(other.mutation_epoch_) {}

CsrGraph& CsrGraph::operator=(const CsrGraph& other) {
  if (this == &other) return *this;
  num_vertices_ = other.num_vertices_;
  row_offsets_ = other.row_offsets_;
  col_indices_ = other.col_indices_;
  weights_ = other.weights_;
  fingerprint_memo_.store(
      other.fingerprint_memo_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  mutation_epoch_ = other.mutation_epoch_;
  return *this;
}

CsrGraph::CsrGraph(CsrGraph&& other) noexcept
    : num_vertices_(other.num_vertices_),
      row_offsets_(std::move(other.row_offsets_)),
      col_indices_(std::move(other.col_indices_)),
      weights_(std::move(other.weights_)),
      fingerprint_memo_(
          other.fingerprint_memo_.load(std::memory_order_relaxed)),
      mutation_epoch_(other.mutation_epoch_) {}

CsrGraph& CsrGraph::operator=(CsrGraph&& other) noexcept {
  if (this == &other) return *this;
  num_vertices_ = other.num_vertices_;
  row_offsets_ = std::move(other.row_offsets_);
  col_indices_ = std::move(other.col_indices_);
  weights_ = std::move(other.weights_);
  fingerprint_memo_.store(
      other.fingerprint_memo_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  mutation_epoch_ = other.mutation_epoch_;
  return *this;
}

uint64_t CsrGraph::ContentFingerprint() const {
  uint64_t memo = fingerprint_memo_.load(std::memory_order_relaxed);
  if (memo != 0) return memo;
  uint64_t h = kFnvOffset;
  uint64_t n = num_vertices_;
  FnvMix(&h, &n, 1);
  FnvMix(&h, row_offsets_.data(), row_offsets_.size());
  FnvMix(&h, col_indices_.data(), col_indices_.size());
  FnvMix(&h, weights_.data(), weights_.size());
  if (h == 0) h = kFnvOffset;  // keep 0 as the unset sentinel
  fingerprint_memo_.store(h, std::memory_order_relaxed);
  return h;
}

Result<CsrGraph> CsrGraph::FromCoo(const CooGraph& coo,
                                   const CsrBuildOptions& options) {
  const eid_t m_in = coo.num_edges();
  if (coo.dst.size() != coo.src.size()) {
    return Status::InvalidArgument("COO src/dst length mismatch");
  }
  if (coo.has_weights() && coo.weights.size() != coo.src.size()) {
    return Status::InvalidArgument("COO weights length mismatch");
  }
  for (eid_t e = 0; e < m_in; ++e) {
    if (coo.src[e] >= coo.num_vertices || coo.dst[e] >= coo.num_vertices) {
      return Status::InvalidArgument(
          "edge " + std::to_string(e) + " references vertex out of range");
    }
  }

  // Materialize the working edge set (optionally symmetrized, minus loops).
  struct Edge {
    vid_t u, v;
    weight_t w;
  };
  std::vector<Edge> edges;
  edges.reserve(options.make_undirected ? 2 * m_in : m_in);
  for (eid_t e = 0; e < m_in; ++e) {
    vid_t u = coo.src[e];
    vid_t v = coo.dst[e];
    if (options.remove_self_loops && u == v) continue;
    weight_t w = coo.has_weights() ? coo.weights[e] : weight_t{1};
    edges.push_back({u, v, w});
    if (options.make_undirected && u != v) edges.push_back({v, u, w});
  }

  // Stable sorts by v, then by u, order the edges by (u, v) and keep equal
  // pairs in input order, so deduplication keeps the first copy.
  if (options.sort_neighbors) {
    StableCountingSort(&edges, coo.num_vertices,
                       [](const Edge& e) { return e.v; });
  }
  StableCountingSort(&edges, coo.num_vertices,
                     [](const Edge& e) { return e.u; });
  if (options.remove_duplicates) {
    edges.erase(std::unique(edges.begin(), edges.end(),
                            [](const Edge& a, const Edge& b) {
                              return a.u == b.u && a.v == b.v;
                            }),
                edges.end());
  }

  CsrGraph g;
  g.num_vertices_ = coo.num_vertices;
  g.row_offsets_.assign(static_cast<size_t>(coo.num_vertices) + 1, 0);
  g.col_indices_.resize(edges.size());
  if (coo.has_weights()) g.weights_.resize(edges.size());
  for (const Edge& e : edges) g.row_offsets_[e.u + 1] += 1;
  std::partial_sum(g.row_offsets_.begin(), g.row_offsets_.end(),
                   g.row_offsets_.begin());
  for (size_t i = 0; i < edges.size(); ++i) {
    g.col_indices_[i] = edges[i].v;
    if (!g.weights_.empty()) g.weights_[i] = edges[i].w;
  }
  return g;
}

Result<CsrGraph> CsrGraph::FromArrays(vid_t num_vertices,
                                      std::vector<eid_t> row_offsets,
                                      std::vector<vid_t> col_indices,
                                      std::vector<weight_t> weights) {
  if (row_offsets.size() != static_cast<size_t>(num_vertices) + 1) {
    return Status::InvalidArgument("row_offsets must have n+1 entries");
  }
  if (row_offsets.front() != 0 || row_offsets.back() != col_indices.size()) {
    return Status::InvalidArgument("row_offsets endpoints inconsistent");
  }
  for (size_t i = 1; i < row_offsets.size(); ++i) {
    if (row_offsets[i] < row_offsets[i - 1]) {
      return Status::InvalidArgument("row_offsets not monotone");
    }
  }
  for (vid_t v : col_indices) {
    if (v >= num_vertices) {
      return Status::InvalidArgument("col index out of range");
    }
  }
  if (!weights.empty() && weights.size() != col_indices.size()) {
    return Status::InvalidArgument("weights length mismatch");
  }
  CsrGraph g;
  g.num_vertices_ = num_vertices;
  g.row_offsets_ = std::move(row_offsets);
  g.col_indices_ = std::move(col_indices);
  g.weights_ = std::move(weights);
  return g;
}

CsrGraph CsrGraph::Transpose() const {
  CsrGraph t;
  t.num_vertices_ = num_vertices_;
  t.row_offsets_.assign(row_offsets_.size(), 0);
  t.col_indices_.resize(col_indices_.size());
  if (has_weights()) t.weights_.resize(weights_.size());
  for (vid_t v : col_indices_) t.row_offsets_[v + 1] += 1;
  std::partial_sum(t.row_offsets_.begin(), t.row_offsets_.end(),
                   t.row_offsets_.begin());
  std::vector<eid_t> cursor(t.row_offsets_.begin(), t.row_offsets_.end() - 1);
  for (vid_t u = 0; u < num_vertices_; ++u) {
    for (eid_t e = row_offsets_[u]; e < row_offsets_[u + 1]; ++e) {
      vid_t v = col_indices_[e];
      eid_t pos = cursor[v]++;
      t.col_indices_[pos] = u;
      if (has_weights()) t.weights_[pos] = weights_[e];
    }
  }
  return t;
}

CsrGraph CsrGraph::WithUniformWeights(weight_t w) const {
  CsrGraph g = *this;
  g.weights_.assign(col_indices_.size(), w);
  // Content changed relative to *this: drop the copied memo so the weighted
  // flavor hashes its own bytes.
  g.fingerprint_memo_.store(0, std::memory_order_relaxed);
  return g;
}

CooGraph CsrGraph::ToCoo() const {
  CooGraph coo;
  coo.num_vertices = num_vertices_;
  coo.src.reserve(col_indices_.size());
  coo.dst.reserve(col_indices_.size());
  if (has_weights()) coo.weights.reserve(weights_.size());
  for (vid_t u = 0; u < num_vertices_; ++u) {
    for (eid_t e = row_offsets_[u]; e < row_offsets_[u + 1]; ++e) {
      coo.src.push_back(u);
      coo.dst.push_back(col_indices_[e]);
      if (has_weights()) coo.weights.push_back(weights_[e]);
    }
  }
  return coo;
}

}  // namespace adgraph::graph
