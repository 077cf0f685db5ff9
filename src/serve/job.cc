#include "serve/job.h"

#include <type_traits>

namespace adgraph::serve {

namespace {

/// Incremental FNV-1a over raw bytes.  Doubles are hashed via their bit
/// pattern, so "byte-identical" means exactly that.
class Fnv1a {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ull;
    }
  }
  template <typename T>
  void Value(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Bytes(&v, sizeof(v));
  }
  template <typename T>
  void Vector(const std::vector<T>& v) {
    Value<uint64_t>(v.size());
    if (!v.empty()) Bytes(v.data(), v.size() * sizeof(T));
  }
  uint64_t digest() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace

uint64_t FingerprintPayload(const JobPayload& payload) {
  Fnv1a h;
  h.Value<uint64_t>(payload.index());
  std::visit(
      [&h](const auto& r) {
        using R = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<R, core::BfsResult>) {
          h.Vector(r.levels);
          h.Vector(r.parents);
          h.Value(r.depth);
          h.Value(r.vertices_visited);
        } else if constexpr (std::is_same_v<R, core::SsspResult>) {
          h.Vector(r.distances);
          h.Value(r.rounds);
        } else if constexpr (std::is_same_v<R, core::PageRankResult>) {
          h.Vector(r.ranks);
          h.Value(r.iterations);
        } else if constexpr (std::is_same_v<R, core::TcResult>) {
          h.Value(r.triangles);
          h.Value(r.oriented_edges);
        } else if constexpr (std::is_same_v<R, core::CcResult>) {
          h.Vector(r.labels);
          h.Value(r.num_components);
        } else if constexpr (std::is_same_v<R, core::KCoreResult>) {
          h.Vector(r.in_core);
          h.Value(r.core_size);
        } else if constexpr (std::is_same_v<R, core::JaccardResult>) {
          h.Vector(r.coefficients);
        } else if constexpr (std::is_same_v<R, core::WidestPathResult>) {
          h.Vector(r.widths);
          h.Value(r.rounds);
        } else if constexpr (std::is_same_v<R, core::ColoringResult>) {
          h.Vector(r.colors);
          h.Value(r.num_colors);
        } else if constexpr (std::is_same_v<R, core::EsbvResult>) {
          h.Value<uint32_t>(r.subgraph.num_vertices());
          h.Vector(r.subgraph.row_offsets());
          h.Vector(r.subgraph.col_indices());
          h.Vector(r.subgraph.weights());
        } else if constexpr (std::is_same_v<R, core::BcResult>) {
          h.Vector(r.centrality);
          h.Vector(r.sigma);
          h.Value(r.depth);
        }
      },
      payload);
  return h.digest();
}

}  // namespace adgraph::serve
