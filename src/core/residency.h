#ifndef ADGRAPH_CORE_RESIDENCY_H_
#define ADGRAPH_CORE_RESIDENCY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <utility>

#include "core/device_graph.h"
#include "graph/csr.h"
#include "util/status.h"
#include "vgpu/device.h"

namespace adgraph::core {

/// \brief The device layouts an algorithm can request for a base graph.
///
/// Each variant is a *deterministic function* of the base CsrGraph, which is
/// what makes cross-job reuse byte-identical: two jobs that ask for the same
/// (graph, variant) pair get the same device arrays whether the second one
/// re-uploads or reuses a cached copy.
enum class GraphVariant : uint8_t {
  /// The base CSR verbatim (weights included when present): BFS, SSSP,
  /// Jaccard, widest path, SpMV.
  kAsIs = 0,
  /// Symmetrized, deduplicated, self-loop-free, sorted adjacency — the
  /// undirected interpretation shared by CC, k-core, coloring and
  /// unoriented (Bisson-Fatica) triangle counting.  One resident copy
  /// serves all four.
  kSymSimple,
  /// Degree-oriented DAG (triangle counting with options.orient).
  kTcOriented,
  /// Transpose with 1/outdeg(u) edge weights — PageRank's pull operand.
  kPullTranspose,
  /// Weighted CSC (plain transpose, weights following their edge) — the
  /// library-native ESBV storage.
  kCscWeighted,
};

/// Stable lower-case name ("as-is", "sym", "tc-oriented", ...).
std::string_view GraphVariantName(GraphVariant variant);

/// Order-sensitive FNV-1a digest of the graph's *content* (vertex count,
/// row offsets, column indices, weights).  Two CsrGraph objects with equal
/// arrays fingerprint identically regardless of identity — the cache key
/// half that makes residency content-addressed rather than pointer-keyed.
uint64_t FingerprintCsr(const graph::CsrGraph& g);

/// Host-side construction of `variant` from `base`.  kAsIs returns a copy;
/// callers that only want to upload should special-case it and upload
/// `base` directly (Stage and the residency cache both do).
Result<graph::CsrGraph> BuildHostVariant(const graph::CsrGraph& base,
                                         GraphVariant variant);

/// \brief A device-resident CSR an algorithm may read for the duration of
/// one run: either an owned upload (freed on destruction) or a pinned
/// reference into a residency cache (unpinned on destruction).
class ResidentCsr {
 public:
  ResidentCsr() = default;
  explicit ResidentCsr(DeviceCsr owned) : owned_(std::move(owned)) {}
  ResidentCsr(std::shared_ptr<const DeviceCsr> cached,
              std::function<void()> unpin)
      : cached_(std::move(cached)), unpin_(std::move(unpin)) {}

  ~ResidentCsr() { Release(); }

  ResidentCsr(ResidentCsr&& other) noexcept { *this = std::move(other); }
  ResidentCsr& operator=(ResidentCsr&& other) noexcept {
    if (this != &other) {
      Release();
      owned_ = std::move(other.owned_);
      cached_ = std::move(other.cached_);
      unpin_ = std::exchange(other.unpin_, nullptr);
    }
    return *this;
  }
  ResidentCsr(const ResidentCsr&) = delete;
  ResidentCsr& operator=(const ResidentCsr&) = delete;

  const DeviceCsr& operator*() const { return cached_ ? *cached_ : owned_; }
  const DeviceCsr* operator->() const { return &**this; }

  /// True when this handle pins a cache entry (a residency hit or a freshly
  /// inserted upload) rather than owning a one-shot upload.
  bool from_cache() const { return cached_ != nullptr; }

 private:
  void Release() {
    if (unpin_) std::exchange(unpin_, nullptr)();
    cached_.reset();
  }

  DeviceCsr owned_;
  std::shared_ptr<const DeviceCsr> cached_;
  std::function<void()> unpin_;
};

/// \brief Provider of device-resident graph variants.
///
/// core/ algorithms take an optional GraphResidency*; the serve layer's
/// per-worker GraphCache implements it (DESIGN.md §2.6).  A null provider
/// means "upload per run", the pre-cache behavior.
class GraphResidency {
 public:
  virtual ~GraphResidency() = default;

  /// Returns `variant` of `base` resident on `device`, pinned until the
  /// handle is destroyed.  Implementations must hand back arrays equal to
  /// BuildHostVariant(base, variant) uploaded via DeviceCsr::Upload.
  virtual Result<ResidentCsr> Acquire(vgpu::Device* device,
                                      const graph::CsrGraph& base,
                                      GraphVariant variant) = 0;
};

/// The one staging entry point the algorithms call: with a residency
/// provider, delegates to it (hit = no host transform, no H2D transfer);
/// without one, builds the variant on the host and uploads an owned copy.
Result<ResidentCsr> Stage(GraphResidency* residency, vgpu::Device* device,
                          const graph::CsrGraph& base, GraphVariant variant);

}  // namespace adgraph::core

#endif  // ADGRAPH_CORE_RESIDENCY_H_
