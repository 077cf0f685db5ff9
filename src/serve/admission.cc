#include "serve/admission.h"

#include <algorithm>
#include <optional>

#include "ooc/ooc_csr.h"
#include "serve/graph_cache.h"
#include "serve/registry.h"

namespace adgraph::serve {
namespace {

/// The streamed working-set estimate for `spec`, or nullopt when the spec
/// is not eligible: streaming must be requested, and the request must
/// stream (EstimateStreamedBytes checks core::CheckPlacement).
std::optional<uint64_t> StreamedEstimate(const JobSpec& spec) {
  if (!spec.allow_streamed || spec.gang_devices > 1) return std::nullopt;
  auto estimate = ooc::EstimateStreamedBytes(spec.params, *spec.graph,
                                             spec.ooc_shard_bytes);
  if (!estimate.ok()) return std::nullopt;
  return *estimate;
}

}  // namespace

AdmissionDecision CheckAdmission(const vgpu::Device& device,
                                 const JobSpec& spec, double headroom,
                                 GraphCache* cache) {
  AdmissionDecision decision;
  decision.capacity_bytes = device.memory_capacity_bytes();
  decision.available_bytes = device.memory_free_bytes();
  uint64_t estimate = EstimateJobDeviceBytes(spec);
  decision.estimated_bytes = estimate;
  if (cache != nullptr && cache->enabled()) {
    decision.resident_bytes =
        cache->ResidentBytesFor(*spec.graph, GraphVariantFor(spec));
  }
  // Charge only what the job will actually allocate: the resident graph is
  // already on the device (and already counted inside used_bytes).
  decision.charged_bytes =
      estimate - std::min<uint64_t>(decision.resident_bytes, estimate);
  uint64_t padded = static_cast<uint64_t>(
      static_cast<double>(decision.charged_bytes) *
      (headroom < 1.0 ? 1.0 : headroom));
  if (padded > decision.available_bytes && cache != nullptr &&
      cache->enabled()) {
    decision.evicted_bytes =
        cache->EvictForSpace(padded - decision.available_bytes);
    decision.available_bytes = device.memory_free_bytes();
  }
  if (padded > decision.available_bytes) {
    // Whole-graph working set does not fit even after eviction.  Before
    // rejecting, try the out-of-core tier: the streamed path keeps only
    // O(n) iteration state plus two staging slots device-resident and
    // streams the adjacency from host memory through them.
    if (auto streamed = StreamedEstimate(spec); streamed.has_value()) {
      uint64_t streamed_padded = static_cast<uint64_t>(
          static_cast<double>(*streamed) * (headroom < 1.0 ? 1.0 : headroom));
      if (streamed_padded <= decision.available_bytes) {
        decision.admit = true;
        decision.streamed = true;
        decision.streamed_bytes = *streamed;
        // What admission actually lets the job allocate: the streamed
        // working set, not the whole graph.  No residency discount — the
        // streamed path stages shards itself, bypassing the graph cache.
        decision.charged_bytes = *streamed;
        return decision;
      }
    }
    decision.admit = false;
    decision.reason =
        std::string(AlgorithmName(spec.algorithm())) +
        " working set ~" + std::to_string(decision.charged_bytes) +
        " bytes (" + std::to_string(estimate) + " estimated, " +
        std::to_string(decision.resident_bytes) + " resident) exceeds " +
        device.name() + " available memory (" +
        std::to_string(decision.available_bytes) + " of " +
        std::to_string(decision.capacity_bytes) + " bytes free)";
  } else {
    decision.admit = true;
  }
  return decision;
}

Status AdmissionError(const AdmissionDecision& decision) {
  return Status::ResourceExhausted("admission control: " + decision.reason);
}

}  // namespace adgraph::serve
