#ifndef ADGRAPH_SERVE_REGISTRY_H_
#define ADGRAPH_SERVE_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/residency.h"
#include "serve/job.h"
#include "util/status.h"

namespace adgraph::serve {

/// \brief One registry row: what the scheduler needs to admit an
/// algorithm's jobs (execution itself goes through `core::Run`).
/// `estimate_device_bytes` is the admission-control model of the job's
/// peak device working set.
struct AlgorithmHandler {
  Algorithm algo;

  /// The device-graph variant the algorithm stages (cache key half; for
  /// admission's residency discount and the scheduler's pre-admission pin).
  std::function<core::GraphVariant(const JobSpec&)> graph_variant;

  /// Conservative upper bound on the bytes of device memory the job will
  /// have live at its peak, mirroring the actual Alloc sequence of the
  /// driver `core::Run` dispatches to (graph upload + working arrays +
  /// conservative intermediates, each rounded to the allocator's 256-byte
  /// granularity).  Used by admission control: a job whose estimate
  /// exceeds device RAM is rejected with kResourceExhausted instead of
  /// being allowed to die mid-run with kOutOfMemory.
  std::function<uint64_t(const JobSpec&)> estimate_device_bytes;

  /// ESBV requires edge weights (paper §4.5); jobs on an unweighted graph
  /// are rejected up front with kInvalidArgument.
  bool requires_weights = false;
};

/// All registered algorithms, indexed by static_cast<size_t>(Algorithm).
const std::vector<AlgorithmHandler>& AlgorithmRegistry();

/// The handler of one algorithm.
const AlgorithmHandler& GetHandler(Algorithm algo);

/// Convenience: the registry's working-set estimate for `spec`.
uint64_t EstimateJobDeviceBytes(const JobSpec& spec);

/// Convenience: the device-graph variant `spec`'s algorithm will stage.
core::GraphVariant GraphVariantFor(const JobSpec& spec);

/// Validates a spec independent of any device: non-null non-empty graph,
/// a finite positive fair-share weight, a finite non-negative deadline,
/// ESBV weight requirement, a gang core::CheckPlacement allows, and a warm
/// start that does not ask for a gang.  The scheduler calls
/// this at Submit() so obviously-broken jobs fail fast.
Status ValidateJobSpec(const JobSpec& spec);

}  // namespace adgraph::serve

#endif  // ADGRAPH_SERVE_REGISTRY_H_
