#ifndef ADGRAPH_SERVE_ADMISSION_H_
#define ADGRAPH_SERVE_ADMISSION_H_

#include <cstdint>
#include <string>

#include "serve/job.h"
#include "util/status.h"
#include "vgpu/device.h"

namespace adgraph::serve {

class GraphCache;

/// \brief Verdict of memory-aware admission control for one (job, device)
/// pair.
struct AdmissionDecision {
  bool admit = false;
  uint64_t estimated_bytes = 0;   ///< registry working-set estimate
  /// Bytes of the estimate already resident in the worker's graph cache
  /// for this job's (graph, variant); the estimate is charged net of this.
  uint64_t resident_bytes = 0;
  /// estimated_bytes minus the residency discount — what headroom scales
  /// and what is compared against available memory.
  uint64_t charged_bytes = 0;
  /// Cache bytes evicted (LRU, unpinned only) to make this job fit.
  uint64_t evicted_bytes = 0;
  uint64_t available_bytes = 0;   ///< device capacity minus live usage
  uint64_t capacity_bytes = 0;    ///< device RAM (scaled)
  /// Admitted via the out-of-core streamed path (spec.allow_streamed): the
  /// whole-graph working set did not fit even after eviction, but the
  /// streamed one — O(n) state plus two staging slots — does.  The job
  /// runs in core::Placement::Streamed.
  bool streamed = false;
  uint64_t streamed_bytes = 0;    ///< streamed working-set estimate
  std::string reason;             ///< human-readable rejection reason
};

/// \brief Decides whether `spec` can run on `device` without exhausting its
/// address space, using the AddressSpace capacity accounting
/// (capacity_bytes / used_bytes) plus the registry's per-algorithm
/// working-set model.
///
/// `headroom` scales the estimate (> 1 = more conservative admission).
/// This is what turns the paper's twitter-mpi ESBV OOM into a graceful
/// kResourceExhausted at the serving layer: the job is refused before any
/// kernel runs, and the device stays clean for the next request.
///
/// With a (non-null, enabled) graph cache, admission charges only the
/// *non-resident* part of the estimate — the staged graph is already on
/// the device — and, when the charge still exceeds free memory, evicts
/// unpinned cache entries to admit.  The caller is expected to have pinned
/// the job's own resident entry first (Scheduler::Execute does), so
/// eviction-for-space can never free the graph the job is about to read.
AdmissionDecision CheckAdmission(const vgpu::Device& device,
                                 const JobSpec& spec, double headroom = 1.0,
                                 GraphCache* cache = nullptr);

/// Converts a non-admit decision into the Status the job's future resolves
/// with (kResourceExhausted).  Precondition: !decision.admit.
Status AdmissionError(const AdmissionDecision& decision);

}  // namespace adgraph::serve

#endif  // ADGRAPH_SERVE_ADMISSION_H_
