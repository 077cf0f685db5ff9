#ifndef ADGRAPH_SERVE_JOB_H_
#define ADGRAPH_SERVE_JOB_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <variant>

#include "core/api.h"
#include "graph/csr.h"
#include "prof/metrics.h"
#include "trace/trace.h"
#include "util/status.h"
#include "vgpu/interconnect.h"

namespace adgraph::serve {

/// The serving layer dispatches exactly the algorithm set behind the
/// uniform `core::Run` entry point; these aliases keep the historical
/// serve-layer names working (serve::Algorithm::kBfs, serve::JobParams,
/// ...) while the definitions live in core/api.h.
using Algorithm = core::Algo;

/// Lower-case wire/CLI name ("bfs", "pagerank", "esbv", "bc", ...) and its
/// inverse (kNotFound for unknown names) — the core/api.h functions,
/// re-exported under their historical serve:: names.
using core::AlgorithmName;
using core::ParseAlgorithm;

/// Per-algorithm request parameters.  The variant alternative *is* the
/// algorithm selection: constructing a JobSpec with core::TcOptions makes
/// it a triangle-count job.  Alternative order matches enum Algorithm
/// (static_asserted in core/api.cc).
using JobParams = core::Params;

/// Per-algorithm result payload, same alternative order as JobParams.
using JobPayload = core::AlgoResult;

/// \brief One graph-analytics request: which algorithm with which
/// parameters on which graph, optionally pinned to one architecture.
///
/// The graph is shared (read-only) between jobs and workers — the host-side
/// CsrGraph is immutable after construction, so concurrent uploads from
/// multiple workers are safe.
struct JobSpec {
  std::shared_ptr<const graph::CsrGraph> graph;
  JobParams params;
  /// "" = any device; otherwise an arch name from the pool ("A100", ...).
  std::string arch_preference = {};
  /// Free-form caller label echoed in the outcome (batch line number,
  /// request id, ...).
  std::string tag = {};
  /// Multi-tenant QoS (DESIGN.md §2.10).  "" = the anonymous tenant: one
  /// shared accounting bucket, the pre-tenancy behavior.
  std::string tenant = {};
  /// Priority class: lower runs first.  Workers never dequeue a class-1 job
  /// while a runnable class-0 job is queued (strict priority between
  /// classes; weighted fair share *within* a class).
  uint32_t priority = 0;
  /// Fair-share weight within the priority class: a tenant with weight 2
  /// dequeues twice as often as a weight-1 tenant when both are backlogged.
  /// Must be finite and > 0 (ValidateJobSpec).
  double fair_weight = 1.0;
  /// Deadline budget, milliseconds from Submit().  When > 0 and the job's
  /// queue-wait alone already exceeds it at dequeue time, the job is shed
  /// with kDeadlineExceeded instead of occupying a device.  0 = no deadline;
  /// must be finite and >= 0 (ValidateJobSpec).
  double deadline_ms = 0;
  /// Gang execution (DESIGN.md §2.7): > 1 runs the job on a partitioned
  /// engine of this many simulated devices of the executing worker's arch.
  /// The scheduler reserves that many worker slots for the job's duration.
  /// Requests a gang cannot run (core::CheckPlacement) fail validation.
  uint32_t gang_devices = 1;
  /// Link model of the gang's interconnect (ignored when gang_devices <= 1).
  vgpu::InterconnectConfig gang_interconnect = vgpu::NvlinkPreset();
  /// How the gang shards the vertex range.
  core::PartitionStrategy gang_strategy = core::PartitionStrategy::kUniform;
  // --- Out-of-core streaming (DESIGN.md §2.13) --------------------------
  /// When true and the request streams (core::CheckPlacement), a job whose
  /// whole-graph working set fails admission is admitted anyway iff the
  /// streamed working set — O(n) iteration state plus two staging slots —
  /// fits, and runs in the streamed placement with byte-identical results.
  /// Evict-to-admit thereby becomes a device<->host tiering decision
  /// instead of a hard reject.
  bool allow_streamed = false;
  /// Per staging slot byte budget of the streamed path (0 = ooc default).
  uint64_t ooc_shard_bytes = 0;
  // --- Incremental recompute (DESIGN.md §2.12) --------------------------
  /// Warm start: the previous result and the edge updates from its graph
  /// to `graph`, captured by value when the job is built.  The worker hands
  /// it to core::Run, which re-expands from it or recomputes in full; the
  /// path taken is reported in JobOutcome::{incremental, fallback_reason}
  /// and fallbacks are counted by adgraph_incremental_fallbacks_total.
  std::shared_ptr<const core::WarmStart> warm_start = nullptr;
  // --- Trace context (DESIGN.md §2.14) ----------------------------------
  /// One id per submission, minted at the outermost layer (client/CLI, or
  /// the net server for requests that did not carry one).  Stamped on
  /// every span the job emits, echoed on the outcome and the wire.
  /// 0 = the scheduler mints one at Submit().
  uint64_t trace_id = 0;
  /// The id the *front door* handed the caller (the net server's
  /// per-connection counter).  Distinct from the scheduler's job_id —
  /// both are stamped on spans so either can be correlated.  0 = none
  /// (in-process submission).
  uint64_t wire_job_id = 0;
  /// When set, every span the job emits (wire, queue, admission, engine
  /// rounds, kernels) is also appended here — the flight recorder's and
  /// INSPECT's source of the per-job span tree.  Capturing works even
  /// when no global trace window is open.
  std::shared_ptr<trace::SpanCapture> capture;

  Algorithm algorithm() const {
    return static_cast<Algorithm>(params.index());
  }
  /// The placement the spec asks for: its gang, or one device (admission
  /// may still move a one-device job to the streamed tier).
  core::Placement placement() const {
    return gang_devices > 1 ? core::Placement::Gang(gang_devices,
                                                    gang_interconnect,
                                                    gang_strategy)
                            : core::Placement{};
  }
};

/// \brief Everything the pool reports back for one job.  Delivered through
/// the future returned by Scheduler::Submit — including failures: a
/// rejected or failed job resolves its future with a non-OK `status`
/// instead of breaking the pool.
struct JobOutcome {
  uint64_t job_id = 0;
  /// Trace context the job ran under (DESIGN.md §2.14): the propagated (or
  /// scheduler-minted) trace id and the front door's wire job id (0 for
  /// in-process submissions).  job_id above is the scheduler's id.
  uint64_t trace_id = 0;
  uint64_t wire_job_id = 0;
  std::string tag;
  /// OK, or why the job did not produce a payload: kResourceExhausted from
  /// admission control (estimated working set exceeds device RAM) or a
  /// mid-run device OOM, kInvalidArgument for bad parameters, etc.
  Status status;
  /// Valid iff status.ok().
  JobPayload payload;
  std::string device_name;        ///< arch that executed (or rejected) it
  double modeled_ms = 0;          ///< modeled device kernel time of the job
  /// Modeled host<->device (PCIe) transfer time of the job.  A residency
  /// cache hit makes this collapse: the staged graph was already on the
  /// device, so only the result readback transfers.
  double modeled_transfer_ms = 0;
  double queue_wall_ms = 0;       ///< host wall time spent waiting in queue
  double exec_wall_ms = 0;        ///< host wall time resident on the device
  uint64_t estimated_bytes = 0;   ///< admission-control working-set estimate
  /// True when the job's staged graph was served from the worker's
  /// residency cache rather than built + uploaded.
  bool cache_hit = false;
  /// Compact Table 6–style attribution of exactly this job's kernel
  /// launches (derived ratios plus top kernels by cycles) — what POLL
  /// serializes under "profile" and the adgraph_job_* histograms observe.
  /// Populated iff status.ok().
  prof::JobProfile job_profile;
  // --- Gang execution (gang_devices > 1 in the spec) --------------------
  uint32_t gang_devices = 1;      ///< devices the job actually ran on
  uint64_t exchange_bytes = 0;    ///< peer bytes moved over the interconnect
  uint64_t exchange_rounds = 0;   ///< bulk-synchronous exchange rounds
  double exchange_ms = 0;         ///< modeled interconnect time
  // --- Out-of-core streaming (spec.allow_streamed) ----------------------
  /// True when the job ran in the streamed placement after the whole-graph
  /// working set failed admission.
  bool streamed = false;
  uint32_t ooc_shards = 0;         ///< shards in the byte-bounded plan
  uint64_t ooc_staged_bytes = 0;   ///< host->device bytes streamed
  /// Modeled serialized-staging makespan over the double-buffered one.
  double ooc_overlap_speedup = 0;
  // --- Incremental recompute (spec.warm_start) --------------------------
  bool incremental_requested = false;
  bool incremental = false;        ///< the delta path ran on the device
  /// Why full recompute ran instead ("" when the delta path ran).
  std::string fallback_reason;
  /// Version of the graph the payload answers for: the mutation epoch of
  /// `spec.graph`, the snapshot the job was submitted with.
  uint64_t result_version = 0;
};

/// Order-sensitive FNV-1a digest of the payload's *result content* (levels,
/// distances, ranks, counts, subgraph arrays, ...; modeled times excluded).
/// Two runs of the same job are byte-identical iff the fingerprints match —
/// the serial-vs-concurrent equivalence check of the tests and the
/// throughput bench.
uint64_t FingerprintPayload(const JobPayload& payload);

}  // namespace adgraph::serve

#endif  // ADGRAPH_SERVE_JOB_H_
