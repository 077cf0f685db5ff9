#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

/// \file
/// The four workloads and the helpers they share.  Each workload builds its
/// inputs from the run seed, sets up (several times; setup_s is the
/// median), runs its timed phase for the configured seconds, checks every
/// result outside the timed phase, and fills an Outcome with the
/// end-to-end metrics (untraced run) and the per-layer metrics (traced run).

#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "core/residency.h"
#include "graph/csr.h"
#include "vgpu/counters.h"

namespace adgraph::perfbench {

Outcome RunPaperCells(const RunConfig& config);
Outcome RunServeMix(const RunConfig& config);
Outcome RunMutateMix(const RunConfig& config);
Outcome RunPlacements(const RunConfig& config);

/// (name, unit) of every end-to-end metric, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& EndToEndCatalog();
/// (name, unit) of every per-layer metric.  A traced run reports all of
/// them; a layer the workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerCatalog();

/// How many times each workload repeats its set-up (setup_s = median).
inline constexpr int kSetupRepeats = 5;

/// Warp-instruction-weighted aggregate of per-operation kernel profiles —
/// the modeled `vgpu.*` per-layer metrics.  Fed from Device::kernel_log()
/// on the library path and from the POLL "profile" on the wire.
struct VgpuTotals {
  double ops = 0;
  double warp_inst = 0;
  double kernels = 0;
  double dram_bytes = 0;
  double l1_weighted = 0;   ///< Σ l1_hit_rate × warp_inst
  double l2_weighted = 0;
  double div_weighted = 0;  ///< Σ divergent_branch_ratio × warp_inst
  double gld_weighted = 0;  ///< Σ gld_efficiency × warp_inst

  void AddOp(double op_warp_inst, double op_kernels, double op_dram_bytes,
             double l1_hit_rate, double l2_hit_rate, double divergent_ratio,
             double gld_efficiency);
  /// One operation's kernels: the kernel log of the device it ran on.
  void AddKernels(const std::vector<vgpu::KernelStats>& log);
  /// Sets vgpu.warp_inst / kernels / dram_mb (per operation) and the
  /// weighted ratios.
  void Emit(Outcome* out) const;
};

/// \brief Splits a traced run's timed phase into alternating 1-second
/// untraced and traced slices, so both op rates are measured under the same
/// conditions and their difference is the tracing overhead.  In an untraced
/// run every operation is untraced.
class TraceSlices {
 public:
  explicit TraceSlices(bool traced_run);
  /// Whether an operation starting now is traced.
  bool TracedNow() const;
  /// Counts one completed operation started in mode `traced`.
  void CountDone(bool traced);
  /// At the end of the timed phase: trace.overhead_pct and a note.
  void Finish(Outcome* out) const;

 private:
  static constexpr double kSliceSeconds = 1.0;

  bool traced_run_;
  Clock::time_point start_;
  std::atomic<uint64_t> done_traced_{0};
  std::atomic<uint64_t> done_untraced_{0};
};

/// \brief core::GraphResidency that stages every request itself
/// (core::Stage without a cache — one upload per run, production's
/// cache-off behaviour) and times each staging call as a `core.stage` span.
class TimedStaging : public core::GraphResidency {
 public:
  Result<core::ResidentCsr> Acquire(vgpu::Device* device,
                                    const graph::CsrGraph& base,
                                    core::GraphVariant variant) override;

  uint64_t stages = 0;
  double stage_ms = 0;
  double stage_bytes = 0;
};

/// Materializes the proxy of paper dataset `name` shrunk by `extra_divisor`
/// in normal form (sorted, duplicate- and self-loop-free), optionally with
/// uniform [0,1) edge weights drawn from the dataset's own recipe seed.
/// Each step is a graph-layer span; `build_ms` and `edges` accumulate.
Result<graph::CsrGraph> BuildProxy(const std::string& name,
                                   double extra_divisor, bool weighted,
                                   double* build_ms, double* edges);

/// Candidate sources of seeded point queries: the eighth of the vertices
/// with the most out-edges (ties by id).  A query from one of them reaches
/// the graph's core, so per-query work — and with it every aggregate —
/// varies little from seed to seed.
std::vector<graph::vid_t> HubSources(const graph::CsrGraph& g);

/// Mean of Σ/count, 0 when count is 0.
inline double PerOp(double total, double count) {
  return count > 0 ? total / count : 0;
}

/// Sets per-layer metric `name` (unit looked up in the catalog).
void SetLayer(Outcome* out, const std::string& name, double value,
              uint64_t samples);

}  // namespace adgraph::perfbench

#endif  // PERFBENCH_WORKLOADS_H_
