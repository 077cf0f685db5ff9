#ifndef ADGRAPH_PART_ENGINE_H_
#define ADGRAPH_PART_ENGINE_H_

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/placement.h"
#include "part/partition.h"
#include "trace/trace.h"
#include "util/status.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"
#include "vgpu/interconnect.h"

namespace adgraph::part {

/// \brief A pool of N identical simulated devices plus the interconnect
/// that joins them — the execution substrate of the partitioned drivers
/// (DESIGN.md §2.7).
///
/// A driver runs bulk-synchronous rounds from one coordinating thread, the
/// caller's, which owns the engine.  Inside a round the devices share
/// nothing, so ForEachDevice simulates their per-device steps side by side
/// on host threads.  Everything shared stays on the coordinating thread:
/// the Interconnect (AccountTransfer, rt::PeerCopy, EndRound) and every
/// host reduction over devices, summed in device order after the join.
/// Each device thus issues the same operations in the same order as when
/// the devices ran one after another, so no counter, kernel log, clock or
/// exchange statistic can move.  A round's modeled time is the maximum
/// per-device kernel time plus the interconnect's exchange time.
class PartitionedEngine {
 public:
  struct Options {
    uint32_t num_devices = 2;
    vgpu::Device::Options device_options;
    /// Link model joining the pool (NVLink-class by default — the
    /// multi-GPU topology the paper's scale-out discussion assumes).
    vgpu::InterconnectConfig interconnect = vgpu::NvlinkPreset();
  };

  /// Validates the arch (vgpu::ValidateArchConfig) and interconnect
  /// configs, then constructs the pool.
  static Result<std::unique_ptr<PartitionedEngine>> Create(
      const vgpu::ArchConfig& arch, Options options);

  PartitionedEngine(const PartitionedEngine&) = delete;
  PartitionedEngine& operator=(const PartitionedEngine&) = delete;
  ~PartitionedEngine();

  uint32_t num_devices() const {
    return static_cast<uint32_t>(devices_.size());
  }
  vgpu::Device* device(uint32_t i) { return devices_[i].get(); }
  vgpu::Interconnect& interconnect() { return *interconnect_; }

  /// Each device's modeled kernel clock (elapsed_ms), in device order.
  std::vector<double> ElapsedSnapshot() const;

  /// Fails unless `plan` has one shard per device and covers [0, n).
  Status CheckPlan(const PartitionPlan& plan, graph::vid_t n) const;

  /// Runs `step(d)` for every device d at once and returns the first
  /// non-OK status in device order (OK when every step is); an exception a
  /// step throws is rethrown here, in that order too.  One host thread per
  /// device, capped at the machine's hardware threads; the caller's thread
  /// takes device 0, and each helper installs the caller's trace context,
  /// so its spans keep the job's ids and capture.  A step may touch only
  /// its own device and its own slots of host state.
  Status ForEachDevice(const std::function<Status(uint32_t)>& step);

  /// Starts a driver's bulk-synchronous rounds, after its staging: later
  /// EndRound calls measure device clocks and interconnect bytes from here.
  void StartRounds();

  /// Closes one round, named `label` on the interconnect: adds the round,
  /// its max-over-devices compute since the previous round, its exchange
  /// time and the bytes moved since StartRounds to `stats`, and returns
  /// the round's modeled time (compute + exchange).
  double EndRound(const std::string& label, core::ExchangeStats* stats);

 private:
  PartitionedEngine(std::vector<std::unique_ptr<vgpu::Device>> devices,
                    std::unique_ptr<vgpu::Interconnect> interconnect);

  /// Runs the current step on the devices of thread `t`: t, t + T, ...
  void RunShare(uint32_t t);
  void HelperLoop(uint32_t t);

  std::vector<std::unique_ptr<vgpu::Device>> devices_;
  std::unique_ptr<vgpu::Interconnect> interconnect_;
  std::vector<double> round_clock_;  ///< device clocks at the last round end
  uint64_t round_bytes_ = 0;         ///< interconnect bytes at StartRounds

  // ForEachDevice's helpers.  The coordinating thread publishes a step by
  // bumping `generation_` under `mutex_`; each helper runs its share and
  // counts `pending_` down.
  uint32_t num_threads_ = 1;
  std::mutex mutex_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  uint64_t generation_ = 0;
  uint32_t pending_ = 0;
  bool stopping_ = false;
  const std::function<Status(uint32_t)>* step_ = nullptr;
  trace::TraceContext context_;
  // Per device, of the current step.
  std::vector<Status> statuses_;
  std::vector<std::exception_ptr> exceptions_;
  std::vector<std::thread> helpers_;  // last: they use every member above
};

}  // namespace adgraph::part

#endif  // ADGRAPH_PART_ENGINE_H_
