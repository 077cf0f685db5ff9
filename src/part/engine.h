#ifndef ADGRAPH_PART_ENGINE_H_
#define ADGRAPH_PART_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/placement.h"
#include "part/partition.h"
#include "util/status.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"
#include "vgpu/interconnect.h"

namespace adgraph::part {

/// \brief A pool of N identical simulated devices plus the interconnect
/// that joins them — the execution substrate of the partitioned drivers
/// (DESIGN.md §2.7).
///
/// All devices are driven by ONE host thread in bulk-synchronous rounds;
/// "parallelism" across devices is modeled, not executed: a round's time is
/// the maximum per-device kernel time plus the interconnect's exchange
/// time.  Like vgpu::Device, an engine is single-threaded.
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

  uint32_t num_devices() const {
    return static_cast<uint32_t>(devices_.size());
  }
  vgpu::Device* device(uint32_t i) { return devices_[i].get(); }
  vgpu::Interconnect& interconnect() { return *interconnect_; }

  /// Each device's modeled kernel clock (elapsed_ms), in device order.
  std::vector<double> ElapsedSnapshot() const;

  /// Fails unless `plan` has one shard per device and covers [0, n).
  Status CheckPlan(const PartitionPlan& plan, graph::vid_t n) const;

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
                    std::unique_ptr<vgpu::Interconnect> interconnect)
      : devices_(std::move(devices)), interconnect_(std::move(interconnect)) {}

  std::vector<std::unique_ptr<vgpu::Device>> devices_;
  std::unique_ptr<vgpu::Interconnect> interconnect_;
  std::vector<double> round_clock_;  ///< device clocks at the last round end
  uint64_t round_bytes_ = 0;         ///< interconnect bytes at StartRounds
};

}  // namespace adgraph::part

#endif  // ADGRAPH_PART_ENGINE_H_
