#ifndef ADGRAPH_VGPU_INTERCONNECT_H_
#define ADGRAPH_VGPU_INTERCONNECT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"
#include "vgpu/counters.h"

namespace adgraph::vgpu {

/// \brief Timing parameterization of the device-to-device interconnect.
///
/// The partitioned execution engine (DESIGN.md §2.7) models every
/// bulk-synchronous peer exchange as a set of point-to-point transfers over
/// links of this shape: each transfer costs `latency_us` plus
/// bytes / `link_gbps`, and transfers of one exchange round proceed in
/// parallel (the round completes when the busiest link drains).  The two
/// presets bracket the realistic range the paper's scale-out discussion
/// spans: PCIe-class host-routed peers vs NVLink-class direct links.
struct InterconnectConfig {
  std::string name = "pcie";
  /// Per-direction link bandwidth in GB/s (10^9 bytes).
  double link_gbps = 16.0;
  /// Per-transfer fixed latency in microseconds.
  double latency_us = 5.0;
};

/// PCIe-gen3-like peer path: ~16 GB/s per direction, ~5 us setup.
InterconnectConfig PciePreset();

/// NVLink-like direct link: ~300 GB/s per direction, ~1.3 us setup.
InterconnectConfig NvlinkPreset();

/// Parses "pcie" / "nvlink" (case-sensitive wire names); kNotFound
/// otherwise.
Result<InterconnectConfig> InterconnectPresetByName(const std::string& name);

/// Rejects configs whose bandwidth/latency would produce inf/NaN exchange
/// times (zero or non-finite link_gbps, negative or non-finite latency).
Status ValidateInterconnectConfig(const InterconnectConfig& config);

/// \brief All-to-all byte accounting + timing model of one device pool's
/// interconnect.
///
/// Single-threaded, like vgpu::Device: one BSP driver owns it.  Usage per
/// exchange round: any number of AccountTransfer(src, dst, bytes) calls
/// (the functional copy happens elsewhere: rt::PeerCopy, or the driver's
/// own host routing), then
/// EndRound(label), which computes the round's modeled time as
/// latency + max over directed pairs of bytes/bandwidth, emits one span on
/// the dedicated "interconnect" trace track, and folds the round into the
/// cumulative per-pair byte matrix.
class Interconnect {
 public:
  /// One completed exchange round's summary.
  struct RoundStats {
    uint64_t bytes = 0;      ///< total bytes moved this round
    double modeled_ms = 0;   ///< modeled round completion time
  };

  Interconnect(uint32_t num_devices, InterconnectConfig config);

  Interconnect(const Interconnect&) = delete;
  Interconnect& operator=(const Interconnect&) = delete;

  uint32_t num_devices() const { return num_devices_; }
  const InterconnectConfig& config() const { return config_; }

  /// Adds `bytes` to the current round's src->dst link (0-based device
  /// indices; src == dst is a no-op — local traffic never crosses a link).
  void AccountTransfer(uint32_t src, uint32_t dst, uint64_t bytes);

  /// Closes the current round: models its completion time, emits the
  /// exchange span, accumulates totals, resets the pending matrix.
  /// Returns the round summary (modeled_ms == 0 for an empty round — a
  /// round with no transfers costs nothing, not one latency).
  RoundStats EndRound(const std::string& label);

  // --- Cumulative accounting (across all completed rounds) --------------
  uint64_t total_bytes() const { return total_bytes_; }
  uint64_t total_rounds() const { return total_rounds_; }
  double total_modeled_ms() const { return total_modeled_ms_; }
  /// Cumulative directed byte matrix, row-major [src * num_devices + dst].
  const std::vector<uint64_t>& pair_bytes() const { return pair_bytes_; }
  /// Peer-traffic counter record (peer_bytes_sent == peer_bytes_received ==
  /// total_bytes; peer_exchanges == total_rounds) for merging into
  /// KernelCounters aggregates.
  KernelCounters CounterRecord() const;

  /// The interconnect's timeline in the tracing subsystem.
  uint64_t trace_track() const { return trace_track_; }

 private:
  uint32_t num_devices_;
  InterconnectConfig config_;
  std::vector<uint64_t> pending_;     ///< this round, [src*P + dst]
  std::vector<uint64_t> pair_bytes_;  ///< cumulative, [src*P + dst]
  uint64_t total_bytes_ = 0;
  uint64_t total_rounds_ = 0;
  double total_modeled_ms_ = 0;
  uint64_t trace_track_ = 0;
};

}  // namespace adgraph::vgpu

#endif  // ADGRAPH_VGPU_INTERCONNECT_H_
