#ifndef ADGRAPH_CORE_PLACEMENT_H_
#define ADGRAPH_CORE_PLACEMENT_H_

#include <cstdint>
#include <utility>

#include "vgpu/interconnect.h"

namespace adgraph::core {

/// How a gang places its shard boundaries (part::MakePartitionPlan).
enum class PartitionStrategy : uint8_t {
  /// Equal vertex counts per shard (n / P each).
  kUniform = 0,
  /// Equal *edge* counts per shard: boundaries split the cumulative degree
  /// (row-offset) curve at m / P steps, the standard 1-D load-balancing fix
  /// for power-law degree skew.
  kDegreeBalanced,
};

/// Largest gang a Placement may ask for.  Every gang device is a full
/// simulated GPU, so the cap keeps a mistyped size from allocating
/// thousands of them.
inline constexpr uint32_t kMaxGangDevices = 64;

/// \brief Where `core::Run` executes one algorithm (DESIGN.md §2.7,
/// §2.13).  The same request runs in any placement CheckPlacement allows;
/// only the hardware the kernels run on differs.
struct Placement {
  enum class Kind : uint8_t {
    /// The whole graph staged on the caller's device.
    kDevice,
    /// `gang_devices` fresh devices like the caller's (same arch, same
    /// options) over vertex-range shards, joined by `interconnect`.
    kGang,
    /// The caller's device, with vertex-range shards of at most
    /// `slot_bytes` double-buffered through two staging slots.
    kStreamed,
  };
  Kind kind = Kind::kDevice;
  uint32_t gang_devices = 1;
  vgpu::InterconnectConfig interconnect = vgpu::NvlinkPreset();
  PartitionStrategy strategy = PartitionStrategy::kUniform;
  /// Bytes per staging slot; 0 = the ooc default.
  uint64_t slot_bytes = 0;

  static Placement Gang(uint32_t devices,
                        vgpu::InterconnectConfig link = vgpu::NvlinkPreset(),
                        PartitionStrategy strategy =
                            PartitionStrategy::kUniform) {
    return {Kind::kGang, devices, std::move(link), strategy};
  }
  static Placement Streamed(uint64_t slot_bytes = 0) {
    return {.kind = Kind::kStreamed, .slot_bytes = slot_bytes};
  }
};

/// What a gang's interconnect carried (all zero for other placements).
struct ExchangeStats {
  uint32_t rounds = 0;     ///< bulk-synchronous rounds (levels, iterations)
  uint64_t bytes = 0;      ///< peer bytes moved over the interconnect
  double compute_ms = 0;   ///< per-round max-device compute, summed
  double exchange_ms = 0;  ///< modeled interconnect time
};

/// What a stream staged and what the overlap bought, in modeled time (all
/// zero for other placements).
struct StagingStats {
  uint32_t num_shards = 0;     ///< shards in the byte-bounded plan
  uint64_t shards_staged = 0;  ///< staged copies over the whole run
  uint64_t staged_bytes = 0;   ///< host->device bytes streamed
  /// Modeled makespan with staging fully serialized against compute.
  double serialized_ms = 0;
  /// Modeled makespan with the double-buffered copy/compute pipeline:
  /// shard k+1's copy overlaps shard k's compute, bounded by the two slots.
  double overlapped_ms = 0;

  double overlap_speedup() const {
    return overlapped_ms > 0 ? serialized_ms / overlapped_ms : 1.0;
  }
};

}  // namespace adgraph::core

#endif  // ADGRAPH_CORE_PLACEMENT_H_
