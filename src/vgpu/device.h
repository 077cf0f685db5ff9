#ifndef ADGRAPH_VGPU_DEVICE_H_
#define ADGRAPH_VGPU_DEVICE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "trace/trace.h"
#include "util/status.h"
#include "vgpu/arch.h"
#include "vgpu/counters.h"
#include "vgpu/ctx.h"
#include "vgpu/kernel.h"
#include "vgpu/mem/address_space.h"
#include "vgpu/mem/cache.h"
#include "vgpu/timing.h"

namespace adgraph::vgpu {

/// Grid shape of one kernel launch (1-D, as all library kernels are 1-D).
struct LaunchDims {
  uint32_t grid = 1;          ///< number of thread blocks
  uint32_t block = 256;       ///< threads per block (multiple of warp width
                              ///< recommended; partial warps are masked)
  uint32_t shared_bytes = 0;  ///< dynamic shared memory / LDS per block
  /// Sampled-simulation extrapolation: the kernel executes 1/N of the work
  /// (the caller's contract) and all event counters are multiplied by N
  /// before timing roll-up.  1 = exact simulation (the default).
  uint32_t work_replication = 1;
};

/// \brief One simulated GPU: an architecture config plus memory, caches and
/// the kernel launch engine.
///
/// Thread-compatibility: a Device is single-threaded (like a CUDA context
/// used from one host thread).  Determinism: given the same sequence of
/// calls, every counter and timing result is bit-identical across runs.
class Device {
 public:
  struct Options {
    /// Divides the paper-scale RAM capacity.  The paper-reproduction
    /// benches scale device memory and dataset sizes by the same factor so
    /// capacity phenomena (ESBV twitter-mpi OOM) are preserved.
    double memory_scale = 1.0;
    TimingParams timing;
  };

  /// Fatal, naming the config and the field, unless `arch` passes
  /// ValidateArchConfig.
  explicit Device(const ArchConfig& arch);
  Device(const ArchConfig& arch, Options options);

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const ArchConfig& arch() const { return arch_; }
  const Options& options() const { return options_; }
  const std::string& name() const { return arch_.name; }

  // ====================== Memory API ====================================

  /// Allocates `count` elements of T in device global memory.
  template <typename T>
  Result<DevPtr<T>> Alloc(uint64_t count) {
    ADGRAPH_ASSIGN_OR_RETURN(uint64_t addr, mem_.Allocate(count * sizeof(T)));
    return DevPtr<T>{addr};
  }

  template <typename T>
  Status Free(DevPtr<T> ptr) {
    return mem_.Free(ptr.addr);
  }

  /// Host-to-device copy (models the PCIe transfer into transfer_ms()).
  template <typename T>
  Status CopyToDevice(DevPtr<T> dst, const T* src, uint64_t count) {
    if (dst.is_null() && count > 0) {
      return Status::InvalidArgument("CopyToDevice to null pointer");
    }
    trace::Span span(trace_track_, "memcpy_h2d", "memcpy");
    mem_.Write(dst.addr, src, count * sizeof(T));
    AccountTransfer(count * sizeof(T));
    span.ArgNum("bytes", count * sizeof(T));
    return Status::OK();
  }

  /// Device-to-host copy.
  template <typename T>
  Status CopyToHost(T* dst, DevPtr<T> src, uint64_t count) {
    if (src.is_null() && count > 0) {
      return Status::InvalidArgument("CopyToHost from null pointer");
    }
    trace::Span span(trace_track_, "memcpy_d2h", "memcpy");
    mem_.Read(src.addr, dst, count * sizeof(T));
    AccountTransfer(count * sizeof(T));
    span.ArgNum("bytes", count * sizeof(T));
    return Status::OK();
  }

  /// Device-to-device copy.
  template <typename T>
  Status CopyDeviceToDevice(DevPtr<T> dst, DevPtr<T> src, uint64_t count) {
    std::vector<uint8_t> tmp(count * sizeof(T));
    mem_.Read(src.addr, tmp.data(), tmp.size());
    mem_.Write(dst.addr, tmp.data(), tmp.size());
    return Status::OK();
  }

  /// Raw device-memory read without PCIe transfer accounting — the leg of
  /// a peer (device-to-device) copy whose bytes are charged to the
  /// Interconnect model by rt::PeerCopy, not to this device's transfer
  /// clock.  Not for host readbacks; use CopyToHost for those.
  template <typename T>
  Status ReadForPeer(T* dst, DevPtr<T> src, uint64_t count) {
    if (src.is_null() && count > 0) {
      return Status::InvalidArgument("ReadForPeer from null pointer");
    }
    mem_.Read(src.addr, dst, count * sizeof(T));
    return Status::OK();
  }

  /// Raw device-memory write without PCIe transfer accounting (the arrival
  /// leg of a peer copy; see ReadForPeer).
  template <typename T>
  Status WriteFromPeer(DevPtr<T> dst, const T* src, uint64_t count) {
    if (dst.is_null() && count > 0) {
      return Status::InvalidArgument("WriteFromPeer to null pointer");
    }
    mem_.Write(dst.addr, src, count * sizeof(T));
    return Status::OK();
  }

  /// Byte-fill (cudaMemset semantics).
  template <typename T>
  Status Memset(DevPtr<T> ptr, uint8_t byte, uint64_t count) {
    mem_.Fill(ptr.addr, byte, count * sizeof(T));
    return Status::OK();
  }

  uint64_t memory_capacity_bytes() const { return mem_.capacity_bytes(); }
  uint64_t memory_used_bytes() const { return mem_.used_bytes(); }
  uint64_t memory_free_bytes() const { return mem_.free_bytes(); }
  uint64_t memory_peak_bytes() const { return mem_.peak_used_bytes(); }

  // ====================== Kernel launch ==================================

  /// A kernel entry point: invoked once per warp to create its coroutine.
  using KernelFn = std::function<KernelTask(Ctx&)>;

  /// Synchronously executes the kernel over the whole grid, returning its
  /// counters and modeled timing.  Fails on barrier deadlock or invalid
  /// launch shapes.  Device time (elapsed_ms) accumulates.
  Result<KernelStats> Launch(std::string_view name, LaunchDims dims,
                             const KernelFn& kernel);

  // ====================== Introspection ==================================

  /// Total modeled kernel time since construction / ResetCounters().
  double elapsed_ms() const { return elapsed_ms_; }

  /// Modeled host<->device transfer time (not part of elapsed_ms; the paper
  /// reports on-device algorithm runtimes).
  double transfer_ms() const { return transfer_ms_; }

  /// Per-launch records in launch order (ground truth for profiling).
  const std::vector<KernelStats>& kernel_log() const { return kernel_log_; }

  /// Empties L1/L2 (fresh-cache experiment conditions between algorithms)
  /// in O(1) per cache.
  void ClearCaches();

  /// The device's timeline in the tracing subsystem (one track per
  /// simulated device — the Figure 7/8 "one row per GPU" view).
  uint64_t trace_track() const { return trace_track_; }

  /// Returns the device to fresh-boot profiling state between jobs: zeroes
  /// the modeled clocks (elapsed_ms, transfer_ms), drops the kernel log,
  /// and empties the caches.  Live allocations are untouched — callers that
  /// reuse a resident graph keep it.  The serving layer calls this between
  /// requests so one job's counters never bleed into the next job's
  /// profile.
  void ResetCounters();

 private:
  void AccountTransfer(uint64_t bytes) {
    constexpr double kPcieGbps = 16.0;
    transfer_ms_ += static_cast<double>(bytes) / (kPcieGbps * 1e6);
  }

  ArchConfig arch_;
  Options options_;
  AddressSpace mem_;
  std::vector<std::unique_ptr<CacheModel>> l1_;  // one per SM
  std::unique_ptr<CacheModel> l2_;
  std::vector<KernelStats> kernel_log_;
  double elapsed_ms_ = 0;
  double transfer_ms_ = 0;
  uint64_t trace_track_ = 0;  ///< registered once at construction
};

}  // namespace adgraph::vgpu

#endif  // ADGRAPH_VGPU_DEVICE_H_
