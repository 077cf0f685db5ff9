#ifndef ADGRAPH_RUNTIME_RUNTIME_H_
#define ADGRAPH_RUNTIME_RUNTIME_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"
#include "vgpu/device.h"

namespace adgraph::rt {

/// The software platform a simulated device presents (paper Figure 3).
/// Purely a naming/metrics concern: the same library code runs on both,
/// which is the porting premise of adGRAPH.
enum class Platform { kCuda, kRocmLike };

/// CUDA for NVIDIA configs, ROCm-like for AMD-like configs.
Platform PlatformOf(const vgpu::Device& device);

/// Human-readable platform name ("CUDA" / "ROCm-like").
std::string PlatformName(Platform platform);

/// Library name the paper associates with each platform: running this code
/// base on a CUDA device *is* nvGRAPH; on a ROCm-like device it *is*
/// adGRAPH (one source tree, two platforms — see DESIGN.md §2.2).
std::string LibraryNameOn(Platform platform);

/// \brief RAII typed device allocation (the HIP/CUDA `hipMalloc` +
/// `hipFree` pair with a C++ face).
///
/// Move-only.  The device must outlive the buffer.
template <typename T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;

  /// Allocates `count` elements (uninitialized device memory).
  static Result<DeviceBuffer> Create(vgpu::Device* device, uint64_t count) {
    ADGRAPH_ASSIGN_OR_RETURN(vgpu::DevPtr<T> ptr, device->Alloc<T>(count));
    return DeviceBuffer(device, ptr, count);
  }

  /// Allocates and fills with zero bytes.
  static Result<DeviceBuffer> CreateZeroed(vgpu::Device* device,
                                           uint64_t count) {
    ADGRAPH_ASSIGN_OR_RETURN(DeviceBuffer buf, Create(device, count));
    ADGRAPH_RETURN_NOT_OK(buf.FillBytes(0));
    return buf;
  }

  /// Allocates and uploads `host`.
  static Result<DeviceBuffer> FromHost(vgpu::Device* device,
                                       const std::vector<T>& host) {
    ADGRAPH_ASSIGN_OR_RETURN(DeviceBuffer buf, Create(device, host.size()));
    ADGRAPH_RETURN_NOT_OK(buf.Upload(host.data(), host.size()));
    return buf;
  }

  DeviceBuffer(DeviceBuffer&& other) noexcept
      : device_(std::exchange(other.device_, nullptr)),
        ptr_(std::exchange(other.ptr_, {})),
        count_(std::exchange(other.count_, 0)) {}
  DeviceBuffer& operator=(DeviceBuffer&& other) noexcept {
    if (this != &other) {
      Release();
      device_ = std::exchange(other.device_, nullptr);
      ptr_ = std::exchange(other.ptr_, {});
      count_ = std::exchange(other.count_, 0);
    }
    return *this;
  }
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;
  ~DeviceBuffer() { Release(); }

  vgpu::DevPtr<T> ptr() const { return ptr_; }
  uint64_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  Status Upload(const T* src, uint64_t count, uint64_t dst_offset = 0) {
    if (dst_offset + count > count_) {
      return Status::OutOfRange("Upload beyond buffer size");
    }
    return device_->CopyToDevice(ptr_ + dst_offset, src, count);
  }

  Status Download(T* dst, uint64_t count, uint64_t src_offset = 0) const {
    if (src_offset + count > count_) {
      return Status::OutOfRange("Download beyond buffer size");
    }
    return device_->CopyToHost(dst, ptr_ + src_offset, count);
  }

  Result<std::vector<T>> ToHost() const {
    std::vector<T> out(count_);
    ADGRAPH_RETURN_NOT_OK(Download(out.data(), count_));
    return out;
  }

  Status FillBytes(uint8_t byte) {
    return device_->Memset(ptr_, byte, count_);
  }

 private:
  DeviceBuffer(vgpu::Device* device, vgpu::DevPtr<T> ptr, uint64_t count)
      : device_(device), ptr_(ptr), count_(count) {}

  void Release() {
    if (device_ != nullptr && !ptr_.is_null()) {
      // Free of a live allocation cannot fail; ignore the status.
      (void)device_->Free(ptr_);
    }
    device_ = nullptr;
    ptr_ = {};
    count_ = 0;
  }

  vgpu::Device* device_ = nullptr;
  vgpu::DevPtr<T> ptr_;
  uint64_t count_ = 0;
};

/// \brief Scoped device-time interval (the cudaEvent elapsed-time idiom):
/// captures Device::elapsed_ms at construction; ElapsedMs() is the modeled
/// device time spent since.
class DeviceTimer {
 public:
  explicit DeviceTimer(const vgpu::Device* device)
      : device_(device), start_ms_(device->elapsed_ms()) {}

  double ElapsedMs() const { return device_->elapsed_ms() - start_ms_; }

 private:
  const vgpu::Device* device_;
  double start_ms_;
};

/// Threads per block of every launch that does not pick its own size.
inline constexpr uint32_t kDefaultBlockSize = 256;

/// Computes a 1-D launch covering `threads` total threads with the given
/// block size (grid = ceil-div).
vgpu::LaunchDims CoverThreads(uint64_t threads,
                              uint32_t block_size = kDefaultBlockSize,
                              uint32_t shared_bytes = 0);

}  // namespace adgraph::rt

#endif  // ADGRAPH_RUNTIME_RUNTIME_H_
