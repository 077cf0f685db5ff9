#ifndef ADGRAPH_VGPU_MEM_ADDRESS_SPACE_H_
#define ADGRAPH_VGPU_MEM_ADDRESS_SPACE_H_

#include <cstdint>
#include <cstring>
#include <map>
#include <vector>

#include "util/logging.h"
#include "util/status.h"

namespace adgraph::vgpu {

/// \brief Typed pointer into a simulated device's global address space.
///
/// `addr` is a byte offset; address 0 is reserved as the null pointer (the
/// allocator never hands it out).  DevPtr is meaningful only together with
/// the Device that produced it.
template <typename T>
struct DevPtr {
  uint64_t addr = 0;

  bool is_null() const { return addr == 0; }

  /// Pointer arithmetic in units of T.
  DevPtr operator+(uint64_t n) const { return DevPtr{addr + n * sizeof(T)}; }

  /// Reinterprets the pointee type (byte offset unchanged).
  template <typename U>
  DevPtr<U> Cast() const {
    return DevPtr<U>{addr};
  }
};

/// Granularity of every device allocation.
inline constexpr uint64_t kAllocAlignment = 256;

/// Device bytes an allocation of `bytes` occupies: the request rounded up
/// to kAllocAlignment, zero-byte requests included.  Working-set estimates
/// count each buffer through this so they bound the allocator's peak.
constexpr uint64_t AllocatedBytes(uint64_t bytes) {
  return ((bytes == 0 ? 1 : bytes) + kAllocAlignment - 1) &
         ~(kAllocAlignment - 1);
}

/// \brief Simulated device global memory: backing store plus a first-fit
/// free-list allocator with capacity accounting.
///
/// Capacity enforcement is what reproduces the paper's ESBV/twitter-mpi OOM
/// rows: allocations beyond the (scaled) Table 3 RAM volume fail with
/// StatusCode::kOutOfMemory.
class AddressSpace {
 public:
  /// `capacity_bytes` is the enforced device RAM volume.  Backing host
  /// memory grows lazily up to that size.
  explicit AddressSpace(uint64_t capacity_bytes);

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  /// Allocates `bytes` (256-byte aligned).  Zero-byte requests allocate one
  /// alignment unit so every allocation has a unique address.
  Result<uint64_t> Allocate(uint64_t bytes);

  /// Frees a previous allocation.  Freeing address 0 is a no-op; freeing an
  /// unknown address is a programmer error.
  Status Free(uint64_t addr);

  uint64_t capacity_bytes() const { return capacity_; }
  uint64_t used_bytes() const { return used_; }
  /// Bytes still allocatable.  The allocator enforces only the used-bytes
  /// budget (the bump pointer may pass capacity), so free bytes fully
  /// determine whether an allocation of that size can succeed.
  uint64_t free_bytes() const { return capacity_ - used_; }
  uint64_t peak_used_bytes() const { return peak_used_; }
  size_t num_allocations() const { return live_.size(); }

  /// Raw byte access used by kernels and memcpy.  Addresses must lie inside
  /// a live allocation region (checked in debug builds).
  void Read(uint64_t addr, void* out, uint64_t bytes) const;
  void Write(uint64_t addr, const void* data, uint64_t bytes);
  void Fill(uint64_t addr, uint8_t value, uint64_t bytes);

  /// Typed single-element accessors for kernel lane operations.
  template <typename T>
  T Load(uint64_t addr) const {
    ADGRAPH_DCHECK(addr + sizeof(T) <= backing_.size());
    T value;
    std::memcpy(&value, backing_.data() + addr, sizeof(T));
    return value;
  }
  template <typename T>
  void Store(uint64_t addr, T value) {
    ADGRAPH_DCHECK(addr + sizeof(T) <= backing_.size());
    std::memcpy(backing_.data() + addr, &value, sizeof(T));
  }

 private:
  struct Block {
    uint64_t size;
  };

  void EnsureBacking(uint64_t end);

  uint64_t capacity_;
  uint64_t used_ = 0;
  uint64_t peak_used_ = 0;
  uint64_t bump_ = 256;  // address 0..255 reserved (null page)
  std::map<uint64_t, Block> live_;  // addr -> block
  std::map<uint64_t, uint64_t> free_;  // addr -> size, coalesced
  std::vector<uint8_t> backing_;
};

}  // namespace adgraph::vgpu

#endif  // ADGRAPH_VGPU_MEM_ADDRESS_SPACE_H_
