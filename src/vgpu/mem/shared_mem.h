#ifndef ADGRAPH_VGPU_MEM_SHARED_MEM_H_
#define ADGRAPH_VGPU_MEM_SHARED_MEM_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "util/logging.h"
#include "vgpu/lanes.h"

namespace adgraph::vgpu {

/// \brief Typed offset into a block's shared memory (NVIDIA "shared
/// memory" / AMD "LDS").  Offsets are bytes from the start of the block's
/// allocation; kernels lay out their shared arrays manually, as CUDA/HIP
/// kernels with `extern __shared__` do.
template <typename T>
struct SmemPtr {
  uint32_t offset = 0;
  SmemPtr operator+(uint32_t n) const {
    return SmemPtr{offset + n * static_cast<uint32_t>(sizeof(T))};
  }
  template <typename U>
  SmemPtr<U> Cast() const {
    return SmemPtr<U>{offset};
  }
};

/// \brief One thread block's shared memory / LDS: a byte buffer plus the
/// bank-conflict model.
///
/// Bank conflicts: shared memory is organized in `num_banks` 4-byte banks;
/// a warp-level access that maps two active lanes to different words of the
/// same bank serializes into multiple passes (the returned conflict degree).
class SharedMemory {
 public:
  SharedMemory(uint32_t size_bytes, uint32_t num_banks);

  uint32_t size_bytes() const { return static_cast<uint32_t>(data_.size()); }

  template <typename T>
  T Load(uint32_t offset) const {
    ADGRAPH_DCHECK(offset + sizeof(T) <= data_.size());
    T value;
    std::memcpy(&value, data_.data() + offset, sizeof(T));
    return value;
  }
  template <typename T>
  void Store(uint32_t offset, T value) {
    ADGRAPH_DCHECK(offset + sizeof(T) <= data_.size());
    std::memcpy(data_.data() + offset, &value, sizeof(T));
  }

  /// Stores `value` into the `n` consecutive T elements from `offset`.
  template <typename T>
  void StoreRun(uint32_t offset, T value, uint32_t n) {
    ADGRAPH_DCHECK(offset + uint64_t{n} * sizeof(T) <= data_.size());
    uint8_t* out = data_.data() + offset;
    for (uint32_t k = 0; k < n; ++k) {
      std::memcpy(out + k * sizeof(T), &value, sizeof(T));
    }
  }

  void Fill(uint8_t value) { std::fill(data_.begin(), data_.end(), value); }

  /// Number of serialized passes needed for one warp access with the given
  /// per-lane byte offsets (>= 1; 1 means conflict-free).  Lanes that hit
  /// the same word broadcast and do not conflict.
  uint32_t ConflictDegree(const Lanes<uint64_t>& offsets, LaneMask active,
                          uint32_t access_bytes) const;

 private:
  uint32_t num_banks_;
  std::vector<uint8_t> data_;
};

}  // namespace adgraph::vgpu

#endif  // ADGRAPH_VGPU_MEM_SHARED_MEM_H_
