#include "vgpu/mem/address_space.h"

#include <algorithm>
#include <string>

namespace adgraph::vgpu {

AddressSpace::AddressSpace(uint64_t capacity_bytes) : capacity_(capacity_bytes) {}

void AddressSpace::EnsureBacking(uint64_t end) {
  if (backing_.size() < end) {
    // Grow in 4 MiB steps to avoid repeated reallocation.
    uint64_t target = std::max<uint64_t>(end, backing_.size() + (4ull << 20));
    target = std::min<uint64_t>(target, capacity_ + kAllocAlignment);
    backing_.resize(std::max(end, target));
  }
}

Result<uint64_t> AddressSpace::Allocate(uint64_t bytes) {
  const uint64_t size = AllocatedBytes(bytes);
  if (used_ + size > capacity_) {
    return Status::OutOfMemory(
        "device allocation of " + std::to_string(bytes) + " bytes exceeds " +
        std::to_string(capacity_) + "-byte capacity (" +
        std::to_string(used_) + " in use)");
  }
  // First-fit over the free list.
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    if (it->second >= size) {
      uint64_t addr = it->first;
      uint64_t remaining = it->second - size;
      free_.erase(it);
      if (remaining > 0) free_[addr + size] = remaining;
      live_[addr] = Block{size};
      used_ += size;
      peak_used_ = std::max(peak_used_, used_);
      EnsureBacking(addr + size);
      return addr;
    }
  }
  // Bump allocation.  The bump pointer can pass `capacity_` when the free
  // list is fragmented, but `used_` still enforces the real budget; backing
  // memory is what we actually touch.
  uint64_t addr = bump_;
  bump_ += size;
  live_[addr] = Block{size};
  used_ += size;
  peak_used_ = std::max(peak_used_, used_);
  EnsureBacking(addr + size);
  return addr;
}

Status AddressSpace::Free(uint64_t addr) {
  if (addr == 0) return Status::OK();
  auto it = live_.find(addr);
  if (it == live_.end()) {
    return Status::InvalidArgument("free of unknown device address " +
                                   std::to_string(addr));
  }
  uint64_t size = it->second.size;
  live_.erase(it);
  used_ -= size;
  // Insert into the free list, coalescing with neighbors.
  auto [pos, inserted] = free_.emplace(addr, size);
  ADGRAPH_CHECK(inserted);
  if (pos != free_.begin()) {
    auto prev = std::prev(pos);
    if (prev->first + prev->second == pos->first) {
      prev->second += pos->second;
      free_.erase(pos);
      pos = prev;
    }
  }
  auto next = std::next(pos);
  if (next != free_.end() && pos->first + pos->second == next->first) {
    pos->second += next->second;
    free_.erase(next);
  }
  return Status::OK();
}

void AddressSpace::Read(uint64_t addr, void* out, uint64_t bytes) const {
  if (bytes == 0) return;  // memcpy with a null `out` is UB even for 0 bytes
  ADGRAPH_CHECK(addr + bytes <= backing_.size())
      << "device read out of bounds: addr=" << addr << " bytes=" << bytes;
  std::memcpy(out, backing_.data() + addr, bytes);
}

void AddressSpace::Write(uint64_t addr, const void* data, uint64_t bytes) {
  if (bytes == 0) return;  // e.g. uploading an empty shard's CSR (null data())
  EnsureBacking(addr + bytes);
  std::memcpy(backing_.data() + addr, data, bytes);
}

void AddressSpace::Fill(uint64_t addr, uint8_t value, uint64_t bytes) {
  EnsureBacking(addr + bytes);
  std::memset(backing_.data() + addr, value, bytes);
}

}  // namespace adgraph::vgpu
