#include "vgpu/mem/address_space.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <string>

namespace adgraph::vgpu {

AddressSpace::AddressSpace(uint64_t capacity_bytes) : capacity_(capacity_bytes) {}

AddressSpace::~AddressSpace() {
  if (base_ != nullptr) munmap(base_, mapped_);
}

bool AddressSpace::EnsureBacking(uint64_t end) {
  if (mapped_ >= end) return true;
  // Grow in 4 MiB steps to keep the number of remaps small; the step
  // costs only address space until a page is touched.
  uint64_t target = std::max<uint64_t>(end, mapped_ + (4ull << 20));
  target = std::min<uint64_t>(target, capacity_ + kAllocAlignment);
  target = std::max(end, target);
  static const uint64_t page = static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
  target = (target + page - 1) / page * page;
  void* grown = base_ == nullptr
                    ? mmap(nullptr, target, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)
                    : mremap(base_, mapped_, target, MREMAP_MAYMOVE);
  if (grown == MAP_FAILED) return false;
  base_ = static_cast<uint8_t*>(grown);
  mapped_ = target;
  return true;
}

void AddressSpace::CheckBacked(uint64_t addr, uint64_t bytes) const {
  ADGRAPH_CHECK(addr + bytes >= addr && addr + bytes <= mapped_)
      << "device access out of bounds: addr=" << addr << " bytes=" << bytes;
}

Result<uint64_t> AddressSpace::Allocate(uint64_t bytes) {
  const uint64_t size = AllocatedBytes(bytes);
  if (used_ + size > capacity_) {
    return Status::OutOfMemory(
        "device allocation of " + std::to_string(bytes) + " bytes exceeds " +
        std::to_string(capacity_) + "-byte capacity (" +
        std::to_string(used_) + " in use)");
  }
  // First fit over the free list, else bump allocation.  The bump pointer
  // can pass `capacity_` when the free list is fragmented, but `used_`
  // still enforces the real budget; backing memory is what we actually
  // touch.
  auto hole = std::find_if(free_.begin(), free_.end(), [size](const auto& b) {
    return b.second >= size;
  });
  const uint64_t addr = hole != free_.end() ? hole->first : bump_;
  if (!EnsureBacking(addr + size)) {
    return Status::OutOfMemory("host refused to back device allocation of " +
                               std::to_string(bytes) + " bytes at address " +
                               std::to_string(addr));
  }
  if (hole != free_.end()) {
    const uint64_t remaining = hole->second - size;
    free_.erase(hole);
    if (remaining > 0) free_[addr + size] = remaining;
  } else {
    bump_ += size;
  }
  live_[addr] = Block{size};
  used_ += size;
  peak_used_ = std::max(peak_used_, used_);
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
  CheckBacked(addr, bytes);
  std::memcpy(out, base_ + addr, bytes);
}

void AddressSpace::Write(uint64_t addr, const void* data, uint64_t bytes) {
  if (bytes == 0) return;  // e.g. uploading an empty shard's CSR (null data())
  CheckBacked(addr, bytes);
  std::memcpy(base_ + addr, data, bytes);
}

void AddressSpace::Fill(uint64_t addr, uint8_t value, uint64_t bytes) {
  if (bytes == 0) return;  // no mapping may exist yet
  CheckBacked(addr, bytes);
  std::memset(base_ + addr, value, bytes);
}

}  // namespace adgraph::vgpu
