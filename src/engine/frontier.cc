#include "engine/frontier.h"

#include <string>

#include "core/device_graph.h"
#include "vgpu/ctx.h"
#include "vgpu/kernel.h"

namespace adgraph::engine {
namespace {

using graph::vid_t;
using vgpu::Ctx;
using vgpu::DevPtr;
using vgpu::KernelTask;

/// Scatters queue entries into the flag array.
KernelTask QueueToFlagsKernel(Ctx& c, DevPtr<vid_t> queue,
                              DevPtr<uint32_t> flags, uint32_t size) {
  auto i = c.GlobalThreadId();
  c.If(c.Lt(i, size), [&](Ctx& c) {
    auto v = c.Load(queue, i);
    c.Store(flags, v, c.Splat<uint32_t>(1));
  });
  co_return;
}

KernelTask IotaQueueKernel(Ctx& c, DevPtr<vid_t> queue, uint32_t n) {
  auto v = c.GlobalThreadId();
  c.If(c.Lt(v, n), [&](Ctx& c) { c.Store(queue, v, v); });
  co_return;
}

}  // namespace

Result<Frontier> Frontier::Create(vgpu::Device* device, vid_t n) {
  if (n == 0) return Status::InvalidArgument("frontier over empty vertex set");
  Frontier f;
  f.device_ = device;
  f.n_ = n;
  ADGRAPH_ASSIGN_OR_RETURN(f.queue_, rt::DeviceBuffer<vid_t>::Create(device, n));
  ADGRAPH_ASSIGN_OR_RETURN(f.flags_,
                           rt::DeviceBuffer<uint32_t>::Create(device, n));
  ADGRAPH_ASSIGN_OR_RETURN(f.count_,
                           rt::DeviceBuffer<uint32_t>::Create(device, 1));
  return f;
}

Status Frontier::InitSource(vid_t source, uint32_t block_size) {
  if (device_ == nullptr) {
    return Status::FailedPrecondition("frontier not created");
  }
  if (source >= n_) {
    return Status::InvalidArgument("frontier source " + std::to_string(source) +
                                   " out of range");
  }
  ADGRAPH_RETURN_NOT_OK(Clear(block_size));
  ADGRAPH_RETURN_NOT_OK(
      core::primitives::SetElement<vid_t>(device_, queue_.ptr(), 0, source));
  ADGRAPH_RETURN_NOT_OK(
      core::primitives::SetElement<uint32_t>(device_, flags_.ptr(), source, 1));
  ADGRAPH_RETURN_NOT_OK(
      core::primitives::SetElement<uint32_t>(device_, count_.ptr(), 0, 1));
  size_ = 1;
  rep_ = Rep::kSparse;
  return Status::OK();
}

Status Frontier::InitAllVertices(uint32_t block_size) {
  if (device_ == nullptr) {
    return Status::FailedPrecondition("frontier not created");
  }
  ADGRAPH_RETURN_NOT_OK(
      core::primitives::Fill<uint32_t>(device_, flags_.ptr(), n_, 1));
  const uint32_t n = n_;
  auto queue = queue_.ptr();
  ADGRAPH_RETURN_NOT_OK(
      device_
          ->Launch("frontier_iota", rt::CoverThreads(n, block_size),
                   [&](Ctx& c) { return IotaQueueKernel(c, queue, n); })
          .status());
  ADGRAPH_RETURN_NOT_OK(
      core::primitives::SetElement<uint32_t>(device_, count_.ptr(), 0, n_));
  size_ = n_;
  rep_ = Rep::kDense;
  return Status::OK();
}

Status Frontier::InitFromHost(std::span<const vid_t> seeds,
                              uint32_t block_size) {
  if (device_ == nullptr) {
    return Status::FailedPrecondition("frontier not created");
  }
  for (vid_t v : seeds) {
    if (v >= n_) {
      return Status::InvalidArgument("frontier seed " + std::to_string(v) +
                                     " out of range");
    }
  }
  ADGRAPH_RETURN_NOT_OK(Clear(block_size));
  if (seeds.empty()) return Status::OK();
  const uint32_t size = static_cast<uint32_t>(seeds.size());
  ADGRAPH_RETURN_NOT_OK(queue_.Upload(seeds.data(), size));
  auto queue = queue_.ptr();
  auto flags = flags_.ptr();
  ADGRAPH_RETURN_NOT_OK(
      device_
          ->Launch("frontier_seed_scatter", rt::CoverThreads(size, block_size),
                   [&](Ctx& c) {
                     return QueueToFlagsKernel(c, queue, flags, size);
                   })
          .status());
  ADGRAPH_RETURN_NOT_OK(
      core::primitives::SetElement<uint32_t>(device_, count_.ptr(), 0, size));
  size_ = size;
  rep_ = Rep::kSparse;
  return Status::OK();
}

Status Frontier::Clear(uint32_t block_size) {
  (void)block_size;
  if (device_ == nullptr) {
    return Status::FailedPrecondition("frontier not created");
  }
  ADGRAPH_RETURN_NOT_OK(
      core::primitives::Fill<uint32_t>(device_, flags_.ptr(), n_, 0));
  ADGRAPH_RETURN_NOT_OK(
      core::primitives::SetElement<uint32_t>(device_, count_.ptr(), 0, 0));
  size_ = 0;
  rep_ = Rep::kSparse;
  return Status::OK();
}

Status Frontier::RefreshCount() {
  if (device_ == nullptr) {
    return Status::FailedPrecondition("frontier not created");
  }
  ADGRAPH_ASSIGN_OR_RETURN(
      size_, core::primitives::GetElement<uint32_t>(device_, count_.ptr(), 0));
  return Status::OK();
}

}  // namespace adgraph::engine
