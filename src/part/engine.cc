#include "part/engine.h"

#include <algorithm>
#include <string>
#include <system_error>
#include <utility>

namespace adgraph::part {

Result<std::unique_ptr<PartitionedEngine>> PartitionedEngine::Create(
    const vgpu::ArchConfig& arch, Options options) {
  if (options.num_devices == 0) {
    return Status::InvalidArgument("partitioned engine needs >= 1 device");
  }
  ADGRAPH_RETURN_NOT_OK(vgpu::ValidateArchConfig(arch));
  ADGRAPH_RETURN_NOT_OK(
      vgpu::ValidateInterconnectConfig(options.interconnect));

  std::vector<std::unique_ptr<vgpu::Device>> devices;
  devices.reserve(options.num_devices);
  for (uint32_t i = 0; i < options.num_devices; ++i) {
    devices.push_back(
        std::make_unique<vgpu::Device>(arch, options.device_options));
  }
  auto interconnect = std::make_unique<vgpu::Interconnect>(
      options.num_devices, options.interconnect);
  return std::unique_ptr<PartitionedEngine>(
      new PartitionedEngine(std::move(devices), std::move(interconnect)));
}

PartitionedEngine::PartitionedEngine(
    std::vector<std::unique_ptr<vgpu::Device>> devices,
    std::unique_ptr<vgpu::Interconnect> interconnect)
    : devices_(std::move(devices)),
      interconnect_(std::move(interconnect)),
      statuses_(devices_.size()),
      exceptions_(devices_.size()) {
  num_threads_ = std::clamp<uint32_t>(std::thread::hardware_concurrency(), 1,
                                      num_devices());
  try {
    for (uint32_t t = 1; t < num_threads_; ++t) {
      helpers_.emplace_back([this, t] { HelperLoop(t); });
    }
  } catch (const std::system_error&) {
    // Out of host threads: the helpers that started share the devices.
    num_threads_ = static_cast<uint32_t>(helpers_.size()) + 1;
  }
}

PartitionedEngine::~PartitionedEngine() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& helper : helpers_) helper.join();
}

Status PartitionedEngine::ForEachDevice(
    const std::function<Status(uint32_t)>& step) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    step_ = &step;
    context_ = trace::CurrentContext();
    pending_ = num_threads_ - 1;
    ++generation_;
  }
  wake_cv_.notify_all();
  RunShare(0);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
  }
  for (uint32_t d = 0; d < num_devices(); ++d) {
    if (exceptions_[d]) std::rethrow_exception(exceptions_[d]);
    if (!statuses_[d].ok()) return statuses_[d];
  }
  return Status::OK();
}

void PartitionedEngine::RunShare(uint32_t t) {
  for (uint32_t d = t; d < num_devices(); d += num_threads_) {
    try {
      statuses_[d] = (*step_)(d);
      exceptions_[d] = nullptr;
    } catch (...) {
      exceptions_[d] = std::current_exception();
    }
  }
}

void PartitionedEngine::HelperLoop(uint32_t t) {
  uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_cv_.wait(lock, [&] { return stopping_ || generation_ != seen; });
    if (stopping_) return;
    seen = generation_;
    lock.unlock();
    {
      trace::ScopedTraceContext scope(context_);
      RunShare(t);
    }
    lock.lock();
    if (--pending_ == 0) done_cv_.notify_one();
  }
}

Status PartitionedEngine::CheckPlan(const PartitionPlan& plan,
                                    graph::vid_t n) const {
  if (plan.num_shards() != num_devices()) {
    return Status::InvalidArgument(
        "partition plan is " + std::to_string(plan.num_shards()) +
        "-way but the engine has " + std::to_string(num_devices()) +
        " devices");
  }
  if (plan.boundaries.back() != n) {
    return Status::InvalidArgument(
        "partition plan does not cover this graph's vertex range");
  }
  return Status::OK();
}

void PartitionedEngine::StartRounds() {
  round_clock_ = ElapsedSnapshot();
  round_bytes_ = interconnect_->total_bytes();
}

double PartitionedEngine::EndRound(const std::string& label,
                                   core::ExchangeStats* stats) {
  double compute = 0;
  for (size_t d = 0; d < devices_.size(); ++d) {
    const double now = devices_[d]->elapsed_ms();
    compute = std::max(compute, now - round_clock_[d]);
    round_clock_[d] = now;
  }
  const double exchange = interconnect_->EndRound(label).modeled_ms;
  stats->rounds += 1;
  stats->bytes = interconnect_->total_bytes() - round_bytes_;
  stats->compute_ms += compute;
  stats->exchange_ms += exchange;
  return compute + exchange;
}

std::vector<double> PartitionedEngine::ElapsedSnapshot() const {
  std::vector<double> out;
  out.reserve(devices_.size());
  for (const auto& d : devices_) out.push_back(d->elapsed_ms());
  return out;
}

}  // namespace adgraph::part
