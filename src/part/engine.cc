#include "part/engine.h"

#include <algorithm>
#include <string>
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
