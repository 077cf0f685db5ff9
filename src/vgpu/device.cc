#include "vgpu/device.h"

#include <algorithm>

#include "util/logging.h"
#include "vgpu/mem/shared_mem.h"

namespace adgraph::vgpu {

namespace {
constexpr uint32_t kMaxBlockThreads = 1024;
}  // namespace

Device::Device(const ArchConfig& arch) : Device(arch, Options{}) {}

Device::Device(const ArchConfig& arch, Options options)
    : arch_(arch),
      options_(options),
      mem_(static_cast<uint64_t>(static_cast<double>(arch.dram_capacity_bytes) /
                                 std::max(options.memory_scale, 1e-9))) {
  // A hand-built config reaches core::Run without passing the scheduler's
  // or the partitioned engine's check; the timing model divides by its
  // counts and the address math shifts by its geometry.
  ADGRAPH_CHECK_OK(ValidateArchConfig(arch_));
  // memory_scale > 1 shrinks capacity (scaled experiments); < 1 would grow.
  l1_.reserve(arch_.num_sms);
  for (uint32_t i = 0; i < arch_.num_sms; ++i) {
    l1_.push_back(std::make_unique<CacheModel>(
        arch_.l1_size_bytes, arch_.cache_line_bytes, arch_.l1_assoc));
  }
  // Uniform world scaling covers the capacity-sensitive shared cache too:
  // scaled experiments must preserve the (working set : L2) ratio that
  // drives the paper's large-graph crossover (Hypothesis 5).  Per-SM L1s
  // are latency-path resources and stay at hardware size.
  uint64_t l2_size = static_cast<uint64_t>(
      static_cast<double>(arch_.l2_size_bytes) /
      std::max(options.memory_scale, 1e-9));
  l2_ = std::make_unique<CacheModel>(l2_size, arch_.cache_line_bytes,
                                     arch_.l2_assoc);
  trace_track_ = trace::RegisterTrack("device " + arch_.name);
}

void Device::ClearCaches() {
  for (auto& cache : l1_) cache->Clear();
  l2_->Clear();
}

void Device::ResetCounters() {
  elapsed_ms_ = 0;
  transfer_ms_ = 0;
  kernel_log_.clear();
  ClearCaches();
}

Result<KernelStats> Device::Launch(std::string_view name, LaunchDims dims,
                                   const KernelFn& kernel) {
  if (dims.grid == 0 || dims.block == 0) {
    return Status::InvalidArgument("launch with empty grid or block");
  }
  if (dims.block > kMaxBlockThreads) {
    return Status::InvalidArgument("block size " + std::to_string(dims.block) +
                                   " exceeds limit " +
                                   std::to_string(kMaxBlockThreads));
  }
  if (dims.shared_bytes > arch_.smem_bytes_per_sm) {
    return Status::InvalidArgument(
        "requested " + std::to_string(dims.shared_bytes) +
        " shared bytes; " + arch_.name + " provides " +
        std::to_string(arch_.smem_bytes_per_sm) + " per " +
        (arch_.vendor == "NVIDIA" ? "SM" : "CU"));
  }

  trace::Span span(trace_track_, std::string(name), "kernel");

  KernelStats stats;
  stats.kernel_name = std::string(name);
  stats.grid = dims.grid;
  stats.block = dims.block;
  KernelCounters& counters = stats.counters;

  const uint32_t warps_per_block =
      (dims.block + arch_.warp_width - 1) / arch_.warp_width;

  // One shared-memory arena reused by every block of the launch: real
  // shared memory is uninitialized at block start, so carrying bytes over
  // is faithful (and avoids a per-block allocation on the hot path).
  SharedMemory smem(dims.shared_bytes, arch_.smem_banks);
  SharedMemory* smem_ptr = dims.shared_bytes > 0 ? &smem : nullptr;

  // Per-SM issue-work tally for the load-imbalance critical path.
  std::vector<uint64_t> sm_inst(arch_.num_sms, 0);

  // SALU work co-issues on SIMD machines (see timing.cc scalar_weight).
  const double scalar_weight =
      arch_.paradigm == Paradigm::kSimd ? 0.25 : 1.0;
  auto issue_work = [&]() {
    return static_cast<double>(counters.warp_inst_issued) +
           scalar_weight * static_cast<double>(counters.scalar_inst);
  };

  for (uint32_t block = 0; block < dims.grid; ++block) {
    const uint32_t sm = block % arch_.num_sms;
    const double inst_before = issue_work();

    // Build the block's warps.
    std::vector<std::unique_ptr<Ctx>> ctxs;
    std::vector<KernelTask> tasks;
    ctxs.reserve(warps_per_block);
    tasks.reserve(warps_per_block);
    for (uint32_t w = 0; w < warps_per_block; ++w) {
      ctxs.push_back(std::make_unique<Ctx>(
          &arch_, &options_.timing, &mem_, l1_[sm].get(), l2_.get(), smem_ptr,
          &counters, dims.grid, dims.block, block, w));
      tasks.push_back(kernel(*ctxs.back()));
    }
    counters.blocks_launched += 1;
    counters.warps_launched += warps_per_block;

    // Round-robin warp scheduler with barrier handling.
    for (;;) {
      uint32_t done = 0;
      uint32_t waiting = 0;
      for (uint32_t w = 0; w < warps_per_block; ++w) {
        if (tasks[w].done()) {
          ++done;
          continue;
        }
        if (ctxs[w]->at_barrier()) {
          ++waiting;
          continue;
        }
        tasks[w].Resume();
        if (tasks[w].done()) {
          ++done;
        } else if (ctxs[w]->at_barrier()) {
          ++waiting;
        }
      }
      if (done == warps_per_block) break;
      if (waiting == warps_per_block - done) {
        if (done > 0) {
          return Status::Deadlock(
              std::string(name) +
              ": some warps exited while others wait at a barrier");
        }
        // Everyone reached the barrier: release it.
        for (auto& ctx : ctxs) ctx->ClearBarrier();
        counters.barriers += 1;
      }
    }
    sm_inst[sm] += static_cast<uint64_t>(issue_work() - inst_before);
  }

  for (uint64_t inst : sm_inst) {
    stats.max_sm_inst = std::max(stats.max_sm_inst, inst);
  }
  if (dims.work_replication > 1) {
    stats.counters.Scale(dims.work_replication);
    stats.max_sm_inst *= dims.work_replication;
  }
  ComputeKernelTiming(arch_, options_.timing, &stats);
  elapsed_ms_ += stats.time_ms;
  kernel_log_.push_back(stats);
  if (span.active()) {
    // The KernelStats cycle breakdown rides along as span args — the
    // trace view of what Table 6 aggregates post-hoc.
    span.ArgNum("grid", static_cast<uint64_t>(dims.grid));
    span.ArgNum("block", static_cast<uint64_t>(dims.block));
    span.ArgNum("modeled_ms", stats.time_ms);
    span.ArgNum("cycles", stats.cycles);
    span.ArgNum("issue_cycles", stats.issue_cycles);
    span.ArgNum("valu_cycles", stats.valu_cycles);
    span.ArgNum("dram_cycles", stats.dram_cycles);
    span.ArgNum("l2_cycles", stats.l2_cycles);
    span.ArgNum("smem_cycles", stats.smem_cycles);
    span.ArgNum("exposed_latency_cycles", stats.exposed_latency_cycles);
    span.ArgNum("achieved_occupancy", stats.achieved_occupancy);
    span.ArgNum("warp_inst_issued", counters.warp_inst_issued);
    span.ArgNum("l2_hit_rate", counters.l2_hit_rate());
  }
  return stats;
}

}  // namespace adgraph::vgpu
