#include "vgpu/ctx.h"

#include <algorithm>
#include <array>
#include <bit>

#include "vgpu/mem/coalescer.h"

namespace adgraph::vgpu {

void Ctx::AccountBranch(bool divergent) {
  counters_->warp_inst_issued += 1;
  counters_->branches += 1;
  if (divergent) {
    counters_->divergent_branches += 1;
    if (arch_->paradigm == Paradigm::kSimd) {
      // GCN-style exec-mask save / invert / restore on the scalar unit.
      counters_->scalar_inst += params_->simd_mask_scalar_ops;
    }
  }
}

void Ctx::AccumulateLatency(double cycles) {
  if (divergence_depth_ > 0) {
    if (arch_->paradigm == Paradigm::kSimt) {
      // Volta+ independent thread scheduling: stalls of serialized
      // divergent paths overlap (Hypothesis 3's SIMT advantage).
      double saved = cycles * params_->simt_divergent_overlap;
      counters_->simt_overlap_saved_cycles += saved;
      cycles -= saved;
    } else {
      // SIMD wavefronts drain each masked path before reconverging; their
      // divergent-path stalls cannot interleave at all.
      cycles *= 1.0 + params_->simd_divergent_stall;
    }
  }
  counters_->memory_latency_cycles += cycles;
}

void Ctx::AccountGlobal(const Lanes<uint64_t>& addrs, uint32_t access_bytes,
                        bool is_store) {
  counters_->warp_inst_issued += 1;
  CoalesceResult co =
      Coalesce(addrs, active_, access_bytes, arch_->mem_segment_bytes);
  if (is_store) {
    counters_->global_store_inst += 1;
    counters_->global_st_transactions += co.size();
    counters_->global_st_bytes_requested += co.bytes_requested;
    counters_->global_st_bytes_transferred += co.bytes_transferred;
  } else {
    counters_->global_load_inst += 1;
    counters_->global_ld_transactions += co.size();
    counters_->global_ld_bytes_requested += co.bytes_requested;
    counters_->global_ld_bytes_transferred += co.bytes_transferred;
  }

  // Walk the cache hierarchy per transaction; instruction latency is set by
  // the slowest level any of its transactions reached (transactions within
  // one instruction proceed in parallel).
  bool any_l2 = false;
  bool any_dram = false;
  for (uint64_t seg : co) {
    if (l1_->Access(seg)) {
      counters_->l1_hits += 1;
      continue;
    }
    counters_->l1_misses += 1;
    any_l2 = true;
    if (l2_->Access(seg)) {
      counters_->l2_hits += 1;
      continue;
    }
    counters_->l2_misses += 1;
    any_dram = true;
    if (is_store) {
      counters_->dram_write_bytes += arch_->mem_segment_bytes;
    } else {
      counters_->dram_read_bytes += arch_->mem_segment_bytes;
    }
  }
  // Stores drain asynchronously through the write buffer; only loads stall.
  if (!is_store && co.size() > 0) {
    double latency = any_dram  ? arch_->dram_latency_cycles
                     : any_l2 ? arch_->l2_latency_cycles
                               : arch_->l1_latency_cycles;
    AccumulateLatency(latency);
  }
}

void Ctx::AccountAtomic(const Lanes<uint64_t>& addrs, uint32_t access_bytes) {
  counters_->warp_inst_issued += 1;
  counters_->atomic_inst += 1;

  // Atomics resolve at the L2; same-address lanes serialize.  Stack-local
  // sort instead of a map — this is a per-instruction hot path.
  std::array<uint64_t, kMaxWarpWidth> sorted;
  uint32_t n = 0;
  for (LaneMask m = active_; m != 0; m &= m - 1) {
    sorted[n++] = addrs[std::countr_zero(m)];
  }
  std::sort(sorted.begin(), sorted.begin() + n);
  uint32_t distinct = 0;
  uint32_t max_conflict = 0;
  uint32_t run = 0;
  for (uint32_t i = 0; i < n; ++i) {
    if (i == 0 || sorted[i] != sorted[i - 1]) {
      ++distinct;
      run = 1;
      // Segment sizes are powers of two (checked by the Device).
      uint64_t seg = sorted[i] & ~uint64_t{arch_->mem_segment_bytes - 1};
      if (!l2_->Access(seg)) {
        counters_->l2_misses += 1;
        counters_->dram_write_bytes += arch_->mem_segment_bytes;
      } else {
        counters_->l2_hits += 1;
      }
    } else {
      ++run;
    }
    max_conflict = std::max(max_conflict, run);
  }
  counters_->global_st_transactions += distinct;
  counters_->global_st_bytes_requested +=
      static_cast<uint64_t>(n) * access_bytes;
  counters_->global_st_bytes_transferred +=
      static_cast<uint64_t>(distinct) * arch_->mem_segment_bytes;
  double latency =
      arch_->l2_latency_cycles +
      (max_conflict > 1 ? (max_conflict - 1) * params_->atomic_conflict_cycles
                        : 0.0);
  AccumulateLatency(latency);
}

void Ctx::SharedHashInsert(SmemPtr<uint32_t> table, uint32_t capacity,
                           const Lanes<uint32_t>& keys, uint32_t hash_mult,
                           uint32_t empty) {
  ADGRAPH_CHECK(smem_ != nullptr) << "kernel launched without shared memory";
  // Hash computation: one multiply + one modulo per warp.
  CountValu();
  CountValu();
  uint64_t rounds = 0;
  uint64_t lane_rounds = 0;
  ADGRAPH_VGPU_FOR_ACTIVE(i) {
    const uint32_t key = keys[i];
    uint32_t slot = (key * hash_mult) % capacity;
    uint64_t probes = 1;
    for (;;) {
      uint32_t off = table.offset + slot * 4;
      uint32_t current = smem_->Load<uint32_t>(off);
      if (current == empty) {
        smem_->Store<uint32_t>(off, key);
        break;
      }
      if (current == key) break;
      slot = (slot + 1) % capacity;
      ADGRAPH_CHECK(++probes <= capacity) << "hash table full in insert";
    }
    rounds = std::max(rounds, probes);
    lane_rounds += probes;
  }
  // Lockstep accounting matching the explicit DSL loop this op replaces:
  // per probe round one LDS CAS (store class), two compares, the
  // active-mask bookkeeping branch, and the slot add+mod — six issued
  // warp instructions of which five are VALU-class.
  counters_->warp_inst_issued += 6 * rounds;
  counters_->valu_warp_inst += 5 * rounds;
  counters_->shared_store_inst += rounds;
  counters_->smem_accesses += rounds;
  counters_->lane_ops += 3 * lane_rounds;
  counters_->smem_bytes += lane_rounds * 4;
  AccumulateLatency(arch_->smem_latency_cycles * static_cast<double>(rounds));
}

LaneMask Ctx::SharedHashProbe(SmemPtr<uint32_t> table, uint32_t capacity,
                              const Lanes<uint32_t>& keys, uint32_t hash_mult,
                              uint32_t empty) {
  ADGRAPH_CHECK(smem_ != nullptr) << "kernel launched without shared memory";
  CountValu();
  CountValu();
  LaneMask found = 0;
  uint64_t rounds = 0;
  uint64_t lane_rounds = 0;
  ADGRAPH_VGPU_FOR_ACTIVE(i) {
    const uint32_t key = keys[i];
    uint32_t slot = (key * hash_mult) % capacity;
    uint64_t probes = 1;
    for (;;) {
      uint32_t current = smem_->Load<uint32_t>(table.offset + slot * 4);
      if (current == key) {
        found |= 1ull << i;
        break;
      }
      if (current == empty) break;
      slot = (slot + 1) % capacity;
      ADGRAPH_CHECK(++probes <= capacity) << "no empty slot in probe";
    }
    rounds = std::max(rounds, probes);
    lane_rounds += probes;
  }
  // Per round: one LDS load, two compares, loop branch, slot add+mod.
  counters_->warp_inst_issued += 6 * rounds;
  counters_->valu_warp_inst += 5 * rounds;
  counters_->shared_load_inst += rounds;
  counters_->smem_accesses += rounds;
  counters_->lane_ops += 3 * lane_rounds;
  counters_->smem_bytes += lane_rounds * 4;
  AccumulateLatency(arch_->smem_latency_cycles * static_cast<double>(rounds));
  return found;
}

void Ctx::SharedBlockFill(SmemPtr<uint32_t> base, uint32_t count,
                          uint32_t value) {
  ADGRAPH_CHECK(smem_ != nullptr) << "kernel launched without shared memory";
  uint64_t rounds = 0;
  uint64_t lane_stores = 0;
  ADGRAPH_VGPU_FOR_ACTIVE(i) {
    uint64_t mine = 0;
    for (uint32_t idx = warp_in_block_ * width_ + i; idx < count;
         idx += block_dim_) {
      smem_->Store<uint32_t>(base.offset + idx * 4, value);
      ++mine;
    }
    rounds = std::max(rounds, mine);
    lane_stores += mine;
  }
  // Per round: one LDS store + one index-increment VALU, conflict-free
  // (consecutive lanes hit distinct banks).
  counters_->warp_inst_issued += 2 * rounds;
  counters_->valu_warp_inst += rounds;
  counters_->shared_store_inst += rounds;
  counters_->smem_accesses += rounds;
  counters_->lane_ops += lane_stores;
  counters_->smem_bytes += lane_stores * 4;
}

void Ctx::AccountShared(const Lanes<uint64_t>& offsets, uint32_t access_bytes,
                        bool is_store) {
  counters_->warp_inst_issued += 1;
  if (is_store) {
    counters_->shared_store_inst += 1;
  } else {
    counters_->shared_load_inst += 1;
  }
  uint32_t degree = smem_->ConflictDegree(offsets, active_, access_bytes);
  counters_->smem_accesses += 1;
  if (degree > 1) counters_->smem_bank_conflict_extra += degree - 1;
  counters_->smem_bytes +=
      static_cast<uint64_t>(PopCount(active_)) * access_bytes;
  // Loads stall on the shared-memory latency; LDS (independent path) has a
  // higher base latency than NVIDIA's unified design (Hypothesis 4's win).
  if (!is_store) {
    AccumulateLatency(arch_->smem_latency_cycles * degree);
  }
}

}  // namespace adgraph::vgpu
