#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/api.h"
#include "core/host_ref.h"
#include "engine/algorithms.h"
#include "graph/datasets.h"
#include "graph/delta.h"
#include "part/engine.h"
#include "part/part_bfs.h"
#include "part/part_pagerank.h"
#include "part/partition.h"
#include "vgpu/arch.h"
#include "vgpu/device.h"

namespace adgraph {
namespace {

using graph::CsrGraph;
using graph::vid_t;
using vgpu::Device;

/// Shrink factor for the bundled paper proxies: keeps the full 7-dataset
/// sweep inside unit-test time.
constexpr double kGoldenDivisor = 32.0;

/// L1 distance allowed between device and host_ref PageRank: the two sum
/// each vertex's in-contributions in different orders.
constexpr double kPageRankL1Tolerance = 1e-9;

/// 64-bit FNV-1a over the byte image of everything fed to it.
class Digest {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) hash_ = (hash_ ^ p[i]) * 0x100000001b3ull;
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }
  void Str(std::string_view s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  template <typename T>
  void Vec(const std::vector<T>& v) {
    U64(v.size());
    Bytes(v.data(), v.size() * sizeof(T));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

// Result digests: every output array plus the scalar results and the
// iteration counters.

uint64_t ResultDigest(const core::BfsResult& r) {
  Digest d;
  d.Vec(r.levels);
  d.Vec(r.parents);
  d.U64(r.depth);
  d.U64(r.vertices_visited);
  d.U64(r.top_down_iterations);
  d.U64(r.bottom_up_iterations);
  return d.value();
}

uint64_t ResultDigest(const core::SsspResult& r) {
  Digest d;
  d.Vec(r.distances);
  d.U64(r.rounds);
  return d.value();
}

uint64_t ResultDigest(const core::PageRankResult& r) {
  Digest d;
  d.Vec(r.ranks);
  d.U64(r.iterations);
  d.F64(r.l1_delta);
  return d.value();
}

uint64_t ResultDigest(const core::CcResult& r) {
  Digest d;
  d.Vec(r.labels);
  d.U64(r.num_components);
  d.U64(r.iterations);
  return d.value();
}

uint64_t ResultDigest(const core::WidestPathResult& r) {
  Digest d;
  d.Vec(r.widths);
  d.U64(r.rounds);
  return d.value();
}

uint64_t ResultDigest(const core::BcResult& r) {
  Digest d;
  d.Vec(r.centrality);
  d.Vec(r.sigma);
  d.U64(r.depth);
  return d.value();
}

uint64_t ResultDigest(const core::TcResult& r) {
  Digest d;
  d.U64(r.triangles);
  d.U64(r.oriented_edges);
  d.U64(r.sampled);
  return d.value();
}

uint64_t ResultDigest(const core::EsbvResult& r) {
  Digest d;
  d.U64(r.subgraph.num_vertices());
  d.Vec(r.subgraph.row_offsets());
  d.Vec(r.subgraph.col_indices());
  d.Vec(r.subgraph.weights());
  d.U64(r.subgraph_vertices);
  d.U64(r.subgraph_edges);
  return d.value();
}

uint64_t ResultDigest(const core::KCoreResult& r) {
  Digest d;
  d.Vec(r.in_core);
  d.U64(r.core_size);
  d.U64(r.peel_rounds);
  return d.value();
}

uint64_t ResultDigest(const core::ColoringResult& r) {
  Digest d;
  d.Vec(r.colors);
  d.U64(r.num_colors);
  d.U64(r.rounds);
  return d.value();
}

uint64_t ResultDigest(const core::JaccardResult& r) {
  Digest d;
  d.Vec(r.coefficients);
  return d.value();
}

/// The run's modeled time, then every kernel `dev` launched, in launch
/// order: name, launch shape, every event counter and its modeled time.
/// Each golden run owns a fresh device (or, in the reused-device rows,
/// follows a ResetCounters), so the log is exactly the run's.
uint64_t ModeledDigest(double time_ms, const Device& dev) {
  Digest d;
  d.F64(time_ms);
  for (const vgpu::KernelStats& k : dev.kernel_log()) {
    const vgpu::KernelCounters& c = k.counters;
    d.Str(k.kernel_name);
    for (uint64_t v :
         {uint64_t{k.grid}, uint64_t{k.block}, c.warp_inst_issued,
          c.valu_warp_inst, c.lane_ops, c.scalar_inst, c.shared_load_inst,
          c.shared_store_inst, c.global_load_inst, c.global_store_inst,
          c.atomic_inst, c.branches, c.divergent_branches, c.barriers,
          c.global_ld_transactions, c.global_st_transactions,
          c.global_ld_bytes_requested, c.global_ld_bytes_transferred,
          c.global_st_bytes_requested, c.global_st_bytes_transferred,
          c.l1_hits, c.l1_misses, c.l2_hits, c.l2_misses, c.dram_read_bytes,
          c.dram_write_bytes, c.smem_accesses, c.smem_bank_conflict_extra,
          c.smem_bytes, c.peer_bytes_sent, c.peer_bytes_received,
          c.peer_exchanges, c.loop_lane_iters_possible,
          c.loop_lane_iters_useful, c.blocks_launched, c.warps_launched}) {
      d.U64(v);
    }
    d.F64(c.memory_latency_cycles);
    d.F64(c.simt_overlap_saved_cycles);
    d.F64(k.time_ms);
  }
  return d.value();
}

/// The modeled side of a gang run: the payload's time and the exchange
/// statistics, then, per gang device in device order, its kernel log and
/// both of its clocks.
uint64_t GangDigest(double time_ms, const core::ExchangeStats& exchange,
                    part::PartitionedEngine& engine) {
  Digest d;
  d.F64(time_ms);
  d.U64(exchange.rounds);
  d.U64(exchange.bytes);
  d.F64(exchange.compute_ms);
  d.F64(exchange.exchange_ms);
  for (uint32_t i = 0; i < engine.num_devices(); ++i) {
    const Device& dev = *engine.device(i);
    d.U64(ModeledDigest(dev.elapsed_ms(), dev));
    d.F64(dev.transfer_ms());
  }
  return d.value();
}

/// One frozen golden row: a case on one proxy and one GPU.
struct Frozen {
  std::string_view dataset;
  std::string_view arch;
  std::string_view kase;
  uint64_t result;
  uint64_t modeled;
};

// The BFS and PageRank rows are the digests of the runs Tables 5/6 were
// built from; the other rows freeze the served path (core::Run, and
// core::Run with a WarmStart for the warm start) and, in the `-warp` rows,
// the engine drivers under warp-per-vertex gather.  The TC, ESBV, k-core,
// coloring, Jaccard and `reused-` rows pin the simulator's heaviest kernels
// and a device reset between jobs.  The `-gangN` rows freeze the
// partitioned drivers, every gang device's kernel log and clocks included
// (GangDigest).  Any change to a row is a change to modeled output and must
// be named as one.  A mismatch prints the actual
// row in this format.
constexpr Frozen kFrozen[] = {
  {"web-Stanford", "A100", "bfs-parents", 0xce35d9b0d8634c25, 0x4bd055064c5c35bb},
  {"web-Stanford", "Z100L", "bfs-parents", 0x5231b4f38b5e5c63, 0xedd151669c496a96},
  {"web-Google", "A100", "bfs-parents", 0x2606fbbfa32332b3, 0x25e1e9d454cf72c9},
  {"web-Google", "Z100L", "bfs-parents", 0x188a8f21d1fccb69, 0x55b8b0292fe5c1ce},
  {"cit-Patents", "A100", "bfs-parents", 0x60bd1779f9a5e8f5, 0x46f3546cfc80212c},
  {"cit-Patents", "Z100L", "bfs-parents", 0x975d8194d9ffc2ba, 0xfad6de6cc61b8294},
  {"soc-liveJournal1", "A100", "bfs-parents", 0x0960686906a95143, 0xa30bdc199c870818},
  {"soc-liveJournal1", "Z100L", "bfs-parents", 0x2402176180eaaec6, 0x56c5f7ec326ef7cc},
  {"soc-sinaweibo", "A100", "bfs-parents", 0xe913226bca05ea38, 0xf31b0f4993f1409a},
  {"soc-sinaweibo", "Z100L", "bfs-parents", 0x6bae733e348cad08, 0x0d00175fbae6dc21},
  {"web-uk-2002-all", "A100", "bfs-parents", 0x550b4772f83689dd, 0x6df2b53b30296741},
  {"web-uk-2002-all", "Z100L", "bfs-parents", 0x9cecf685f32201c4, 0xcef25f62f28bbd1c},
  {"twitter-mpi", "A100", "bfs-parents", 0xef52c6661b439075, 0x8485a73b34fb6ad6},
  {"twitter-mpi", "Z100L", "bfs-parents", 0xb0dfe5aea193d91d, 0x0171a4752b457026},
  {"web-Stanford", "A100", "bfs-sym", 0x3ec19dde1b7dd26d, 0x67896fe1b81d1a35},
  {"web-Stanford", "Z100L", "bfs-sym", 0x3ec19dde1b7dd26d, 0x233272201f4f79fd},
  {"web-Google", "A100", "bfs-sym", 0x8bc4bcf3b4d6b669, 0x3e329136b1fce171},
  {"web-Google", "Z100L", "bfs-sym", 0x8bc4bcf3b4d6b669, 0x0ae8a9e3949a57c0},
  {"cit-Patents", "A100", "bfs-sym", 0x4491e3bd19a2be37, 0x38d6d5ce671e59d8},
  {"cit-Patents", "Z100L", "bfs-sym", 0x4491e3bd19a2be37, 0x720739baba0f2960},
  {"soc-liveJournal1", "A100", "bfs-sym", 0x70017eb1731e27d3, 0xf76696eeb9ee38ec},
  {"soc-liveJournal1", "Z100L", "bfs-sym", 0x70017eb1731e27d3, 0x150bde29c8586780},
  {"soc-sinaweibo", "A100", "bfs-sym", 0xa9bd03ac9c51653e, 0x96abb61974ade02a},
  {"soc-sinaweibo", "Z100L", "bfs-sym", 0xa9bd03ac9c51653e, 0x852830fe98cae127},
  {"web-uk-2002-all", "A100", "bfs-sym", 0x87686127823c6f14, 0xb2c939d6c50ea563},
  {"web-uk-2002-all", "Z100L", "bfs-sym", 0x87686127823c6f14, 0xc8bdb466ba9fda2c},
  {"twitter-mpi", "A100", "bfs-sym", 0xeba96bdec0cb48d9, 0x9bb6ee1ddc940830},
  {"twitter-mpi", "Z100L", "bfs-sym", 0xeba96bdec0cb48d9, 0x39b3383d65d6faf4},
  {"web-Stanford", "A100", "sssp", 0x0d3eee734fdf8e5b, 0x177716247b2ba5a0},
  {"web-Stanford", "Z100L", "sssp", 0x0d3eee734fdf8e5b, 0x447dfba9effe767c},
  {"web-Google", "A100", "sssp", 0x4744dfb40588b392, 0xb9d237e322c0f9f8},
  {"web-Google", "Z100L", "sssp", 0x4744dfb40588b392, 0xda1642f5e4c487ad},
  {"cit-Patents", "A100", "sssp", 0x0f7c7a0d7d7e6426, 0xc2adaadada2aa4d7},
  {"cit-Patents", "Z100L", "sssp", 0x0f7c7a0d7d7e6426, 0x022374afc3187846},
  {"soc-liveJournal1", "A100", "sssp", 0x8a59b7373655958f, 0x603617c90b34d029},
  {"soc-liveJournal1", "Z100L", "sssp", 0x8a59b7373655958f, 0x9a64694259ff6de1},
  {"soc-sinaweibo", "A100", "sssp", 0xa2bfb7f8a8ec10e8, 0xffe399e1d898861c},
  {"soc-sinaweibo", "Z100L", "sssp", 0xa2bfb7f8a8ec10e8, 0x7e658ad588fa22dc},
  {"web-uk-2002-all", "A100", "sssp", 0x9c0f3dabd25a1d39, 0xbb0a32c006f0b2db},
  {"web-uk-2002-all", "Z100L", "sssp", 0x9c0f3dabd25a1d39, 0xf9398ff9c12a52b3},
  {"twitter-mpi", "A100", "sssp", 0x270699f22e2a0dd6, 0x47a88fc7f4ee1297},
  {"twitter-mpi", "Z100L", "sssp", 0x270699f22e2a0dd6, 0x404bb6d6cded0783},
  {"web-Stanford", "A100", "pagerank", 0xa41e9b4c3ad581ca, 0xbb39473fcd4f6777},
  {"web-Stanford", "Z100L", "pagerank", 0xe9189557085d832f, 0xe13f29dcceace0db},
  {"web-Google", "A100", "pagerank", 0xdf35cb13f7095a49, 0x16d9263f2e562147},
  {"web-Google", "Z100L", "pagerank", 0x65ce8ff81b9959cf, 0xf6ab6ec8a67bb2e6},
  {"cit-Patents", "A100", "pagerank", 0x33c4e7aecbca1e50, 0x19050bf88614c63d},
  {"cit-Patents", "Z100L", "pagerank", 0x48baf53c013055b7, 0xe8159d94e6eacca0},
  {"soc-liveJournal1", "A100", "pagerank", 0x677f1d70c0754d99, 0xefd98c1dc27f6008},
  {"soc-liveJournal1", "Z100L", "pagerank", 0x677f1d70c0754d99, 0x950bb2087a0bd3c4},
  {"soc-sinaweibo", "A100", "pagerank", 0x249b020beda7b9e7, 0x91381bf284e20da7},
  {"soc-sinaweibo", "Z100L", "pagerank", 0x44c43853b0564d03, 0xe61b12877c26dbd1},
  {"web-uk-2002-all", "A100", "pagerank", 0x5d7a23fae995a21c, 0x529aed82edd4a0ba},
  {"web-uk-2002-all", "Z100L", "pagerank", 0x50ca4035275595d3, 0x4f9559de1c771ed7},
  {"twitter-mpi", "A100", "pagerank", 0x91a0272d5530ec8e, 0x471d4c3dc400e056},
  {"twitter-mpi", "Z100L", "pagerank", 0x652d0e519920f9f0, 0x2f2c734e42826629},
  {"web-Stanford", "A100", "cc", 0xe101fe3a9a5dcc67, 0x2833862ee3bd0d53},
  {"web-Stanford", "Z100L", "cc", 0xe101fe3a9a5dcc67, 0xc25f740be742f3e2},
  {"web-Google", "A100", "cc", 0x80f732e6421b9335, 0x5bf3f55697c65868},
  {"web-Google", "Z100L", "cc", 0x80f732e6421b9335, 0x19c994833fbc48e6},
  {"cit-Patents", "A100", "cc", 0x72d4d0e2f242c8f8, 0x16fede3f77605d28},
  {"cit-Patents", "Z100L", "cc", 0x72d4d0e2f242c8f8, 0x8d5f0040effe357a},
  {"soc-liveJournal1", "A100", "cc", 0x4c620a51408adc4f, 0x94ff2e22c48732e6},
  {"soc-liveJournal1", "Z100L", "cc", 0x4c620a51408adc4f, 0xb52bbba598c31d4d},
  {"soc-sinaweibo", "A100", "cc", 0xab10d934f9a304b8, 0x32cd974bcd3e60a8},
  {"soc-sinaweibo", "Z100L", "cc", 0xab10d934f9a304b8, 0x3e3336075583ee83},
  {"web-uk-2002-all", "A100", "cc", 0x1b1c785550875f97, 0x36a3204134a40659},
  {"web-uk-2002-all", "Z100L", "cc", 0x1b1c785550875f97, 0x2ee7ce477d3977ff},
  {"twitter-mpi", "A100", "cc", 0xf4d9350438240ad7, 0xc3fc7ccdcce6df40},
  {"twitter-mpi", "Z100L", "cc", 0xf4d9350438240ad7, 0x224ef550a2d1b50a},
  {"web-Stanford", "A100", "widest", 0xf648335396394d1f, 0xbb138fa1e313a779},
  {"web-Stanford", "Z100L", "widest", 0xf648335396394d1f, 0xff9375fef38b2c5d},
  {"web-Google", "A100", "widest", 0x7cbf9fd2c86ac8e4, 0x9281ae9d9ae8b21d},
  {"web-Google", "Z100L", "widest", 0x7cbf9fd2c86ac8e4, 0xb1964b2b7810e113},
  {"cit-Patents", "A100", "widest", 0x576455e42a051ed5, 0x2d5b361d4cbb31e7},
  {"cit-Patents", "Z100L", "widest", 0xf24a391160b1917a, 0x7cb70c0095e2f9d4},
  {"soc-liveJournal1", "A100", "widest", 0x49650a0c9faddf74, 0xed7a1754e72c366c},
  {"soc-liveJournal1", "Z100L", "widest", 0x49650a0c9faddf74, 0xc74a80318854df65},
  {"soc-sinaweibo", "A100", "widest", 0x3a2f0630d15b3159, 0x0427142c8b8bcd78},
  {"soc-sinaweibo", "Z100L", "widest", 0x3a2f0630d15b3159, 0x1630f4e0b4be64f1},
  {"web-uk-2002-all", "A100", "widest", 0x1b62d6594cb2bd3c, 0xe6f901e8031a7ce2},
  {"web-uk-2002-all", "Z100L", "widest", 0x1b62d6594cb2bd3c, 0x172e308b342cbf27},
  {"twitter-mpi", "A100", "widest", 0x5694f31c1dac9aba, 0x4a58b23954f5c66d},
  {"twitter-mpi", "Z100L", "widest", 0x5694f31c1dac9aba, 0x7eeec8efe0ee6e52},
  {"web-Stanford", "A100", "pagerank-warm", 0xe38b5c6242d97297, 0x43861605488576ab},
  {"web-Stanford", "Z100L", "pagerank-warm", 0xb71df4408f6c321c, 0x7430d54d8cdef313},
  {"web-Google", "A100", "pagerank-warm", 0x7b24d02b7106d813, 0xd4471778ba71f0b7},
  {"web-Google", "Z100L", "pagerank-warm", 0xad19463868659382, 0xb309225ff2b7db4a},
  {"cit-Patents", "A100", "pagerank-warm", 0xe0a185926fda9fdf, 0xa70fb8c661e6289d},
  {"cit-Patents", "Z100L", "pagerank-warm", 0x800b35fca08ef339, 0x9f6d3623f838c46c},
  {"soc-liveJournal1", "A100", "pagerank-warm", 0x42448e876ac0e69d, 0x4dcc7d45524d59b2},
  {"soc-liveJournal1", "Z100L", "pagerank-warm", 0x42448e876ac0e69d, 0xa6f26f887c014e83},
  {"soc-sinaweibo", "A100", "pagerank-warm", 0xd67bfed3ef55c924, 0x2efb55297b94eea9},
  {"soc-sinaweibo", "Z100L", "pagerank-warm", 0x1480cbf959e88ae8, 0x7471af9b0ad2433e},
  {"web-uk-2002-all", "A100", "pagerank-warm", 0x7542e3d9d7ff31ba, 0x00edaa007c4d3307},
  {"web-uk-2002-all", "Z100L", "pagerank-warm", 0x7542e3d9d7ff31ba, 0xa5ce9d16a0dfc2e4},
  {"twitter-mpi", "A100", "pagerank-warm", 0x814419d739eb2de3, 0x9d4fb5ae1eb640a8},
  {"twitter-mpi", "Z100L", "pagerank-warm", 0x0232e4b906679fac, 0xa947bb7d4d6bba3e},
  {"web-Stanford", "A100", "sssp-warp", 0x0d3eee734fdf8e5b, 0x1f6615c8d1dd38bf},
  {"web-Stanford", "Z100L", "sssp-warp", 0x0d3eee734fdf8e5b, 0x5c3a89dca955901f},
  {"web-Google", "A100", "sssp-warp", 0x4744dfb40588b392, 0x4e5ee833e5ec2bf3},
  {"web-Google", "Z100L", "sssp-warp", 0x4744dfb40588b392, 0x430d46da541d69d1},
  {"cit-Patents", "A100", "sssp-warp", 0x0f7c7a0d7d7e6426, 0x0d634a05dcdc4844},
  {"cit-Patents", "Z100L", "sssp-warp", 0x0f7c7a0d7d7e6426, 0x9e753e40fb786a5a},
  {"soc-liveJournal1", "A100", "sssp-warp", 0x8a59b7373655958f, 0xe6780ecac5097287},
  {"soc-liveJournal1", "Z100L", "sssp-warp", 0x8a59b7373655958f, 0x1a12d44835002dc2},
  {"soc-sinaweibo", "A100", "sssp-warp", 0xa2bfb7f8a8ec10e8, 0x5646b298885e29e9},
  {"soc-sinaweibo", "Z100L", "sssp-warp", 0xa2bfb7f8a8ec10e8, 0x2dce8a1e7d75e1f2},
  {"web-uk-2002-all", "A100", "sssp-warp", 0x9c0f3dabd25a1d39, 0x1abf41ddf9cb4bca},
  {"web-uk-2002-all", "Z100L", "sssp-warp", 0x9c0f3dabd25a1d39, 0x1c1c8576a2a463c4},
  {"twitter-mpi", "A100", "sssp-warp", 0x270699f22e2a0dd6, 0x93fc9ac0a4a659cf},
  {"twitter-mpi", "Z100L", "sssp-warp", 0x270699f22e2a0dd6, 0x837efa630ae5d39e},
  {"web-Stanford", "A100", "cc-warp", 0xe101fe3a9a5dcc67, 0x4410d5e23467d022},
  {"web-Stanford", "Z100L", "cc-warp", 0xe101fe3a9a5dcc67, 0x02eebda8cdf78a35},
  {"web-Google", "A100", "cc-warp", 0x80f732e6421b9335, 0x76a84108869d5e76},
  {"web-Google", "Z100L", "cc-warp", 0x80f732e6421b9335, 0xc3aa01f9270c9a87},
  {"cit-Patents", "A100", "cc-warp", 0x72d4d0e2f242c8f8, 0x3ca62b7c4b93f4f7},
  {"cit-Patents", "Z100L", "cc-warp", 0x72d4d0e2f242c8f8, 0x7cb19376b575d366},
  {"soc-liveJournal1", "A100", "cc-warp", 0x4c620a51408adc4f, 0xdefbece3b0b6f195},
  {"soc-liveJournal1", "Z100L", "cc-warp", 0x4c620a51408adc4f, 0xb8de670428e8466b},
  {"soc-sinaweibo", "A100", "cc-warp", 0xab10d934f9a304b8, 0xa17e2f6d921f62f1},
  {"soc-sinaweibo", "Z100L", "cc-warp", 0xab10d934f9a304b8, 0x9bc6bfdb1b508b1a},
  {"web-uk-2002-all", "A100", "cc-warp", 0x1b1c785550875f97, 0x244ce0b6110e0100},
  {"web-uk-2002-all", "Z100L", "cc-warp", 0x1b1c785550875f97, 0xd40ef37c13f4a35e},
  {"twitter-mpi", "A100", "cc-warp", 0xf4d9350438240ad7, 0xf1fe882461d770ff},
  {"twitter-mpi", "Z100L", "cc-warp", 0xf4d9350438240ad7, 0x35b27f8e4363f2cc},
  {"web-Stanford", "A100", "widest-warp", 0xf648335396394d1f, 0xa441b1b3badd129d},
  {"web-Stanford", "Z100L", "widest-warp", 0xf648335396394d1f, 0x3e42f03885a6ae03},
  {"web-Google", "A100", "widest-warp", 0x7cbf9fd2c86ac8e4, 0x3ceba1b8f39cc5b2},
  {"web-Google", "Z100L", "widest-warp", 0x7cbf9fd2c86ac8e4, 0x441ae979ef4c1902},
  {"cit-Patents", "A100", "widest-warp", 0xf24a391160b1917a, 0x7eeadbe95359af6f},
  {"cit-Patents", "Z100L", "widest-warp", 0xf24a391160b1917a, 0x62cfd7ba553f56f3},
  {"soc-liveJournal1", "A100", "widest-warp", 0x49650a0c9faddf74, 0x4382cb50b7128bb8},
  {"soc-liveJournal1", "Z100L", "widest-warp", 0x49650a0c9faddf74, 0x5086a32763b81f11},
  {"soc-sinaweibo", "A100", "widest-warp", 0x3a2f0630d15b3159, 0x7a3e24bf0086b702},
  {"soc-sinaweibo", "Z100L", "widest-warp", 0x3a2f0630d15b3159, 0x7b8f967d7df63203},
  {"web-uk-2002-all", "A100", "widest-warp", 0x1b62d6594cb2bd3c, 0xd2608dee1886f2cf},
  {"web-uk-2002-all", "Z100L", "widest-warp", 0x1b62d6594cb2bd3c, 0x9663a8138d206ef9},
  {"twitter-mpi", "A100", "widest-warp", 0x5694f31c1dac9aba, 0x68e9e3865e59fa66},
  {"twitter-mpi", "Z100L", "widest-warp", 0x5694f31c1dac9aba, 0x106e97e238739684},
  {"web-Stanford", "A100", "bc", 0xd93c1ef60458ab40, 0x485360aca60c97bb},
  {"web-Stanford", "Z100L", "bc", 0xd93c1ef60458ab40, 0x65f016a9fa1daaa8},
  {"web-Google", "A100", "bc", 0x39aa7ccb4b4b4b19, 0xfa222243e624e9c4},
  {"web-Google", "Z100L", "bc", 0x39aa7ccb4b4b4b19, 0x4c5afda794b0c9cf},
  {"cit-Patents", "A100", "bc", 0x885d092576ca9ef8, 0xb02977cf84f3d948},
  {"cit-Patents", "Z100L", "bc", 0x885d092576ca9ef8, 0x015c88fc05dd0e4c},
  {"soc-liveJournal1", "A100", "bc", 0xdb6641790517bf42, 0xcd3a5056e1d45deb},
  {"soc-liveJournal1", "Z100L", "bc", 0xdb6641790517bf42, 0x89809b09dc2f3481},
  {"soc-sinaweibo", "A100", "bc", 0x530135f87e9178fd, 0x7149cbd92eaa4c42},
  {"soc-sinaweibo", "Z100L", "bc", 0x530135f87e9178fd, 0x4079a971797c1ee9},
  {"web-uk-2002-all", "A100", "bc", 0x6549c1843c95a499, 0x2a2d189ce4daf6d8},
  {"web-uk-2002-all", "Z100L", "bc", 0x6549c1843c95a499, 0xcc7c1700df90cb16},
  {"twitter-mpi", "A100", "bc", 0x09322c1f4c239ada, 0xe05e7ba26042f155},
  {"twitter-mpi", "Z100L", "bc", 0x09322c1f4c239ada, 0xa07b1043598371d8},
  {"web-Stanford", "A100", "bc-warp", 0xd93c1ef60458ab40, 0xf4e6db9abf56f290},
  {"web-Stanford", "Z100L", "bc-warp", 0xd93c1ef60458ab40, 0x0d05f3aeb350509c},
  {"web-Google", "A100", "bc-warp", 0x39aa7ccb4b4b4b19, 0x4ccca95a3f970bc7},
  {"web-Google", "Z100L", "bc-warp", 0x39aa7ccb4b4b4b19, 0xf18dabc1ac19a2de},
  {"cit-Patents", "A100", "bc-warp", 0x885d092576ca9ef8, 0xa7bf211266d0e0f5},
  {"cit-Patents", "Z100L", "bc-warp", 0x885d092576ca9ef8, 0x98d7a54ddda00567},
  {"soc-liveJournal1", "A100", "bc-warp", 0xdb6641790517bf42, 0x8708abcc2b5b8392},
  {"soc-liveJournal1", "Z100L", "bc-warp", 0xdb6641790517bf42, 0x5cecb743976ccf45},
  {"soc-sinaweibo", "A100", "bc-warp", 0x530135f87e9178fd, 0x6941bf68b3bd4784},
  {"soc-sinaweibo", "Z100L", "bc-warp", 0x530135f87e9178fd, 0xa256024ed743859c},
  {"web-uk-2002-all", "A100", "bc-warp", 0x6549c1843c95a499, 0x5a2c70ab7a0cb176},
  {"web-uk-2002-all", "Z100L", "bc-warp", 0x6549c1843c95a499, 0x465cbed70627b188},
  {"twitter-mpi", "A100", "bc-warp", 0x09322c1f4c239ada, 0x165de0edcaa94ffb},
  {"twitter-mpi", "Z100L", "bc-warp", 0x09322c1f4c239ada, 0x55bacf304d4f9e76},
  {"web-Google", "A100", "tc-unoriented", 0x1cd5a3e62fbe6247, 0x6ebf393e6e2b4b48},
  {"web-Google", "Z100L", "tc-unoriented", 0x1cd5a3e62fbe6247, 0x692880b1d8b28400},
  {"web-Google", "A100", "tc-oriented", 0xdbf7110ba839f3d5, 0x2295e575ff8d607b},
  {"web-Google", "Z100L", "tc-oriented", 0xdbf7110ba839f3d5, 0x053c68f881a67798},
  {"cit-Patents", "A100", "tc-unoriented", 0x4ecdcf5954cbe306, 0x38005c6a04f5dd56},
  {"cit-Patents", "Z100L", "tc-unoriented", 0x4ecdcf5954cbe306, 0x1c4a1ae7d9c66604},
  {"cit-Patents", "A100", "tc-oriented", 0x46f6c04b24bed808, 0x18d679071394f009},
  {"cit-Patents", "Z100L", "tc-oriented", 0x46f6c04b24bed808, 0x37537f0c3deadd40},
  {"soc-liveJournal1", "A100", "tc-unoriented", 0x00d3b78d87020f0e, 0x8f39084d3ea77842},
  {"soc-liveJournal1", "Z100L", "tc-unoriented", 0x00d3b78d87020f0e, 0x83180cc5e96a61bc},
  {"soc-liveJournal1", "A100", "tc-oriented", 0x4d4d9da9576f3709, 0x320e349bb6ee9204},
  {"soc-liveJournal1", "Z100L", "tc-oriented", 0x4d4d9da9576f3709, 0xcd142d16b9c5f635},
  {"web-Google", "A100", "esbv", 0xbdd14991b5907b7d, 0x0382396b1c9723a5},
  {"web-Google", "Z100L", "esbv", 0x3e02518be5fc4975, 0x538897bd726c17c5},
  {"cit-Patents", "A100", "esbv", 0x6de66dbf7eba49b1, 0x85a60c36b629c063},
  {"cit-Patents", "Z100L", "esbv", 0xcd1d7923aca42885, 0x7e07dec7b33b7a98},
  {"soc-liveJournal1", "A100", "esbv", 0xcdb6b13064a9d5f4, 0xb8af2f1a80e490a5},
  {"soc-liveJournal1", "Z100L", "esbv", 0x6f6673fdbe6e53bc, 0xe72f8ee95f7a01b6},
  {"web-Google", "A100", "kcore", 0xc13012e98244b60e, 0x62e9b285581a8223},
  {"web-Google", "Z100L", "kcore", 0xc13012e98244b60e, 0xdc21184541d38ec7},
  {"web-Google", "A100", "coloring", 0x293cec3893c5558d, 0x55af2229ada45773},
  {"web-Google", "Z100L", "coloring", 0x293cec3893c5558d, 0x0b543f20461416aa},
  {"web-Google", "A100", "jaccard", 0xc07eb5d647b010f8, 0xe1ba8ac901a5f5c9},
  {"web-Google", "Z100L", "jaccard", 0xc07eb5d647b010f8, 0x1a0579c4886728df},
  {"cit-Patents", "A100", "kcore", 0x07c6c3dde55f2de4, 0x699dcae158002b13},
  {"cit-Patents", "Z100L", "kcore", 0x07c6c3dde55f2de4, 0xfa607c54ad5d363c},
  {"cit-Patents", "A100", "coloring", 0xa89cfd06004ce27a, 0x0cc4d72d0967405b},
  {"cit-Patents", "Z100L", "coloring", 0xa89cfd06004ce27a, 0xb65c58a8daa8db7a},
  {"cit-Patents", "A100", "jaccard", 0x7b375bfc9b22bb24, 0xa8bf885b512f22a6},
  {"cit-Patents", "Z100L", "jaccard", 0x7b375bfc9b22bb24, 0x827cd3a090cad6ee},
  {"soc-liveJournal1", "A100", "kcore", 0x74d385d310f23e2c, 0x58b03b4407e054fa},
  {"soc-liveJournal1", "Z100L", "kcore", 0x74d385d310f23e2c, 0xe85a260478b32d9b},
  {"soc-liveJournal1", "A100", "coloring", 0x371e747b7ca2ca27, 0x33b64052f967d2b0},
  {"soc-liveJournal1", "Z100L", "coloring", 0xda2e1f605bd4ebc4, 0x3611b5d0b60b7637},
  {"soc-liveJournal1", "A100", "jaccard", 0xc03d69208769a1d4, 0x64b56263b1d7d431},
  {"soc-liveJournal1", "Z100L", "jaccard", 0xc03d69208769a1d4, 0xb462849b109a3e5a},
  {"web-Google", "A100", "reused-tc", 0x1cd5a3e62fbe6247, 0x6ebf393e6e2b4b48},
  {"web-Google", "A100", "reused-esbv", 0xbdd14991b5907b7d, 0x9ee8f1a2df7c9219},
  {"web-Google", "A100", "reused-bfs", 0x8bc4bcf3b4d6b669, 0x3e329136b1fce171},
  {"web-Google", "A100", "reused-pagerank", 0xdf35cb13f7095a49, 0x16d9263f2e562147},
  {"web-Google", "Z100L", "reused-tc", 0x1cd5a3e62fbe6247, 0x692880b1d8b28400},
  {"web-Google", "Z100L", "reused-esbv", 0x3e02518be5fc4975, 0x29b209957c40c38e},
  {"web-Google", "Z100L", "reused-bfs", 0x8bc4bcf3b4d6b669, 0x0ae8a9e3949a57c0},
  {"web-Google", "Z100L", "reused-pagerank", 0x65ce8ff81b9959cf, 0xf6ab6ec8a67bb2e6},  {"web-Stanford", "A100", "bfs-gang2", 0x682667769ff6a348, 0xae788d6b85a02d82},
  {"web-Stanford", "A100", "bfs-gang2-degree", 0x682667769ff6a348, 0x2f02bf3d21245cfb},
  {"web-Stanford", "A100", "bfs-gang4", 0x682667769ff6a348, 0xf6dc31abf2c37363},
  {"web-Stanford", "A100", "bfs-gang4-degree", 0x682667769ff6a348, 0x2724c1e75c5eb063},
  {"web-Stanford", "A100", "bfs-gang8", 0x682667769ff6a348, 0xd5ab6fe59a5e6deb},
  {"web-Stanford", "A100", "bfs-gang8-degree", 0x682667769ff6a348, 0x15529cd0a0a36bcf},
  {"web-Stanford", "Z100L", "bfs-gang2", 0x682667769ff6a348, 0xec31cc57f0ec1daf},
  {"web-Stanford", "Z100L", "bfs-gang2-degree", 0x682667769ff6a348, 0xa9f065c2d97ab9c2},
  {"web-Stanford", "Z100L", "bfs-gang4", 0x682667769ff6a348, 0x8d0e6d293f3e0a7d},
  {"web-Stanford", "Z100L", "bfs-gang4-degree", 0x682667769ff6a348, 0x306b6b091e6793e2},
  {"web-Stanford", "Z100L", "bfs-gang8", 0x682667769ff6a348, 0xa69bcfb7b1ab0bbc},
  {"web-Stanford", "Z100L", "bfs-gang8-degree", 0x682667769ff6a348, 0xfb264f79428d853b},
  {"web-Google", "A100", "bfs-gang2", 0x6cd67cd1237289d8, 0xe3ec879e5eb25c72},
  {"web-Google", "A100", "bfs-gang2-degree", 0x6cd67cd1237289d8, 0xf03b55a8c08551e7},
  {"web-Google", "A100", "bfs-gang4", 0x6cd67cd1237289d8, 0x9fa4a90a079b085b},
  {"web-Google", "A100", "bfs-gang4-degree", 0x6cd67cd1237289d8, 0xe1d2cdd38b57e2a4},
  {"web-Google", "A100", "bfs-gang8", 0x6cd67cd1237289d8, 0x049b6f8f7a5a700c},
  {"web-Google", "A100", "bfs-gang8-degree", 0x6cd67cd1237289d8, 0x4f435d13aaa4ab9b},
  {"web-Google", "Z100L", "bfs-gang2", 0x6cd67cd1237289d8, 0x6b14ae9697f964f1},
  {"web-Google", "Z100L", "bfs-gang2-degree", 0x6cd67cd1237289d8, 0xa8c9e12624c93cf9},
  {"web-Google", "Z100L", "bfs-gang4", 0x6cd67cd1237289d8, 0xd398950049295ca4},
  {"web-Google", "Z100L", "bfs-gang4-degree", 0x6cd67cd1237289d8, 0x1f1b1cbae42ad100},
  {"web-Google", "Z100L", "bfs-gang8", 0x6cd67cd1237289d8, 0x288f4db584f7ad3f},
  {"web-Google", "Z100L", "bfs-gang8-degree", 0x6cd67cd1237289d8, 0xef9b132107d35128},
  {"cit-Patents", "A100", "bfs-gang2", 0x061fda1240b06637, 0xcf02d2f6e7913da1},
  {"cit-Patents", "A100", "bfs-gang2-degree", 0x061fda1240b06637, 0xb8b79e7d2a0d93fe},
  {"cit-Patents", "A100", "bfs-gang4", 0x061fda1240b06637, 0x32708c6d65e0b64f},
  {"cit-Patents", "A100", "bfs-gang4-degree", 0x061fda1240b06637, 0x437b6943431be92e},
  {"cit-Patents", "A100", "bfs-gang8", 0x061fda1240b06637, 0xb41a571acfc23859},
  {"cit-Patents", "A100", "bfs-gang8-degree", 0x061fda1240b06637, 0xe6a73ce31ddfec3d},
  {"cit-Patents", "Z100L", "bfs-gang2", 0x061fda1240b06637, 0x53ff0c2b462d292e},
  {"cit-Patents", "Z100L", "bfs-gang2-degree", 0x061fda1240b06637, 0xf61f21bed25fef86},
  {"cit-Patents", "Z100L", "bfs-gang4", 0x061fda1240b06637, 0x7df78b4cab557184},
  {"cit-Patents", "Z100L", "bfs-gang4-degree", 0x061fda1240b06637, 0x7d3e82fad33182fd},
  {"cit-Patents", "Z100L", "bfs-gang8", 0x061fda1240b06637, 0x4fc66856111ef60e},
  {"cit-Patents", "Z100L", "bfs-gang8-degree", 0x061fda1240b06637, 0x8cde2b379b54cbd9},
  {"soc-liveJournal1", "A100", "bfs-gang2", 0xb091817b4cdfaf85, 0xa8dfb05c033e7aaa},
  {"soc-liveJournal1", "A100", "bfs-gang2-degree", 0xb091817b4cdfaf85, 0x61c3a2f9eee00bf4},
  {"soc-liveJournal1", "A100", "bfs-gang4", 0xb091817b4cdfaf85, 0xfec0ff40fc7a4201},
  {"soc-liveJournal1", "A100", "bfs-gang4-degree", 0xb091817b4cdfaf85, 0xcbb1f0c71750e598},
  {"soc-liveJournal1", "A100", "bfs-gang8", 0xb091817b4cdfaf85, 0xbd416f9a055987ec},
  {"soc-liveJournal1", "A100", "bfs-gang8-degree", 0xb091817b4cdfaf85, 0x28b495ae6c4db1d5},
  {"soc-liveJournal1", "Z100L", "bfs-gang2", 0xb091817b4cdfaf85, 0x634bc3edc747bf78},
  {"soc-liveJournal1", "Z100L", "bfs-gang2-degree", 0xb091817b4cdfaf85, 0xddf0ec2d8b1738fd},
  {"soc-liveJournal1", "Z100L", "bfs-gang4", 0xb091817b4cdfaf85, 0x1f579c181bebf08c},
  {"soc-liveJournal1", "Z100L", "bfs-gang4-degree", 0xb091817b4cdfaf85, 0xd22726d4b0e897b8},
  {"soc-liveJournal1", "Z100L", "bfs-gang8", 0xb091817b4cdfaf85, 0x59fb84312a1af9d1},
  {"soc-liveJournal1", "Z100L", "bfs-gang8-degree", 0xb091817b4cdfaf85, 0x3efb866b2579c44a},
  {"soc-sinaweibo", "A100", "bfs-gang2", 0xea5f629da26d1bca, 0xd7f353c57865d3cd},
  {"soc-sinaweibo", "A100", "bfs-gang2-degree", 0xea5f629da26d1bca, 0x6e4299bb81dee54f},
  {"soc-sinaweibo", "A100", "bfs-gang4", 0xea5f629da26d1bca, 0xc4333593beedad55},
  {"soc-sinaweibo", "A100", "bfs-gang4-degree", 0xea5f629da26d1bca, 0xdd022e1e9e87bcf8},
  {"soc-sinaweibo", "A100", "bfs-gang8", 0xea5f629da26d1bca, 0x7994544ab0cb1f48},
  {"soc-sinaweibo", "A100", "bfs-gang8-degree", 0xea5f629da26d1bca, 0x37582f7165997b60},
  {"soc-sinaweibo", "Z100L", "bfs-gang2", 0xea5f629da26d1bca, 0xcb2e7b87fad31180},
  {"soc-sinaweibo", "Z100L", "bfs-gang2-degree", 0xea5f629da26d1bca, 0x861469daa7a5093c},
  {"soc-sinaweibo", "Z100L", "bfs-gang4", 0xea5f629da26d1bca, 0xb9cd3e2a32dbc90a},
  {"soc-sinaweibo", "Z100L", "bfs-gang4-degree", 0xea5f629da26d1bca, 0xd1a3122ba33e9e88},
  {"soc-sinaweibo", "Z100L", "bfs-gang8", 0xea5f629da26d1bca, 0xb91ce32ab29f2c0f},
  {"soc-sinaweibo", "Z100L", "bfs-gang8-degree", 0xea5f629da26d1bca, 0x278e6772147cc397},
  {"web-uk-2002-all", "A100", "bfs-gang2", 0xb0d83ffc8bb50993, 0x8bd5a74f4aeb8729},
  {"web-uk-2002-all", "A100", "bfs-gang2-degree", 0xb0d83ffc8bb50993, 0x1d103b36927d0d4d},
  {"web-uk-2002-all", "A100", "bfs-gang4", 0xb0d83ffc8bb50993, 0x820efdc226d8c6a3},
  {"web-uk-2002-all", "A100", "bfs-gang4-degree", 0xb0d83ffc8bb50993, 0x29dafd81ecc3a241},
  {"web-uk-2002-all", "A100", "bfs-gang8", 0xb0d83ffc8bb50993, 0x7edfb500b4838987},
  {"web-uk-2002-all", "A100", "bfs-gang8-degree", 0xb0d83ffc8bb50993, 0x08702b58ec3f02fc},
  {"web-uk-2002-all", "Z100L", "bfs-gang2", 0xb0d83ffc8bb50993, 0xfccec717922315e4},
  {"web-uk-2002-all", "Z100L", "bfs-gang2-degree", 0xb0d83ffc8bb50993, 0x387dbae12a370728},
  {"web-uk-2002-all", "Z100L", "bfs-gang4", 0xb0d83ffc8bb50993, 0x08e3a0b0d09720c9},
  {"web-uk-2002-all", "Z100L", "bfs-gang4-degree", 0xb0d83ffc8bb50993, 0x086aec8f4f43443c},
  {"web-uk-2002-all", "Z100L", "bfs-gang8", 0xb0d83ffc8bb50993, 0xbf92565be4c443af},
  {"web-uk-2002-all", "Z100L", "bfs-gang8-degree", 0xb0d83ffc8bb50993, 0x44dbdfbc1cc37bbc},
  {"twitter-mpi", "A100", "bfs-gang2", 0xa647df738a49eb5f, 0x3b60494ba57c1e4f},
  {"twitter-mpi", "A100", "bfs-gang2-degree", 0xa647df738a49eb5f, 0xdcaac307859ca1f2},
  {"twitter-mpi", "A100", "bfs-gang4", 0xa647df738a49eb5f, 0xc4891f39a225f572},
  {"twitter-mpi", "A100", "bfs-gang4-degree", 0xa647df738a49eb5f, 0x40a91d1b16ec2952},
  {"twitter-mpi", "A100", "bfs-gang8", 0xa647df738a49eb5f, 0x416d93434c1ae0fe},
  {"twitter-mpi", "A100", "bfs-gang8-degree", 0xa647df738a49eb5f, 0xe356ea35067eb087},
  {"twitter-mpi", "Z100L", "bfs-gang2", 0xa647df738a49eb5f, 0x6f028c6e2878f7e3},
  {"twitter-mpi", "Z100L", "bfs-gang2-degree", 0xa647df738a49eb5f, 0x8daba9831fb2754e},
  {"twitter-mpi", "Z100L", "bfs-gang4", 0xa647df738a49eb5f, 0xd60f0bf1d880abc1},
  {"twitter-mpi", "Z100L", "bfs-gang4-degree", 0xa647df738a49eb5f, 0xa3a5cceb8cc5b0ef},
  {"twitter-mpi", "Z100L", "bfs-gang8", 0xa647df738a49eb5f, 0x35ff7889036fc298},
  {"twitter-mpi", "Z100L", "bfs-gang8-degree", 0xa647df738a49eb5f, 0x93f3c8ef7ccf6fe2},
  {"web-Stanford", "A100", "pagerank-gang2", 0xc86c1dbdeb010673, 0x353c2dbd717f074a},
  {"web-Stanford", "A100", "pagerank-gang2-degree", 0xf297e551e373e713, 0xe200de64b6162e49},
  {"web-Stanford", "A100", "pagerank-gang4", 0x3a60342676f8dfbe, 0x052b5cf0eeb893bd},
  {"web-Stanford", "A100", "pagerank-gang4-degree", 0x2cc98c53cdc2ed6d, 0x980fa114df759640},
  {"web-Stanford", "A100", "pagerank-gang8", 0x2b5b6dd0b885d164, 0x99ab34aa98989216},
  {"web-Stanford", "A100", "pagerank-gang8-degree", 0x1880ab15e7149090, 0x80293492f3c65f8c},
  {"web-Stanford", "Z100L", "pagerank-gang2", 0x859e636e856c0fc3, 0xe1b39098ba0aaf16},
  {"web-Stanford", "Z100L", "pagerank-gang2-degree", 0xb9568f67f83ad866, 0x1ca14fb32a56316c},
  {"web-Stanford", "Z100L", "pagerank-gang4", 0xeda2ed2b0d5de72d, 0x9a599e421c2cdf69},
  {"web-Stanford", "Z100L", "pagerank-gang4-degree", 0x4a1743b81390f43e, 0x132024b29953ef3f},
  {"web-Stanford", "Z100L", "pagerank-gang8", 0x8db7f87055041166, 0x5c7c91ca06ef18d4},
  {"web-Stanford", "Z100L", "pagerank-gang8-degree", 0x5c353d76a5c2f0ab, 0xc675aeb820c5db07},
  {"web-Google", "A100", "pagerank-gang2", 0xe81346421bbb3e00, 0x6694b98ed5763312},
  {"web-Google", "A100", "pagerank-gang2-degree", 0x40bbe398e89ee377, 0xf6a7ea80c53ad91e},
  {"web-Google", "A100", "pagerank-gang4", 0x8b5655d5b260caed, 0xf66126d1d7e188c4},
  {"web-Google", "A100", "pagerank-gang4-degree", 0x272b95982bf0796f, 0x591856c766513de9},
  {"web-Google", "A100", "pagerank-gang8", 0x47d4a2a40d2b8b7d, 0x569cb95f3928e453},
  {"web-Google", "A100", "pagerank-gang8-degree", 0xa6729dd54e9051be, 0x3091638754e3553c},
  {"web-Google", "Z100L", "pagerank-gang2", 0x0eea692da4026811, 0xdd55cd6a6d7b4c9d},
  {"web-Google", "Z100L", "pagerank-gang2-degree", 0x40bbe398e89ee377, 0x4e6b23cb03ebb652},
  {"web-Google", "Z100L", "pagerank-gang4", 0x8b5655d5b260caed, 0xb5a6d5123806e610},
  {"web-Google", "Z100L", "pagerank-gang4-degree", 0x3b1ff0eb74a2f86c, 0xeb020e8689d244ce},
  {"web-Google", "Z100L", "pagerank-gang8", 0x47d4a2a40d2b8b7d, 0xd7d232a562460c55},
  {"web-Google", "Z100L", "pagerank-gang8-degree", 0xa6729dd54e9051be, 0xe7a458051fb8750a},
  {"cit-Patents", "A100", "pagerank-gang2", 0xf6339b646bc005a5, 0x10b0251e7ecf0864},
  {"cit-Patents", "A100", "pagerank-gang2-degree", 0xf8824e1c262fb99f, 0xdb057cd237142486},
  {"cit-Patents", "A100", "pagerank-gang4", 0x2b270db334d166c9, 0x8df9584daafd0fc0},
  {"cit-Patents", "A100", "pagerank-gang4-degree", 0xd355bd4739af4324, 0x17c9f9e6aa8642ae},
  {"cit-Patents", "A100", "pagerank-gang8", 0xf3f9f0d499fa76f6, 0x15b817ccbb03f7a0},
  {"cit-Patents", "A100", "pagerank-gang8-degree", 0x38840b20cbdfca23, 0x6cdb3a96b80038ce},
  {"cit-Patents", "Z100L", "pagerank-gang2", 0x3386c67a1a3b56aa, 0x64213742ec85157f},
  {"cit-Patents", "Z100L", "pagerank-gang2-degree", 0xf821158e407da612, 0x1a5caec6aab72f0d},
  {"cit-Patents", "Z100L", "pagerank-gang4", 0x72c44ba28b1af8ad, 0x085be590a45151be},
  {"cit-Patents", "Z100L", "pagerank-gang4-degree", 0xb347915ce0b6a00a, 0x14dd09096a726f1e},
  {"cit-Patents", "Z100L", "pagerank-gang8", 0xaeb99e6c1a48c2bb, 0xeb496c17c140f146},
  {"cit-Patents", "Z100L", "pagerank-gang8-degree", 0xd77719e3910ea9d9, 0x4bfcf87f9d70c729},
  {"soc-liveJournal1", "A100", "pagerank-gang2", 0xa3cdd4ceb8247c6f, 0x9afc4126972bb97d},
  {"soc-liveJournal1", "A100", "pagerank-gang2-degree", 0x5c980dcdec765901, 0x135765fd3fe33e53},
  {"soc-liveJournal1", "A100", "pagerank-gang4", 0x6f3bbd731133e4c9, 0xa0950d9ed3ee2b5b},
  {"soc-liveJournal1", "A100", "pagerank-gang4-degree", 0xf5bcfcd245d9cdd5, 0x7dac92206f7485f9},
  {"soc-liveJournal1", "A100", "pagerank-gang8", 0xe76007f9c933f830, 0xb83c89f87df5d329},
  {"soc-liveJournal1", "A100", "pagerank-gang8-degree", 0x676b0ee3b9d49377, 0xeb7cf2f7137b9475},
  {"soc-liveJournal1", "Z100L", "pagerank-gang2", 0xeee951315bd2050a, 0x85b390be4e672e12},
  {"soc-liveJournal1", "Z100L", "pagerank-gang2-degree", 0x6c24eced0c28a4fc, 0x3f196f1b57592c7a},
  {"soc-liveJournal1", "Z100L", "pagerank-gang4", 0x6f3bbd731133e4c9, 0x48492bab5bbcbff9},
  {"soc-liveJournal1", "Z100L", "pagerank-gang4-degree", 0xf5bcfcd245d9cdd5, 0x8d9383b1d8003906},
  {"soc-liveJournal1", "Z100L", "pagerank-gang8", 0xe76007f9c933f830, 0xedf5d7461c808796},
  {"soc-liveJournal1", "Z100L", "pagerank-gang8-degree", 0x676b0ee3b9d49377, 0x00d8fd5af06b8db3},
  {"soc-sinaweibo", "A100", "pagerank-gang2", 0x4530d9c55a182273, 0xbbca976cdfd6adf5},
  {"soc-sinaweibo", "A100", "pagerank-gang2-degree", 0xd799b8d5dcccc306, 0xeeb054b7c971a0da},
  {"soc-sinaweibo", "A100", "pagerank-gang4", 0xffe4559b01e28fab, 0xb9e2792c35b37f74},
  {"soc-sinaweibo", "A100", "pagerank-gang4-degree", 0x8b6db8f287ac5173, 0x1d37c5078ef2f0d8},
  {"soc-sinaweibo", "A100", "pagerank-gang8", 0x98817954c7c8485a, 0x4e1ecf7288578c06},
  {"soc-sinaweibo", "A100", "pagerank-gang8-degree", 0x29357e275b55a7fb, 0xa7e80c8874b8279e},
  {"soc-sinaweibo", "Z100L", "pagerank-gang2", 0x05d7f679a963112c, 0xccf6bfbc4091cd93},
  {"soc-sinaweibo", "Z100L", "pagerank-gang2-degree", 0xbaa030e5bbecb288, 0x4c6e61eb8d5f065e},
  {"soc-sinaweibo", "Z100L", "pagerank-gang4", 0xdfe8ac0b1ec774d0, 0xab3be4fc21754cd3},
  {"soc-sinaweibo", "Z100L", "pagerank-gang4-degree", 0xa6bb8bc9daa3f47c, 0x75f79bc2a26d466b},
  {"soc-sinaweibo", "Z100L", "pagerank-gang8", 0x83373472ab63c20e, 0x9b4c959261af1a7f},
  {"soc-sinaweibo", "Z100L", "pagerank-gang8-degree", 0xcb85f69be048aac4, 0xc333c3cd546df90e},
  {"web-uk-2002-all", "A100", "pagerank-gang2", 0x94cc784e2474e158, 0x906a94812025f448},
  {"web-uk-2002-all", "A100", "pagerank-gang2-degree", 0x10daca7458df6e27, 0x6ba9159a3bb7fecc},
  {"web-uk-2002-all", "A100", "pagerank-gang4", 0x2ede38d7b7e63c67, 0xe1c4239528938187},
  {"web-uk-2002-all", "A100", "pagerank-gang4-degree", 0xc0a3b5f2f97c28a7, 0xcae7e8c4d56d1e81},
  {"web-uk-2002-all", "A100", "pagerank-gang8", 0x34fa61f61f309130, 0x079aa77df194dad4},
  {"web-uk-2002-all", "A100", "pagerank-gang8-degree", 0xec09881d47bca546, 0x7dbf11c2e764ea96},
  {"web-uk-2002-all", "Z100L", "pagerank-gang2", 0xfb3dd3b81b12eb5f, 0x452581d1fbc27b7f},
  {"web-uk-2002-all", "Z100L", "pagerank-gang2-degree", 0xa9284e8a95e902d5, 0x492cbc7401443c54},
  {"web-uk-2002-all", "Z100L", "pagerank-gang4", 0xe1ce6978bcbb4b40, 0x8bd6756fb1add099},
  {"web-uk-2002-all", "Z100L", "pagerank-gang4-degree", 0x6399295ccb0c9b55, 0xd79dcabbd705153a},
  {"web-uk-2002-all", "Z100L", "pagerank-gang8", 0x34fa61f61f309130, 0xa5cdbaa056be3015},
  {"web-uk-2002-all", "Z100L", "pagerank-gang8-degree", 0xb4163828ec82e343, 0x3fce988df7420faf},
  {"twitter-mpi", "A100", "pagerank-gang2", 0xb3b7dfd07eedf8cb, 0x208d3d86aea42606},
  {"twitter-mpi", "A100", "pagerank-gang2-degree", 0x2daa8252448447e6, 0xf7f9db642e84df2a},
  {"twitter-mpi", "A100", "pagerank-gang4", 0x9e58ff433eb61194, 0x54004c3e4f6fdbaf},
  {"twitter-mpi", "A100", "pagerank-gang4-degree", 0x9e8da1ea44f1d321, 0xa49753c2f9dc4fff},
  {"twitter-mpi", "A100", "pagerank-gang8", 0xe733651181ae99b1, 0x51efd874770b2c56},
  {"twitter-mpi", "A100", "pagerank-gang8-degree", 0x4d2094fdd9a76dd1, 0xac6c724d8b063058},
  {"twitter-mpi", "Z100L", "pagerank-gang2", 0x0b9f723185b750a5, 0xc1948584d4b4290e},
  {"twitter-mpi", "Z100L", "pagerank-gang2-degree", 0x54645f58d8f1660d, 0xb70885ad21777641},
  {"twitter-mpi", "Z100L", "pagerank-gang4", 0xab56e50d4e215685, 0xac1d8604f83efff4},
  {"twitter-mpi", "Z100L", "pagerank-gang4-degree", 0xb3aa4a6ae9c4efe6, 0x83f06834d29fc339},
  {"twitter-mpi", "Z100L", "pagerank-gang8", 0xe733651181ae99b1, 0x76d8ddbb009bad44},
  {"twitter-mpi", "Z100L", "pagerank-gang8-degree", 0x1d9316ab4a4f6a8a, 0xeb5263b67cf23d81},
};

void ExpectFrozen(std::string_view dataset, const Device& dev,
                  std::string_view kase, uint64_t result, uint64_t modeled) {
  const std::string_view arch = dev.name();
  char row[192];
  std::snprintf(row, sizeof(row),
                "{\"%.*s\", \"%.*s\", \"%.*s\", 0x%016llx, 0x%016llx},",
                static_cast<int>(dataset.size()), dataset.data(),
                static_cast<int>(arch.size()), arch.data(),
                static_cast<int>(kase.size()), kase.data(),
                static_cast<unsigned long long>(result),
                static_cast<unsigned long long>(modeled));
  for (const Frozen& f : kFrozen) {
    if (f.dataset != dataset || f.arch != arch || f.kase != kase) continue;
    EXPECT_TRUE(f.result == result && f.modeled == modeled)
        << (f.result == result ? "" : "result digest differs; ")
        << (f.modeled == modeled ? "" : "modeled digest differs; ")
        << "actual:\n  " << row;
    return;
  }
  ADD_FAILURE() << "no frozen row; actual:\n  " << row;
}

struct GoldenGraphs {
  std::string name;
  CsrGraph directed;  ///< the proxy as materialized (unweighted, directed)
  CsrGraph sym;       ///< undirected simple version (direction-optimizing BFS)
  CsrGraph weighted;  ///< directed with deterministic random weights
};

/// One materialization of all seven bundled datasets, shared by every
/// golden case in this binary.
class GoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graphs_ = new std::vector<GoldenGraphs>();
    uint64_t weight_seed = 1000;
    for (const auto& spec : graph::PaperDatasets()) {
      GoldenGraphs g;
      g.name = spec.name;
      g.directed = graph::Materialize(spec, kGoldenDivisor).value();
      graph::CsrBuildOptions sym;
      sym.make_undirected = true;
      sym.remove_duplicates = true;
      sym.remove_self_loops = true;
      g.sym = CsrGraph::FromCoo(g.directed.ToCoo(), sym).value();
      auto coo = g.directed.ToCoo();
      graph::AttachRandomWeights(&coo, 0.1, 1.0, ++weight_seed);
      g.weighted = CsrGraph::FromCoo(coo).value();
      graphs_->push_back(std::move(g));
    }
  }
  static void TearDownTestSuite() {
    delete graphs_;
    graphs_ = nullptr;
  }

  /// Runs `run(device)` on a fresh device of each golden GPU, checks both
  /// digests against the frozen row and hands the result to `check`.
  template <typename RunFn, typename Check>
  static void RunFrozenOn(const GoldenGraphs& gg, std::string_view kase,
                          RunFn run, Check check) {
    for (const vgpu::ArchConfig* arch :
         {&vgpu::A100Config(), &vgpu::Z100LConfig()}) {
      Device dev(*arch);
      auto r = run(&dev);
      ASSERT_TRUE(r.ok()) << gg.name << ": " << r.status().ToString();
      ExpectFrozen(gg.name, dev, kase, ResultDigest(*r),
                   ModeledDigest(r->time_ms, dev));
      check(*r);
    }
  }

  /// RunFrozenOn with algorithm `A` through core::Run.
  template <core::Algo A, typename Check>
  static void RunFrozen(const GoldenGraphs& gg, std::string_view kase,
                        const CsrGraph& g, const core::ParamsOf<A>& params,
                        Check check) {
    RunFrozenOn(
        gg, kase, [&](Device* dev) { return core::Run<A>(dev, g, params); },
        check);
  }

  static std::vector<GoldenGraphs>* graphs_;
};

std::vector<GoldenGraphs>* GoldenTest::graphs_ = nullptr;

core::BfsOptions DirectedParentsBfs() {
  core::BfsOptions options;
  options.source = 0;
  options.compute_parents = true;
  return options;
}

core::BfsOptions SymmetricBfs() {
  core::BfsOptions options;
  options.source = 0;
  options.assume_symmetric = true;
  return options;
}

core::PageRankOptions FiveIterationPageRank() {
  core::PageRankOptions options;
  options.max_iterations = 5;
  return options;
}

double L1(const std::vector<double>& a, const std::vector<double>& b) {
  double sum = 0;
  for (size_t i = 0; i < a.size(); ++i) sum += std::fabs(a[i] - b[i]);
  return sum;
}

TEST_F(GoldenTest, BfsDirectedWithParentsMatchesSeedExactly) {
  for (const auto& gg : *graphs_) {
    const auto want = core::host_ref::BfsLevels(gg.directed, 0);
    RunFrozen<core::Algo::kBfs>(
        gg, "bfs-parents", gg.directed, DirectedParentsBfs(),
        [&](const core::BfsResult& r) {
          EXPECT_EQ(r.levels, want) << gg.name;
          // Every reached non-source vertex hangs off an in-edge from a
          // vertex one level up.
          for (vid_t v = 0; v < gg.directed.num_vertices(); ++v) {
            if (v == 0 || r.levels[v] == core::kUnreachedLevel) {
              EXPECT_EQ(r.parents[v], graph::kInvalidVertex) << gg.name;
              continue;
            }
            const vid_t p = r.parents[v];
            ASSERT_LT(p, gg.directed.num_vertices()) << gg.name;
            EXPECT_EQ(r.levels[p] + 1, r.levels[v]) << gg.name;
            const auto adj = gg.directed.neighbors(p);
            EXPECT_NE(std::find(adj.begin(), adj.end(), v), adj.end())
                << gg.name;
          }
        });
  }
}

TEST_F(GoldenTest, DirectionOptimizingBfsMatchesSeedRoundForRound) {
  // Iteration counters are part of both digests, so the push/pull flips
  // must land on the seed's rounds, not just the levels.
  for (const auto& gg : *graphs_) {
    const auto want = core::host_ref::BfsLevels(gg.sym, 0);
    RunFrozen<core::Algo::kBfs>(gg, "bfs-sym", gg.sym, SymmetricBfs(),
                                [&](const core::BfsResult& r) {
                                  EXPECT_EQ(r.levels, want) << gg.name;
                                  EXPECT_GT(r.bottom_up_iterations, 0u)
                                      << gg.name
                                      << ": proxy too sparse to exercise "
                                         "the pull switch";
                                });
  }
}

TEST_F(GoldenTest, SsspDistancesMatchSeedBitwise) {
  // Min-plus fixpoint is unique, so distances equal the host reference.
  for (const auto& gg : *graphs_) {
    const auto want = core::host_ref::Sssp(gg.weighted, 0);
    RunFrozen<core::Algo::kSssp>(gg, "sssp", gg.weighted, {.source = 0},
                                 [&](const core::SsspResult& r) {
                                   EXPECT_EQ(r.distances, want) << gg.name;
                                 });
  }
}

TEST_F(GoldenTest, PageRankRanksMatchSeedBitwise) {
  for (const auto& gg : *graphs_) {
    const core::PageRankOptions options = FiveIterationPageRank();
    RunFrozen<core::Algo::kPageRank>(
        gg, "pagerank", gg.directed, options,
        [&](const core::PageRankResult& r) {
          const auto want = core::host_ref::PageRank(gg.directed,
                                                     options.alpha,
                                                     r.iterations);
          EXPECT_LE(L1(r.ranks, want), kPageRankL1Tolerance) << gg.name;
        });
  }
}

TEST_F(GoldenTest, ConnectedComponentsLabelsMatchSeedExactly) {
  for (const auto& gg : *graphs_) {
    const auto want = core::host_ref::ConnectedComponents(gg.directed);
    RunFrozen<core::Algo::kConnectedComponents>(
        gg, "cc", gg.directed, {}, [&](const core::CcResult& r) {
          EXPECT_EQ(r.labels, want) << gg.name;
        });
  }
}

TEST_F(GoldenTest, WidestPathWidthsMatchSeedBitwise) {
  // Max-min fixpoint: every width is some edge weight (or 0 / +inf), so
  // exact equality is the right comparison.
  for (const auto& gg : *graphs_) {
    const auto want = core::host_ref::WidestPath(gg.weighted, 0);
    RunFrozen<core::Algo::kWidestPath>(gg, "widest", gg.weighted,
                                       {.source = 0},
                                       [&](const core::WidestPathResult& r) {
                                         EXPECT_EQ(r.widths, want) << gg.name;
                                       });
  }
}

// kAuto gathers warp-per-vertex only at a mean degree of twice the warp
// width, which no golden proxy reaches, so these rows are what runs the
// `*_warp` relaxation launches.
constexpr engine::EngineOptions kWarpGather{
    .load_balance = engine::LoadBalance::kWarpPerVertex};

TEST_F(GoldenTest, WarpGatherRelaxationsMatchHostReference) {
  for (const auto& gg : *graphs_) {
    const auto dist = core::host_ref::Sssp(gg.weighted, 0);
    RunFrozenOn(
        gg, "sssp-warp",
        [&](Device* d) {
          return engine::RunSssp(d, gg.weighted, {.source = 0}, nullptr,
                                 kWarpGather);
        },
        [&](const core::SsspResult& r) {
          EXPECT_EQ(r.distances, dist) << gg.name;
        });
    const auto labels = core::host_ref::ConnectedComponents(gg.directed);
    RunFrozenOn(
        gg, "cc-warp",
        [&](Device* d) {
          return engine::RunConnectedComponents(d, gg.directed, {}, nullptr,
                                                kWarpGather);
        },
        [&](const core::CcResult& r) {
          EXPECT_EQ(r.labels, labels) << gg.name;
        });
    const auto widths = core::host_ref::WidestPath(gg.weighted, 0);
    RunFrozenOn(
        gg, "widest-warp",
        [&](Device* d) {
          return engine::RunWidestPath(d, gg.weighted, {.source = 0}, nullptr,
                                       kWarpGather);
        },
        [&](const core::WidestPathResult& r) {
          EXPECT_EQ(r.widths, widths) << gg.name;
        });
  }
}

TEST_F(GoldenTest, BetweennessMatchesFrozenDigests) {
  // Both gathers reach the same levels and path counts: one result digest
  // per proxy, two modeled ones.
  for (const auto& gg : *graphs_) {
    const auto levels = core::host_ref::BfsLevels(gg.sym, 0);
    auto check = [&](const core::BcResult& r) {
      uint32_t depth = 0;
      for (vid_t v = 0; v < gg.sym.num_vertices(); ++v) {
        const bool reached = levels[v] != core::kUnreachedLevel;
        EXPECT_EQ(r.sigma[v] > 0, reached) << gg.name << " vertex " << v;
        if (reached) depth = std::max(depth, levels[v]);
      }
      EXPECT_EQ(r.sigma[0], 1.0) << gg.name;
      EXPECT_EQ(r.depth, depth) << gg.name;
    };
    RunFrozen<core::Algo::kBetweenness>(gg, "bc", gg.directed, {.source = 0},
                                        check);
    RunFrozenOn(
        gg, "bc-warp",
        [&](Device* d) {
          return engine::RunBetweenness(d, gg.directed, {.source = 0},
                                        nullptr, kWarpGather);
        },
        check);
  }
}

TEST_F(GoldenTest, WarmStartedPageRankMatchesFrozenDigests) {
  // A cold five-iteration run, a fixed insert batch, then the incremental
  // path re-iterates from the cold ranks on a fresh device.
  const core::PageRankOptions options = FiveIterationPageRank();
  for (const auto& gg : *graphs_) {
    for (const vgpu::ArchConfig* arch :
         {&vgpu::A100Config(), &vgpu::Z100LConfig()}) {
      Device cold_dev(*arch);
      auto cold =
          core::Run<core::Algo::kPageRank>(&cold_dev, gg.directed, options)
              .value();
      auto delta = graph::DeltaGraph::Create(gg.directed).value();
      const uint64_t cold_version = delta.version();
      const vid_t n = gg.directed.num_vertices();
      for (uint64_t i = 0; i < 16; ++i) {
        const vid_t u = static_cast<vid_t>((i * 7919) % n);
        const vid_t v = static_cast<vid_t>((i * 104729 + 1) % n);
        if (u != v) {
          ASSERT_TRUE(delta.AddEdge(u, v).ok()) << gg.name;
        }
      }

      Device dev(*arch);
      core::WarmStart start;
      start.previous = std::make_shared<const core::AlgoResult>(cold);
      start.updates = delta.UpdatesSince(cold_version);
      start.full_threshold = 1.0;
      core::RunReport report;
      auto warm = core::Run(&dev, {core::Algo::kPageRank, {}, &start},
                            *delta.Snapshot().value(), options, nullptr,
                            &report);
      ASSERT_TRUE(warm.ok()) << gg.name << ": " << warm.status().ToString();
      const core::IncrementalInfo& info = report.incremental;
      ASSERT_TRUE(info.incremental) << gg.name << ": " << info.fallback_reason;
      const auto& r = std::get<core::PageRankResult>(*warm);
      ExpectFrozen(gg.name, dev, "pagerank-warm", ResultDigest(r),
                   ModeledDigest(r.time_ms, dev));

      // The warm iterations move the cold ranks toward the mutated graph's
      // fixpoint.
      const auto fixpoint = core::host_ref::PageRank(
          *delta.Snapshot().value(), options.alpha, 200);
      EXPECT_LT(L1(r.ranks, fixpoint), L1(cold.ranks, fixpoint)) << gg.name;
    }
  }
}

// The per-kernel rows below run on three proxies: the kernels are the
// simulator's heaviest (TC is most of paper_cells), and three keep the
// binary inside unit-test time.
bool HasKernelRows(const GoldenGraphs& gg) {
  return gg.name == "web-Google" || gg.name == "cit-Patents" ||
         gg.name == "soc-liveJournal1";
}

/// The Table 5 triangle count: nvGRAPH-style counting on the full
/// symmetrized adjacency with a 2048-entry shared-memory hash set.
core::TcOptions PaperTc() {
  core::TcOptions options;
  options.orient = false;
  options.hash_capacity = 2048;
  return options;
}

/// Row `v` of `g` as (neighbor, weight) pairs, ascending.
std::vector<std::pair<vid_t, graph::weight_t>> SortedRow(const CsrGraph& g,
                                                        vid_t v) {
  std::vector<std::pair<vid_t, graph::weight_t>> row;
  for (graph::eid_t e = g.row_offsets()[v]; e < g.row_offsets()[v + 1]; ++e) {
    row.emplace_back(g.col_indices()[e], g.weights()[e]);
  }
  std::sort(row.begin(), row.end());
  return row;
}

/// ESBV of the Table 5 subset: ~60% of the vertices, fixed by seed.
core::EsbvOptions PaperEsbv(const CsrGraph& g) {
  core::EsbvOptions options;
  options.vertices = core::SelectPseudoCluster(g.num_vertices(), 0.6, 42);
  return options;
}

TEST_F(GoldenTest, TriangleCountsMatchFrozenDigests) {
  for (const auto& gg : *graphs_) {
    if (!HasKernelRows(gg)) continue;
    const uint64_t want = core::host_ref::TriangleCount(gg.sym);
    auto check = [&](const core::TcResult& r) {
      EXPECT_EQ(r.triangles, want) << gg.name;
    };
    RunFrozen<core::Algo::kTriangleCount>(gg, "tc-unoriented", gg.sym,
                                          PaperTc(), check);
    RunFrozen<core::Algo::kTriangleCount>(gg, "tc-oriented", gg.sym, {},
                                          check);
  }
}

TEST_F(GoldenTest, SubgraphExtractionMatchesFrozenDigests) {
  for (const auto& gg : *graphs_) {
    if (!HasKernelRows(gg)) continue;
    const core::EsbvOptions options = PaperEsbv(gg.weighted);
    const CsrGraph want =
        core::host_ref::ExtractSubgraph(gg.weighted, options.vertices);
    RunFrozen<core::Algo::kEsbv>(
        gg, "esbv", gg.weighted, options, [&](const core::EsbvResult& r) {
          // Same rows; the device rebuild orders a row's edges its own way.
          ASSERT_EQ(r.subgraph.row_offsets(), want.row_offsets()) << gg.name;
          for (vid_t v = 0; v < want.num_vertices(); ++v) {
            EXPECT_EQ(SortedRow(r.subgraph, v), SortedRow(want, v))
                << gg.name << " row " << v;
          }
        });
  }
}

TEST_F(GoldenTest, KCoreColoringAndJaccardMatchFrozenDigests) {
  for (const auto& gg : *graphs_) {
    if (!HasKernelRows(gg)) continue;
    const auto core_numbers = core::host_ref::CoreNumbers(gg.sym);
    RunFrozen<core::Algo::kKCore>(
        gg, "kcore", gg.sym, {.k = 3}, [&](const core::KCoreResult& r) {
          for (vid_t v = 0; v < gg.sym.num_vertices(); ++v) {
            ASSERT_EQ(r.in_core[v] != 0, core_numbers[v] >= 3)
                << gg.name << " vertex " << v;
          }
        });
    RunFrozen<core::Algo::kColoring>(
        gg, "coloring", gg.sym, {}, [&](const core::ColoringResult& r) {
          for (vid_t u = 0; u < gg.sym.num_vertices(); ++u) {
            for (vid_t v : gg.sym.neighbors(u)) {
              ASSERT_NE(r.colors[u], r.colors[v]) << gg.name << " edge " << u
                                                  << "-" << v;
            }
          }
        });
    const auto jaccard = core::host_ref::JaccardPerEdge(gg.sym);
    RunFrozen<core::Algo::kJaccard>(gg, "jaccard", gg.sym, {},
                                    [&](const core::JaccardResult& r) {
                                      EXPECT_EQ(r.coefficients, jaccard)
                                          << gg.name;
                                    });
  }
}

TEST_F(GoldenTest, ReusedDeviceMatchesFrozenDigestsAfterEachReset) {
  // One device per GPU serves a fixed job sequence and resets its counters
  // and caches between jobs, as the scheduler does after every job, so
  // each row pins what the reset leaves behind.  These rows are compared
  // only with themselves: on a device that has run before, the allocator
  // hands ESBV other addresses than on a fresh one, and its cache counts
  // differ from the "esbv" row.
  const auto it = std::find_if(graphs_->begin(), graphs_->end(),
                               [](const GoldenGraphs& gg) {
                                 return gg.name == "web-Google";
                               });
  ASSERT_NE(it, graphs_->end());
  const GoldenGraphs& gg = *it;
  for (const vgpu::ArchConfig* arch :
       {&vgpu::A100Config(), &vgpu::Z100LConfig()}) {
    Device dev(*arch);
    auto expect = [&](std::string_view kase, const auto& r) {
      ASSERT_TRUE(r.ok()) << kase << ": " << r.status().ToString();
      ExpectFrozen(gg.name, dev, kase, ResultDigest(*r),
                   ModeledDigest(r->time_ms, dev));
      dev.ResetCounters();
    };
    expect("reused-tc", core::Run<core::Algo::kTriangleCount>(&dev, gg.sym,
                                                              PaperTc()));
    expect("reused-esbv", core::Run<core::Algo::kEsbv>(
                              &dev, gg.weighted, PaperEsbv(gg.weighted)));
    expect("reused-bfs",
           core::Run<core::Algo::kBfs>(&dev, gg.sym, SymmetricBfs()));
    expect("reused-pagerank", core::Run<core::Algo::kPageRank>(
                                  &dev, gg.directed, FiveIterationPageRank()));
  }
}

TEST_F(GoldenTest, CoreRunDispatchesThroughTheEngine) {
  // core::Run adds nothing to the engine drivers: calling them directly
  // reproduces the frozen rows.
  const auto& gg = (*graphs_)[0];
  for (const vgpu::ArchConfig* arch :
       {&vgpu::A100Config(), &vgpu::Z100LConfig()}) {
    auto expect = [&](std::string_view kase, auto run) {
      Device dev(*arch);
      auto r = run(&dev).value();
      ExpectFrozen(gg.name, dev, kase, ResultDigest(r),
                   ModeledDigest(r.time_ms, dev));
    };
    expect("bfs-parents", [&](Device* d) {
      return engine::RunBfs(d, gg.directed, DirectedParentsBfs());
    });
    expect("bfs-sym", [&](Device* d) {
      return engine::RunBfs(d, gg.sym, SymmetricBfs());
    });
    expect("sssp", [&](Device* d) {
      return engine::RunSssp(d, gg.weighted, {.source = 0});
    });
    expect("pagerank", [&](Device* d) {
      return engine::RunPageRank(d, gg.directed, FiveIterationPageRank());
    });
    expect("cc", [&](Device* d) {
      return engine::RunConnectedComponents(d, gg.directed, {});
    });
    expect("widest", [&](Device* d) {
      return engine::RunWidestPath(d, gg.weighted, {.source = 0});
    });
  }
}

// Gang rows: BFS and five-iteration PageRank as gangs of 2, 4 and 8 devices
// of each golden GPU, over uniform and degree-balanced shards.  A gang's
// devices are simulated side by side on host threads, so these rows pin
// every device's kernel log and clocks, not only the roll-up.
class GangGoldenTest : public GoldenTest {
 protected:
  /// Runs `run(engine, plan, &exchange)` on a fresh gang for every size,
  /// strategy and golden GPU, checks the frozen row `algo-gangN[-degree]`
  /// and hands the result to `check`.
  template <typename RunFn, typename Check>
  static void RunGangs(const GoldenGraphs& gg, std::string_view algo,
                       RunFn run, Check check) {
    for (const vgpu::ArchConfig* arch :
         {&vgpu::A100Config(), &vgpu::Z100LConfig()}) {
      for (uint32_t devices : {2u, 4u, 8u}) {
        for (core::PartitionStrategy strategy :
             {core::PartitionStrategy::kUniform,
              core::PartitionStrategy::kDegreeBalanced}) {
          const std::string kase =
              std::string(algo) + "-gang" + std::to_string(devices) +
              (strategy == core::PartitionStrategy::kDegreeBalanced
                   ? "-degree"
                   : "");
          part::PartitionedEngine::Options options;
          options.num_devices = devices;
          auto engine = part::PartitionedEngine::Create(*arch, options);
          ASSERT_TRUE(engine.ok()) << engine.status().ToString();
          auto plan = part::MakePartitionPlan(gg.directed, devices, strategy);
          ASSERT_TRUE(plan.ok()) << plan.status().ToString();
          core::ExchangeStats exchange;
          auto r = run(engine->get(), *plan, &exchange);
          ASSERT_TRUE(r.ok()) << gg.name << " " << kase << ": "
                              << r.status().ToString();
          ExpectFrozen(gg.name, *(*engine)->device(0), kase,
                       ResultDigest(*r),
                       GangDigest(r->time_ms, exchange, **engine));
          check(*r);
        }
      }
    }
  }
};

TEST_F(GangGoldenTest, BfsGangsMatchFrozenDigests) {
  core::BfsOptions options;
  options.source = 0;
  for (const auto& gg : *graphs_) {
    const auto want = core::host_ref::BfsLevels(gg.directed, 0);
    RunGangs(
        gg, "bfs",
        [&](part::PartitionedEngine* engine, const part::PartitionPlan& plan,
            core::ExchangeStats* exchange) {
          return part::RunPartitionedBfs(engine, gg.directed, plan, options,
                                         exchange);
        },
        [&](const core::BfsResult& r) { EXPECT_EQ(r.levels, want) << gg.name; });
  }
}

TEST_F(GangGoldenTest, PageRankGangsMatchFrozenDigests) {
  const core::PageRankOptions options = FiveIterationPageRank();
  for (const auto& gg : *graphs_) {
    const auto want = core::host_ref::PageRank(gg.directed, options.alpha,
                                               options.max_iterations);
    RunGangs(
        gg, "pagerank",
        [&](part::PartitionedEngine* engine, const part::PartitionPlan& plan,
            core::ExchangeStats* exchange) {
          return part::RunPartitionedPageRank(engine, gg.directed, plan,
                                              options, exchange);
        },
        [&](const core::PageRankResult& r) {
          EXPECT_LE(L1(r.ranks, want), kPageRankL1Tolerance) << gg.name;
        });
  }
}

}  // namespace
}  // namespace adgraph
