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
#include "core/incremental.h"
#include "engine/algorithms.h"
#include "graph/datasets.h"
#include "graph/delta.h"
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

/// The run's modeled time, then every kernel `dev` launched, in launch
/// order: name, launch shape, every event counter and its modeled time.
/// Each golden run owns a fresh device, so the log is exactly the run's.
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
// core::RunIncremental for the warm start).  Any change to a row is a
// change to modeled output and must be named as one.  A mismatch prints
// the actual row in this format.
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

  /// Runs algorithm `A` through core::Run on a fresh device of each golden
  /// GPU, checks both digests against the frozen row and hands the result
  /// to `check`.
  template <core::Algo A, typename Check>
  static void RunFrozen(const GoldenGraphs& gg, std::string_view kase,
                        const CsrGraph& g, const core::ParamsOf<A>& params,
                        Check check) {
    for (const vgpu::ArchConfig* arch :
         {&vgpu::A100Config(), &vgpu::Z100LConfig()}) {
      Device dev(*arch);
      auto r = core::Run<A>(&dev, g, params);
      ASSERT_TRUE(r.ok()) << gg.name << ": " << r.status().ToString();
      ExpectFrozen(gg.name, dev, kase, ResultDigest(*r),
                   ModeledDigest(r->time_ms, dev));
      check(*r);
    }
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
      core::IncrementalOptions inc;
      inc.full_threshold = 1.0;
      core::IncrementalInfo info;
      auto warm = core::RunIncremental(&dev, {core::Algo::kPageRank}, delta,
                                       options, core::AlgoResult(cold),
                                       cold_version, inc, nullptr, &info);
      ASSERT_TRUE(warm.ok()) << gg.name << ": " << warm.status().ToString();
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

}  // namespace
}  // namespace adgraph
