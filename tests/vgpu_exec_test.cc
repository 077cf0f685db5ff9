#include <gtest/gtest.h>

#include <vector>

#include "vgpu/arch.h"
#include "vgpu/ctx.h"
#include "vgpu/device.h"
#include "vgpu/kernel.h"

namespace adgraph::vgpu {
namespace {

// A compact test GPU so counter arithmetic stays easy to reason about.
ArchConfig TestArch(Paradigm paradigm, uint32_t warp_width) {
  ArchConfig c;
  c.name = "TestGPU";
  c.vendor = paradigm == Paradigm::kSimt ? "NVIDIA" : "AMD-like";
  c.paradigm = paradigm;
  c.shared_path = paradigm == Paradigm::kSimt
                      ? SharedMemPath::kUnifiedWithL1
                      : SharedMemPath::kIndependentLds;
  c.warp_width = warp_width;
  c.num_sms = 4;
  c.max_warps_per_sm = 16;
  c.clock_ghz = 1.0;
  c.dram_capacity_bytes = 64 << 20;
  c.l1_size_bytes = 16 << 10;
  c.l2_size_bytes = 256 << 10;
  c.smem_bytes_per_sm = 48 << 10;
  return c;
}

class ExecTest : public ::testing::Test {
 protected:
  Device& dev() {
    if (!device_) device_ = std::make_unique<Device>(TestArch(Paradigm::kSimt, 32));
    return *device_;
  }
  std::unique_ptr<Device> device_;
};

template <typename T>
DevPtr<T> Upload(Device* d, const std::vector<T>& host) {
  auto ptr = d->Alloc<T>(host.size()).value();
  EXPECT_TRUE(d->CopyToDevice(ptr, host.data(), host.size()).ok());
  return ptr;
}

template <typename T>
std::vector<T> Download(Device* d, DevPtr<T> ptr, uint64_t n) {
  std::vector<T> out(n);
  EXPECT_TRUE(d->CopyToHost(out.data(), ptr, n).ok());
  return out;
}

// ------------------------------------------------------------ arithmetic

TEST_F(ExecTest, ArithmeticOpsComputeLaneWise) {
  std::vector<int32_t> a{1, 2, 3, 4}, b{10, 20, 30, 40};
  auto da = Upload(&dev(), a);
  auto db = Upload(&dev(), b);
  auto dout = dev().Alloc<int32_t>(4 * 6).value();
  auto stats = dev().Launch("arith", {1, 4}, [&](Ctx& c) -> KernelTask {
    auto tid = c.GlobalThreadId();
    auto x = c.Load(da, tid);
    auto y = c.Load(db, tid);
    c.Store(dout, tid, c.Add(x, y));
    c.Store(dout, c.Add(tid, 4u), c.Sub(y, x));
    c.Store(dout, c.Add(tid, 8u), c.Mul(x, y));
    c.Store(dout, c.Add(tid, 12u), c.Div(y, x));
    c.Store(dout, c.Add(tid, 16u), c.Min(x, c.Splat<int32_t>(2)));
    c.Store(dout, c.Add(tid, 20u), c.Max(x, c.Splat<int32_t>(2)));
    co_return;
  });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  auto out = Download(&dev(), dout, 24);
  EXPECT_EQ(out[0], 11);
  EXPECT_EQ(out[3], 44);
  EXPECT_EQ(out[4], 9);
  EXPECT_EQ(out[8], 10);
  EXPECT_EQ(out[11], 160);
  EXPECT_EQ(out[12], 10);
  EXPECT_EQ(out[15], 10);
  EXPECT_EQ(out[16], 1);
  EXPECT_EQ(out[17], 2);
  EXPECT_EQ(out[18], 2);
  EXPECT_EQ(out[20], 2);
  EXPECT_EQ(out[23], 4);
}

TEST_F(ExecTest, IntegerOpsAndCast) {
  std::vector<uint32_t> a{0b1100, 7, 1, 256};
  auto da = Upload(&dev(), a);
  auto dout = dev().Alloc<uint32_t>(16).value();
  auto ddbl = dev().Alloc<double>(4).value();
  auto stats = dev().Launch("intops", {1, 4}, [&](Ctx& c) -> KernelTask {
    auto tid = c.GlobalThreadId();
    auto x = c.Load(da, tid);
    c.Store(dout, tid, c.BitAnd(x, 0b1010u));
    c.Store(dout, c.Add(tid, 4u), c.BitOr(x, 1u));
    c.Store(dout, c.Add(tid, 8u), c.Shl(x, 1u));
    c.Store(dout, c.Add(tid, 12u), c.Rem(x, 5u));
    c.Store(ddbl, tid, c.Cast<double>(x));
    co_return;
  });
  ASSERT_TRUE(stats.ok());
  auto out = Download(&dev(), dout, 16);
  EXPECT_EQ(out[0], 0b1000u);
  EXPECT_EQ(out[4], 0b1101u);
  EXPECT_EQ(out[8], 0b11000u);
  EXPECT_EQ(out[12], 2u);  // 12 % 5
  EXPECT_EQ(out[15], 1u);  // 256 % 5
  auto dbl = Download(&dev(), ddbl, 4);
  EXPECT_EQ(dbl[3], 256.0);
}

TEST_F(ExecTest, DivisionByZeroYieldsZeroNotCrash) {
  std::vector<int32_t> a{5};
  auto da = Upload(&dev(), a);
  auto dout = dev().Alloc<int32_t>(1).value();
  auto stats = dev().Launch("div0", {1, 1}, [&](Ctx& c) -> KernelTask {
    auto tid = c.GlobalThreadId();
    auto x = c.Load(da, tid);
    c.Store(dout, tid, c.Div(x, c.Splat<int32_t>(0)));
    co_return;
  });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(Download(&dev(), dout, 1)[0], 0);
}

// --------------------------------------------------------- control flow

TEST_F(ExecTest, IfMasksLanes) {
  auto dout = dev().Alloc<uint32_t>(8).value();
  ASSERT_TRUE(dev().Memset(dout, 0, 8).ok());
  auto stats = dev().Launch("if", {1, 8}, [&](Ctx& c) -> KernelTask {
    auto tid = c.GlobalThreadId();
    c.If(c.Lt(tid, 3u), [&](Ctx& c) {
      c.Store(dout, tid, c.Splat<uint32_t>(7));
    });
    co_return;
  });
  ASSERT_TRUE(stats.ok());
  auto out = Download(&dev(), dout, 8);
  for (uint32_t i = 0; i < 8; ++i) EXPECT_EQ(out[i], i < 3 ? 7u : 0u);
  EXPECT_EQ(stats->counters.divergent_branches, 1u);
}

TEST_F(ExecTest, IfElseBothSidesRun) {
  auto dout = dev().Alloc<uint32_t>(8).value();
  auto stats = dev().Launch("ifelse", {1, 8}, [&](Ctx& c) -> KernelTask {
    auto tid = c.GlobalThreadId();
    auto odd = c.Eq(c.Rem(tid, 2u), 1u);
    c.IfElse(
        odd, [&](Ctx& c) { c.Store(dout, tid, c.Splat<uint32_t>(1)); },
        [&](Ctx& c) { c.Store(dout, tid, c.Splat<uint32_t>(2)); });
    co_return;
  });
  ASSERT_TRUE(stats.ok());
  auto out = Download(&dev(), dout, 8);
  for (uint32_t i = 0; i < 8; ++i) EXPECT_EQ(out[i], i % 2 ? 1u : 2u);
}

TEST_F(ExecTest, EmptyBranchSkipped) {
  auto stats = dev().Launch("empty", {1, 4}, [&](Ctx& c) -> KernelTask {
    auto tid = c.GlobalThreadId();
    c.If(c.Gt(tid, 100u), [&](Ctx& c) {
      // Never runs; a store here would fault (null pointer).
      c.Store(DevPtr<uint32_t>{0}, tid, tid);
    });
    co_return;
  });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->counters.divergent_branches, 0u);
  EXPECT_EQ(stats->counters.global_store_inst, 0u);
}

TEST_F(ExecTest, NestedIfRestoresMasks) {
  auto dout = dev().Alloc<uint32_t>(8).value();
  ASSERT_TRUE(dev().Memset(dout, 0, 8).ok());
  auto stats = dev().Launch("nested", {1, 8}, [&](Ctx& c) -> KernelTask {
    auto tid = c.GlobalThreadId();
    c.If(c.Lt(tid, 6u), [&](Ctx& c) {
      c.If(c.Ge(tid, 2u), [&](Ctx& c) {
        c.Store(dout, tid, c.Splat<uint32_t>(9));
      });
      // After the inner If, all 6 lanes must be active again.
      c.Store(dout, tid, c.Add(c.Load(dout, tid), c.Splat<uint32_t>(1)));
    });
    co_return;
  });
  ASSERT_TRUE(stats.ok());
  auto out = Download(&dev(), dout, 8);
  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(out[1], 1u);
  EXPECT_EQ(out[2], 10u);
  EXPECT_EQ(out[5], 10u);
  EXPECT_EQ(out[6], 0u);
}

TEST_F(ExecTest, ForRunsPerLaneTripCounts) {
  // Lane i accumulates i iterations.
  std::vector<uint32_t> ends{0, 1, 3, 7};
  auto dend = Upload(&dev(), ends);
  auto dout = dev().Alloc<uint32_t>(4).value();
  ASSERT_TRUE(dev().Memset(dout, 0, 4).ok());
  auto stats = dev().Launch("for", {1, 4}, [&](Ctx& c) -> KernelTask {
    auto tid = c.GlobalThreadId();
    auto end = c.Load(dend, tid);
    auto acc = c.Splat<uint32_t>(0);
    c.For(c.Splat<uint32_t>(0), end, [&](Ctx& c, const Lanes<uint32_t>& i) {
      c.Assign(&acc, c.Add(acc, i));
    });
    c.Store(dout, tid, acc);
    co_return;
  });
  ASSERT_TRUE(stats.ok());
  auto out = Download(&dev(), dout, 4);
  EXPECT_EQ(out[0], 0u);
  EXPECT_EQ(out[1], 0u);       // sum 0..0
  EXPECT_EQ(out[2], 0u + 1 + 2);
  EXPECT_EQ(out[3], 21u);      // sum 0..6
  // Imbalance bookkeeping: max trip 7 x 4 lanes possible, 11 useful.
  EXPECT_EQ(stats->counters.loop_lane_iters_possible, 7u * 4u);
  EXPECT_EQ(stats->counters.loop_lane_iters_useful, 0u + 1u + 3u + 7u);
}

TEST_F(ExecTest, WhileTerminatesPerLane) {
  // Collatz-ish: halve until 1; lane values need different trip counts.
  std::vector<uint32_t> vals{1, 2, 8, 64};
  auto dv = Upload(&dev(), vals);
  auto dout = dev().Alloc<uint32_t>(4).value();
  auto stats = dev().Launch("while", {1, 4}, [&](Ctx& c) -> KernelTask {
    auto tid = c.GlobalThreadId();
    auto x = c.Load(dv, tid);
    auto steps = c.Splat<uint32_t>(0);
    c.While([&](Ctx& c) { return c.Gt(x, 1u); },
            [&](Ctx& c) {
              c.Assign(&x, c.Shr(x, 1u));
              c.Assign(&steps, c.Add(steps, 1u));
            });
    c.Store(dout, tid, steps);
    co_return;
  });
  ASSERT_TRUE(stats.ok());
  auto out = Download(&dev(), dout, 4);
  EXPECT_EQ(out[0], 0u);
  EXPECT_EQ(out[1], 1u);
  EXPECT_EQ(out[2], 3u);
  EXPECT_EQ(out[3], 6u);
}

TEST_F(ExecTest, SelectPredicatesWithoutBranch) {
  auto dout = dev().Alloc<uint32_t>(4).value();
  auto stats = dev().Launch("select", {1, 4}, [&](Ctx& c) -> KernelTask {
    auto tid = c.GlobalThreadId();
    auto big = c.Ge(tid, 2u);
    c.Store(dout, tid,
            c.Select(big, c.Splat<uint32_t>(100), c.Splat<uint32_t>(200)));
    co_return;
  });
  ASSERT_TRUE(stats.ok());
  auto out = Download(&dev(), dout, 4);
  EXPECT_EQ(out[0], 200u);
  EXPECT_EQ(out[3], 100u);
  EXPECT_EQ(stats->counters.branches, 0u);
}

// ------------------------------------------------------------ collectives

TEST_F(ExecTest, ReductionsAndVotes) {
  auto dout = dev().Alloc<uint32_t>(2).value();
  auto stats = dev().Launch("reduce", {1, 8}, [&](Ctx& c) -> KernelTask {
    auto tid = c.GlobalThreadId();
    uint32_t sum = c.ReduceAdd(tid);
    bool any_big = c.Any(c.Gt(tid, 6u));
    bool all_big = c.All(c.Gt(tid, 6u));
    c.If(c.Eq(c.LaneId(), 0u), [&](Ctx& c) {
      c.Store(dout, c.Splat<uint32_t>(0), c.Splat(sum));
      c.Store(dout, c.Splat<uint32_t>(1),
              c.Splat<uint32_t>((any_big ? 1u : 0u) | (all_big ? 2u : 0u)));
    });
    co_return;
  });
  ASSERT_TRUE(stats.ok());
  auto out = Download(&dev(), dout, 2);
  EXPECT_EQ(out[0], 28u);  // 0+..+7
  EXPECT_EQ(out[1], 1u);  // any but not all
}

// -------------------------------------------------------------- atomics

TEST_F(ExecTest, AtomicAddSerializesSameAddress) {
  auto counter = dev().Alloc<uint32_t>(1).value();
  ASSERT_TRUE(dev().Memset(counter, 0, 1).ok());
  auto stats = dev().Launch("atomic", {4, 64}, [&](Ctx& c) -> KernelTask {
    c.AtomicAdd(counter, c.Splat<uint32_t>(0), c.Splat<uint32_t>(1));
    co_return;
  });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(Download(&dev(), counter, 1)[0], 256u);
}

TEST_F(ExecTest, AtomicAddReturnsUniqueOldValues) {
  auto counter = dev().Alloc<uint32_t>(1).value();
  ASSERT_TRUE(dev().Memset(counter, 0, 1).ok());
  auto slots = dev().Alloc<uint32_t>(32).value();
  auto stats = dev().Launch("ticket", {1, 32}, [&](Ctx& c) -> KernelTask {
    auto tid = c.GlobalThreadId();
    auto ticket = c.AtomicAdd(counter, c.Splat<uint32_t>(0),
                              c.Splat<uint32_t>(1));
    c.Store(slots, ticket, tid);
    co_return;
  });
  ASSERT_TRUE(stats.ok());
  auto out = Download(&dev(), slots, 32);
  std::vector<bool> seen(32, false);
  for (uint32_t v : out) {
    ASSERT_LT(v, 32u);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST_F(ExecTest, AtomicCasAndMin) {
  std::vector<uint32_t> init{100, 100};
  auto data = Upload(&dev(), init);
  auto stats = dev().Launch("casmin", {1, 4}, [&](Ctx& c) -> KernelTask {
    auto tid = c.GlobalThreadId();
    // All four lanes CAS slot 0 from 100 -> tid; only lane 0 wins.
    c.AtomicCas(data, c.Splat<uint32_t>(0), c.Splat<uint32_t>(100), tid);
    // Min over lane values on slot 1.
    c.AtomicMin(data, c.Splat<uint32_t>(1), c.Add(tid, 5u));
    co_return;
  });
  ASSERT_TRUE(stats.ok());
  auto out = Download(&dev(), data, 2);
  EXPECT_EQ(out[0], 0u);
  EXPECT_EQ(out[1], 5u);
}

TEST_F(ExecTest, AtomicExchLastLaneWins) {
  std::vector<uint32_t> init{0};
  auto data = Upload(&dev(), init);
  auto stats = dev().Launch("exch", {1, 4}, [&](Ctx& c) -> KernelTask {
    auto tid = c.GlobalThreadId();
    c.AtomicExch(data, c.Splat<uint32_t>(0), c.Add(tid, 1u));
    co_return;
  });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(Download(&dev(), data, 1)[0], 4u);  // lane order: last lane wins
}

// ---------------------------------------------------- shared mem + sync

TEST_F(ExecTest, SharedMemoryReverseWithBarrier) {
  auto dout = dev().Alloc<uint32_t>(64).value();
  vgpu::LaunchDims dims{1, 64, 64 * 4};
  auto stats = dev().Launch("reverse", dims, [&](Ctx& c) -> KernelTask {
    SmemPtr<uint32_t> buf{0};
    auto tid = c.BlockThreadId();
    c.SharedStore(buf, tid, tid);
    co_await c.Sync();
    auto rev = c.Sub(c.Splat<uint32_t>(63), tid);
    c.Store(dout, tid, c.SharedLoad(buf, rev));
    co_return;
  });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  auto out = Download(&dev(), dout, 64);
  for (uint32_t i = 0; i < 64; ++i) EXPECT_EQ(out[i], 63 - i);
  EXPECT_GT(stats->counters.barriers, 0u);
  EXPECT_EQ(stats->counters.shared_store_inst, 2u);  // 2 warps x 1 store
  EXPECT_EQ(stats->counters.shared_load_inst, 2u);
}

TEST_F(ExecTest, SharedAtomicsAccumulate) {
  auto dout = dev().Alloc<uint32_t>(1).value();
  vgpu::LaunchDims dims{1, 64, 16};
  auto stats = dev().Launch("satomic", dims, [&](Ctx& c) -> KernelTask {
    SmemPtr<uint32_t> acc{0};
    auto zero = c.Splat<uint32_t>(0);
    c.If(c.Eq(c.BlockThreadId(), 0u), [&](Ctx& c) {
      c.SharedStore(acc, zero, c.Splat<uint32_t>(0));
    });
    co_await c.Sync();
    c.SharedAtomicAdd(acc, zero, c.Splat<uint32_t>(2));
    co_await c.Sync();
    c.If(c.Eq(c.BlockThreadId(), 0u), [&](Ctx& c) {
      c.Store(dout, zero, c.SharedLoad(acc, zero));
    });
    co_return;
  });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(Download(&dev(), dout, 1)[0], 128u);
}

TEST_F(ExecTest, BarrierDeadlockDetected) {
  // Warp 0 exits early; warp 1 waits at a barrier -> deadlock.
  vgpu::LaunchDims dims{1, 64, 16};
  auto stats = dev().Launch("deadlock", dims, [&](Ctx& c) -> KernelTask {
    if (c.warp_in_block() == 0) co_return;
    co_await c.Sync();
    co_return;
  });
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kDeadlock);
}

// --------------------------------------------------- launch shapes/masks

TEST_F(ExecTest, PartialWarpMasksTailLanes) {
  auto counter = dev().Alloc<uint32_t>(1).value();
  ASSERT_TRUE(dev().Memset(counter, 0, 1).ok());
  // 70 threads = 2 full warps + 6 lanes.
  auto stats = dev().Launch("partial", {1, 70}, [&](Ctx& c) -> KernelTask {
    c.AtomicAdd(counter, c.Splat<uint32_t>(0), c.Splat<uint32_t>(1));
    co_return;
  });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(Download(&dev(), counter, 1)[0], 70u);
  EXPECT_EQ(stats->counters.warps_launched, 3u);
}

TEST_F(ExecTest, GridSpansBlocks) {
  auto dout = dev().Alloc<uint32_t>(1024).value();
  auto stats = dev().Launch("grid", {8, 128}, [&](Ctx& c) -> KernelTask {
    auto tid = c.GlobalThreadId();
    c.Store(dout, tid, c.Mul(tid, 2u));
    co_return;
  });
  ASSERT_TRUE(stats.ok());
  auto out = Download(&dev(), dout, 1024);
  EXPECT_EQ(out[0], 0u);
  EXPECT_EQ(out[1023], 2046u);
  EXPECT_EQ(stats->counters.blocks_launched, 8u);
}

TEST_F(ExecTest, InvalidLaunchesRejected) {
  auto nop = [](Ctx&) -> KernelTask { co_return; };
  EXPECT_FALSE(dev().Launch("bad", {0, 32}, nop).ok());
  EXPECT_FALSE(dev().Launch("bad", {1, 0}, nop).ok());
  EXPECT_FALSE(dev().Launch("bad", {1, 2048}, nop).ok());
  vgpu::LaunchDims huge_smem{1, 32, 10 << 20};
  EXPECT_FALSE(dev().Launch("bad", huge_smem, nop).ok());
}


TEST_F(ExecTest, DoubleArithmeticAndCompare) {
  std::vector<double> a{1.5, -2.25, 1e12, 0.0};
  auto da = Upload(&dev(), a);
  auto dout = dev().Alloc<double>(8).value();
  auto flags = dev().Alloc<uint32_t>(4).value();
  auto stats = dev().Launch("dbl", {1, 4}, [&](Ctx& c) -> KernelTask {
    auto tid = c.GlobalThreadId();
    auto x = c.Load(da, tid);
    c.Store(dout, tid, c.Mul(x, 2.0));
    c.Store(dout, c.Add(tid, 4u), c.Max(x, 0.5));
    auto positive = c.Gt(x, 0.0);
    c.Store(flags, tid,
            c.Select(positive, c.Splat<uint32_t>(1), c.Splat<uint32_t>(0)));
    co_return;
  });
  ASSERT_TRUE(stats.ok());
  auto out = Download(&dev(), dout, 8);
  EXPECT_DOUBLE_EQ(out[0], 3.0);
  EXPECT_DOUBLE_EQ(out[1], -4.5);
  EXPECT_DOUBLE_EQ(out[2], 2e12);
  EXPECT_DOUBLE_EQ(out[4], 1.5);
  EXPECT_DOUBLE_EQ(out[5], 0.5);
  auto f = Download(&dev(), flags, 4);
  EXPECT_EQ(f[0], 1u);
  EXPECT_EQ(f[1], 0u);
  EXPECT_EQ(f[3], 0u);
}

TEST_F(ExecTest, AtomicMaxTakesLargest) {
  std::vector<uint32_t> init{10};
  auto data = Upload(&dev(), init);
  auto stats = dev().Launch("amax", {1, 32}, [&](Ctx& c) -> KernelTask {
    auto tid = c.GlobalThreadId();
    c.AtomicMax(data, c.Splat<uint32_t>(0), c.Mul(tid, 3u));
    co_return;
  });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(Download(&dev(), data, 1)[0], 93u);  // max(10, 31*3)
}

TEST_F(ExecTest, CtzAndBitNot) {
  std::vector<uint64_t> a{0b1000, 1, 0, ~uint64_t{0}};
  auto da = Upload(&dev(), a);
  auto dout = dev().Alloc<uint32_t>(8).value();
  auto stats = dev().Launch("ctz", {1, 4}, [&](Ctx& c) -> KernelTask {
    auto tid = c.GlobalThreadId();
    auto x = c.Load(da, tid);
    c.Store(dout, tid, c.Ctz(x));
    c.Store(dout, c.Add(tid, 4u), c.Ctz(c.BitNot(x)));
    co_return;
  });
  ASSERT_TRUE(stats.ok());
  auto out = Download(&dev(), dout, 8);
  EXPECT_EQ(out[0], 3u);
  EXPECT_EQ(out[1], 0u);
  EXPECT_EQ(out[2], 64u);   // ctz(0) = width
  EXPECT_EQ(out[3], 0u);
  EXPECT_EQ(out[6], 0u);    // ~0 has bit 0 set
  EXPECT_EQ(out[7], 64u);   // ~~0 = 0
}

TEST_F(ExecTest, WhileInsideDivergentIf) {
  // Only lanes >= 4 run the loop; others' values stay untouched.
  auto dout = dev().Alloc<uint32_t>(8).value();
  ASSERT_TRUE(dev().Memset(dout, 0, 8).ok());
  auto stats = dev().Launch("nestwhile", {1, 8}, [&](Ctx& c) -> KernelTask {
    auto tid = c.GlobalThreadId();
    c.If(c.Ge(tid, 4u), [&](Ctx& c) {
      auto x = tid;
      c.While([&](Ctx& c) { return c.Lt(x, 16u); },
              [&](Ctx& c) { c.Assign(&x, c.Shl(x, 1u)); });
      c.Store(dout, tid, x);
    });
    co_return;
  });
  ASSERT_TRUE(stats.ok());
  auto out = Download(&dev(), dout, 8);
  EXPECT_EQ(out[0], 0u);
  EXPECT_EQ(out[3], 0u);
  EXPECT_EQ(out[4], 16u);  // 4 -> 8 -> 16
  EXPECT_EQ(out[5], 20u);  // 5 -> 10 -> 20
  EXPECT_EQ(out[7], 28u);  // 7 -> 14 -> 28
}

TEST(WideWarpTest, PartialWavefrontMasksAndReduces) {
  Device dev(TestArch(Paradigm::kSimd, 64));
  auto dout = dev.Alloc<uint32_t>(2).value();
  // 80 threads on width 64: warp 0 full, warp 1 has 16 lanes.
  auto stats = dev.Launch("partial64", {1, 80}, [&](Ctx& c) -> KernelTask {
    auto tid = c.GlobalThreadId();
    uint32_t sum = c.ReduceAdd(tid);
    c.If(c.Eq(c.LaneId(), 0u), [&](Ctx& c) {
      auto idx = c.Splat<uint32_t>(c.warp_in_block());
      c.Store(dout, idx, c.Splat(sum));
    });
    co_return;
  });
  ASSERT_TRUE(stats.ok());
  auto out = Download(&dev, dout, 2);
  EXPECT_EQ(out[0], 64u * 63u / 2u);                 // 0..63
  EXPECT_EQ(out[1], (64u + 79u) * 16u / 2u);         // 64..79
  EXPECT_EQ(stats->counters.warps_launched, 2u);
}

// ------------------------------------------------ paradigm counter deltas

TEST(ParadigmTest, WiderWavefrontDivergesWhereWarp32DoesNot) {
  // Condition tid < 32 splits a 64-wide wavefront but no 32-wide warp.
  for (auto [paradigm, width, expect_divergent] :
       {std::tuple{Paradigm::kSimt, 32u, 0u},
        std::tuple{Paradigm::kSimd, 64u, 1u}}) {
    Device dev(TestArch(paradigm, width));
    auto dout = dev.Alloc<uint32_t>(64).value();
    auto stats = dev.Launch("halfsplit", {1, 64}, [&](Ctx& c) -> KernelTask {
      auto tid = c.GlobalThreadId();
      c.If(c.Lt(tid, 32u), [&](Ctx& c) {
        c.Store(dout, tid, c.Splat<uint32_t>(1));
      });
      co_return;
    });
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->counters.divergent_branches, expect_divergent)
        << "paradigm width " << width;
  }
}

TEST(ParadigmTest, SimdChargesScalarMaskOps) {
  auto run = [](Paradigm paradigm) {
    Device dev(TestArch(paradigm, paradigm == Paradigm::kSimd ? 64 : 32));
    auto dout = dev.Alloc<uint32_t>(64).value();
    auto stats = dev.Launch("diverge", {1, 32}, [&](Ctx& c) -> KernelTask {
      auto tid = c.GlobalThreadId();
      c.If(c.Lt(tid, 16u), [&](Ctx& c) {
        c.Store(dout, tid, c.Splat<uint32_t>(1));
      });
      co_return;
    });
    return stats->counters.scalar_inst;
  };
  EXPECT_EQ(run(Paradigm::kSimt), 0u);
  EXPECT_GT(run(Paradigm::kSimd), 0u);
}

TEST(ParadigmTest, SimtOverlapsDivergentLatencySimdDoesNot) {
  auto saved = [](Paradigm paradigm) {
    Device dev(TestArch(paradigm, 32));
    auto data = dev.Alloc<uint32_t>(1 << 16).value();
    auto stats = dev.Launch("latency", {1, 32}, [&](Ctx& c) -> KernelTask {
      auto tid = c.GlobalThreadId();
      c.If(c.Lt(tid, 16u), [&](Ctx& c) {
        // Scattered loads inside a divergent region.
        auto idx = c.Mul(tid, 999u);
        c.Load(data, c.Rem(idx, c.Splat(1u << 16)));
      });
      co_return;
    });
    return stats->counters.simt_overlap_saved_cycles;
  };
  EXPECT_GT(saved(Paradigm::kSimt), 0.0);
  EXPECT_EQ(saved(Paradigm::kSimd), 0.0);
}

// --------------------------------------------------------- memory counters

TEST_F(ExecTest, CoalescingReflectedInGldEfficiency) {
  auto data = dev().Alloc<uint32_t>(1 << 16).value();
  auto seq = dev().Launch("seq", {1, 32}, [&](Ctx& c) -> KernelTask {
    auto tid = c.GlobalThreadId();
    c.Load(data, tid);
    co_return;
  });
  ASSERT_TRUE(seq.ok());
  EXPECT_NEAR(seq->counters.gld_efficiency(), 1.0, 1e-9);

  auto scat = dev().Launch("scat", {1, 32}, [&](Ctx& c) -> KernelTask {
    auto tid = c.GlobalThreadId();
    c.Load(data, c.Mul(tid, 512u));
    co_return;
  });
  ASSERT_TRUE(scat.ok());
  EXPECT_LT(scat->counters.gld_efficiency(), 0.2);
  EXPECT_EQ(scat->counters.global_ld_transactions, 32u);
}

TEST_F(ExecTest, CacheHitsWarmAcrossLaunches) {
  auto data = dev().Alloc<uint32_t>(64).value();
  auto once = [&]() {
    return dev().Launch("touch", {1, 32}, [&](Ctx& c) -> KernelTask {
      c.Load(data, c.GlobalThreadId());
      co_return;
    });
  };
  dev().ClearCaches();
  auto cold = once();
  auto warm = once();
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  EXPECT_GT(cold->counters.l1_misses, 0u);
  EXPECT_EQ(warm->counters.l1_misses, 0u);
  EXPECT_GT(warm->counters.l1_hits, 0u);
}

TEST_F(ExecTest, InstructionCountersTrackClasses) {
  auto data = dev().Alloc<uint32_t>(256).value();
  vgpu::LaunchDims dims{1, 32, 256};
  auto stats = dev().Launch("classes", dims, [&](Ctx& c) -> KernelTask {
    SmemPtr<uint32_t> buf{0};
    auto tid = c.GlobalThreadId();
    auto x = c.Load(data, tid);                    // 1 global load
    auto y = c.Add(x, 1u);                         // 1 valu
    c.SharedStore(buf, c.LaneId(), y);             // 1 shared store
    auto z = c.SharedLoad(buf, c.LaneId());        // 1 shared load
    c.Store(data, tid, z);                         // 1 global store
    co_return;
  });
  ASSERT_TRUE(stats.ok());
  const auto& k = stats->counters;
  EXPECT_EQ(k.global_load_inst, 1u);
  EXPECT_EQ(k.global_store_inst, 1u);
  EXPECT_EQ(k.shared_store_inst, 1u);
  EXPECT_EQ(k.shared_load_inst, 1u);
  EXPECT_GE(k.valu_warp_inst, 1u);
  EXPECT_EQ(k.warp_inst_issued,
            k.valu_warp_inst + k.global_load_inst + k.global_store_inst +
                k.shared_load_inst + k.shared_store_inst);
}

// ------------------------------------------------------------ job reuse

TEST_F(ExecTest, ResetCountersGivesFreshProfilingState) {
  auto data = dev().Alloc<uint32_t>(64).value();
  auto run_one = [&]() -> KernelStats {
    auto stats = dev().Launch("touch", {1, 32}, [&](Ctx& c) -> KernelTask {
      auto v = c.Load(data, c.GlobalThreadId());
      c.Store(data, c.GlobalThreadId(), c.Add(v, 1u));
      co_return;
    });
    EXPECT_TRUE(stats.ok());
    return std::move(stats).ValueOr(KernelStats{});
  };

  KernelStats first = run_one();
  ASSERT_GT(dev().elapsed_ms(), 0);
  ASSERT_EQ(dev().kernel_log().size(), 1u);
  std::vector<uint32_t> host(64, 7);
  ASSERT_TRUE(dev().CopyToDevice(data, host.data(), host.size()).ok());
  ASSERT_GT(dev().transfer_ms(), 0);
  uint64_t used_before = dev().memory_used_bytes();

  dev().ResetCounters();
  // Clocks, log, and caches are fresh; allocations survive.
  EXPECT_EQ(dev().elapsed_ms(), 0);
  EXPECT_EQ(dev().transfer_ms(), 0);
  EXPECT_TRUE(dev().kernel_log().empty());
  EXPECT_EQ(dev().memory_used_bytes(), used_before);

  // A second, identical job sees exactly the first job's profile — no
  // cache warmth or clock carry-over from the previous run (the
  // scheduler-reuse contract).
  KernelStats second = run_one();
  ASSERT_EQ(dev().kernel_log().size(), 1u);
  EXPECT_EQ(second.time_ms, first.time_ms);
  EXPECT_EQ(second.counters.l1_hits, first.counters.l1_hits);
  EXPECT_EQ(second.counters.l1_misses, first.counters.l1_misses);
  EXPECT_EQ(second.counters.warp_inst_issued, first.counters.warp_inst_issued);
  EXPECT_EQ(dev().elapsed_ms(), second.time_ms);
}

}  // namespace
}  // namespace adgraph::vgpu
