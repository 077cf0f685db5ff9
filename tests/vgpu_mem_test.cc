#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/random.h"
#include "vgpu/mem/address_space.h"
#include "vgpu/mem/cache.h"
#include "vgpu/mem/coalescer.h"
#include "vgpu/mem/shared_mem.h"

namespace adgraph::vgpu {
namespace {

// ---------------------------------------------------------- AddressSpace

TEST(AddressSpaceTest, AllocatesDistinctAlignedAddresses) {
  AddressSpace mem(1 << 20);
  auto a = mem.Allocate(100);
  auto b = mem.Allocate(100);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(a.value() % 256, 0u);
  EXPECT_EQ(b.value() % 256, 0u);
  EXPECT_NE(a.value(), 0u) << "null address must never be handed out";
}

TEST(AddressSpaceTest, EnforcesCapacity) {
  AddressSpace mem(1024);
  auto a = mem.Allocate(512);
  ASSERT_TRUE(a.ok());
  auto b = mem.Allocate(1024);
  ASSERT_FALSE(b.ok());
  EXPECT_TRUE(b.status().IsOutOfMemory());
}

TEST(AddressSpaceTest, FreeMakesRoom) {
  AddressSpace mem(1024);
  auto a = mem.Allocate(768);
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(mem.Allocate(768).ok());
  ASSERT_TRUE(mem.Free(a.value()).ok());
  EXPECT_TRUE(mem.Allocate(768).ok());
}

TEST(AddressSpaceTest, ReusesFreedBlocksFirstFit) {
  AddressSpace mem(1 << 20);
  uint64_t a = mem.Allocate(256).value();
  uint64_t b = mem.Allocate(256).value();
  (void)b;
  ASSERT_TRUE(mem.Free(a).ok());
  uint64_t c = mem.Allocate(128).value();
  EXPECT_EQ(c, a) << "freed block should be reused";
}

TEST(AddressSpaceTest, CoalescesAdjacentFreeBlocks) {
  AddressSpace mem(4096);
  uint64_t a = mem.Allocate(1024).value();
  uint64_t b = mem.Allocate(1024).value();
  uint64_t c = mem.Allocate(1024).value();
  (void)c;
  ASSERT_TRUE(mem.Free(a).ok());
  ASSERT_TRUE(mem.Free(b).ok());
  // a+b coalesced: a 2048-byte request fits in the hole.
  auto d = mem.Allocate(2048);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value(), a);
}

TEST(AddressSpaceTest, FreeUnknownAddressFails) {
  AddressSpace mem(4096);
  EXPECT_FALSE(mem.Free(12345).ok());
  EXPECT_TRUE(mem.Free(0).ok()) << "freeing null is a no-op";
}

TEST(AddressSpaceTest, UsedAndPeakTracking) {
  AddressSpace mem(1 << 20);
  EXPECT_EQ(mem.used_bytes(), 0u);
  uint64_t a = mem.Allocate(1000).value();  // rounds to 1024
  EXPECT_EQ(mem.used_bytes(), 1024u);
  uint64_t b = mem.Allocate(10).value();  // rounds to 256
  EXPECT_EQ(mem.used_bytes(), 1280u);
  ASSERT_TRUE(mem.Free(a).ok());
  ASSERT_TRUE(mem.Free(b).ok());
  EXPECT_EQ(mem.used_bytes(), 0u);
  EXPECT_EQ(mem.peak_used_bytes(), 1280u);
}

TEST(AddressSpaceTest, ReadWriteRoundTrip) {
  AddressSpace mem(1 << 16);
  uint64_t addr = mem.Allocate(64).value();
  uint32_t data[4] = {1, 2, 3, 4};
  mem.Write(addr, data, sizeof(data));
  uint32_t back[4] = {};
  mem.Read(addr, back, sizeof(back));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(back[i], data[i]);
  EXPECT_EQ(mem.Load<uint32_t>(addr + 8), 3u);
  mem.Store<uint32_t>(addr + 8, 99);
  EXPECT_EQ(mem.Load<uint32_t>(addr + 8), 99u);
}

TEST(AddressSpaceTest, FillWritesBytes) {
  AddressSpace mem(1 << 16);
  uint64_t addr = mem.Allocate(16).value();
  mem.Fill(addr, 0xAB, 16);
  EXPECT_EQ(mem.Load<uint8_t>(addr + 15), 0xAB);
}

TEST(AddressSpaceTest, ZeroByteAllocationGetsUniqueAddress) {
  AddressSpace mem(1 << 16);
  uint64_t a = mem.Allocate(0).value();
  uint64_t b = mem.Allocate(0).value();
  EXPECT_NE(a, b);
}

// ---------------------------------------------------------------- Cache

TEST(CacheTest, MissThenHit) {
  CacheModel cache(1024, 64, 4);
  EXPECT_FALSE(cache.Access(0));
  EXPECT_TRUE(cache.Access(0));
  EXPECT_TRUE(cache.Access(63)) << "same line";
  EXPECT_FALSE(cache.Access(64)) << "next line";
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(CacheTest, LruEvictionWithinSet) {
  // 4 sets x 2 ways x 64B lines = 512 B.
  CacheModel cache(512, 64, 2);
  // Lines 0, 4, 8 all map to set 0 (line % 4).
  uint64_t l0 = 0 * 64, l4 = 4 * 64, l8 = 8 * 64;
  EXPECT_FALSE(cache.Access(l0));
  EXPECT_FALSE(cache.Access(l4));
  EXPECT_TRUE(cache.Access(l0));   // refresh l0
  EXPECT_FALSE(cache.Access(l8));  // evicts l4 (LRU)
  EXPECT_TRUE(cache.Access(l0));
  EXPECT_FALSE(cache.Access(l4)) << "l4 was evicted";
}

TEST(CacheTest, ZeroSizeNeverHits) {
  CacheModel cache(0, 64, 4);
  EXPECT_FALSE(cache.Access(0));
  EXPECT_FALSE(cache.Access(0));
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(CacheTest, ClearForgetsEverything) {
  CacheModel cache(1024, 64, 4);
  cache.Access(0);
  EXPECT_TRUE(cache.Access(0));
  cache.Clear();
  EXPECT_FALSE(cache.Access(0));
}

TEST(CacheTest, WorkingSetWithinCapacityAllHits) {
  CacheModel cache(8192, 64, 4);  // 128 lines
  for (uint64_t line = 0; line < 64; ++line) cache.Access(line * 64);
  uint64_t misses_before = cache.misses();
  for (int round = 0; round < 3; ++round) {
    for (uint64_t line = 0; line < 64; ++line) {
      EXPECT_TRUE(cache.Access(line * 64));
    }
  }
  EXPECT_EQ(cache.misses(), misses_before);
}

// ------------------------------------------- Cache vs division reference

/// The cache model with a division for the line, the set and the tag, a
/// valid flag per way and a Clear that rewrites every way: the
/// straightforward form that CacheModel must match access for access.
class DivisionCacheModel {
 public:
  DivisionCacheModel(uint64_t size_bytes, uint32_t line_bytes,
                     uint32_t associativity)
      : line_bytes_(line_bytes),
        assoc_(std::max<uint32_t>(associativity, 1)),
        num_sets_(size_bytes / (static_cast<uint64_t>(line_bytes_) * assoc_)),
        ways_(num_sets_ * assoc_) {}

  bool Access(uint64_t addr) {
    if (num_sets_ == 0) {
      ++misses_;
      return false;
    }
    uint64_t line = addr / line_bytes_;
    uint64_t set = line % num_sets_;
    uint64_t tag = line / num_sets_;
    Way* base = &ways_[set * assoc_];
    ++stamp_;
    for (uint32_t w = 0; w < assoc_; ++w) {
      if (base[w].valid && base[w].tag == tag) {
        base[w].lru = stamp_;
        ++hits_;
        return true;
      }
    }
    Way* victim = base;
    for (uint32_t w = 1; w < assoc_; ++w) {
      if (!victim->valid) break;
      if (!base[w].valid || base[w].lru < victim->lru) victim = &base[w];
    }
    victim->valid = true;
    victim->tag = tag;
    victim->lru = stamp_;
    ++misses_;
    return false;
  }

  void Clear() {
    for (auto& way : ways_) way = Way{};
  }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  struct Way {
    uint64_t tag = ~0ull;
    uint64_t lru = 0;
    bool valid = false;
  };

  uint32_t line_bytes_;
  uint32_t assoc_;
  uint64_t num_sets_;
  uint64_t stamp_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  std::vector<Way> ways_;
};

/// A line number from one of five kinds: a dense block (hits and set
/// conflicts), the whole 32-bit range, the edge of the multiply-based set
/// index's range, lines from 2^40 to 2^55 (where that multiply would be
/// wrong for a set count like 20480), and lines congruent modulo `sets`
/// below 2^32 or past 2^54.  Those share one set and evict each other, so
/// a set index that is wrong for them changes the hit count.
uint64_t RandomLine(Rng& rng, uint64_t sets) {
  switch (rng.Uniform(5)) {
    case 0:
      return rng.Uniform(1 << 12);
    case 1:
      return rng.Uniform(uint64_t{1} << 32);
    case 2:
      return (uint64_t{1} << 32) - 64 + rng.Uniform(128);
    case 3:
      return (uint64_t{1} << 40) + rng.Uniform(uint64_t{1} << 55);
    default: {
      const uint64_t base = rng.Bernoulli(0.5) ? 12345 : uint64_t{1} << 54;
      return base + rng.Uniform(32) * std::max<uint64_t>(sets, 1);
    }
  }
}

TEST(CacheReferenceTest, MatchesDivisionModelAccessForAccess) {
  Rng rng(23);
  uint64_t clears = 0;
  uint64_t hits = 0;
  for (uint64_t sets : {0, 1, 2, 3, 256, 640, 1024, 20480}) {
    for (uint32_t assoc : {1u, 2u, 3u, 4u, 16u}) {
      for (uint32_t line_bytes : {32u, 64u, 128u, 256u}) {
        // A size just short of one more set rounds down to `sets`.
        const uint64_t size = (sets + 1) * assoc * line_bytes - 1;
        CacheModel cache(size, line_bytes, assoc);
        DivisionCacheModel ref(size, line_bytes, assoc);
        std::vector<uint64_t> recent(64);
        for (uint64_t& line : recent) line = RandomLine(rng, sets);
        for (int i = 0; i < 3000; ++i) {
          if (rng.Uniform(400) == 0) {
            cache.Clear();
            ref.Clear();
            ++clears;
          }
          uint64_t& slot = recent[rng.Uniform(recent.size())];
          if (rng.Bernoulli(0.4)) slot = RandomLine(rng, sets);
          const uint64_t addr = slot * line_bytes + rng.Uniform(line_bytes);
          const bool hit = ref.Access(addr);
          ASSERT_EQ(cache.Access(addr), hit)
              << sets << " sets x " << assoc << " ways x " << line_bytes
              << " B, access " << i << ", address " << addr;
          hits += hit;
        }
        EXPECT_EQ(cache.hits(), ref.hits());
        EXPECT_EQ(cache.misses(), ref.misses());
      }
    }
  }
  EXPECT_GT(clears, 100u);
  EXPECT_GT(hits, 100000u);
}

TEST(CacheReferenceTest, LineSizeMustBeAPowerOfTwo) {
  EXPECT_DEATH(CacheModel(4096, 96, 4), "not a power of two");
  EXPECT_DEATH(CacheModel(4096, 0, 4), "not a power of two");
}

// ------------------------------------------------------------- Coalescer

Lanes<uint64_t> AddrsFrom(std::initializer_list<uint64_t> list) {
  Lanes<uint64_t> out;
  uint32_t i = 0;
  for (uint64_t a : list) out[i++] = a;
  return out;
}

TEST(CoalescerTest, SequentialAccessFullyCoalesces) {
  Lanes<uint64_t> addrs;
  for (uint32_t i = 0; i < 32; ++i) addrs[i] = i * 4;
  auto result = Coalesce(addrs, FullMask(32), 4, 32);
  EXPECT_EQ(result.size(), 4u);  // 128 bytes / 32
  EXPECT_EQ(result.bytes_requested, 128u);
  EXPECT_EQ(result.bytes_transferred, 128u);
}

TEST(CoalescerTest, ScatteredAccessOneSegmentPerLane) {
  Lanes<uint64_t> addrs;
  for (uint32_t i = 0; i < 32; ++i) addrs[i] = i * 1000;
  auto result = Coalesce(addrs, FullMask(32), 4, 32);
  EXPECT_EQ(result.size(), 32u);
  EXPECT_EQ(result.bytes_requested, 128u);
  EXPECT_EQ(result.bytes_transferred, 32u * 32u);
}

TEST(CoalescerTest, SameAddressBroadcastsToOneSegment) {
  Lanes<uint64_t> addrs = Lanes<uint64_t>::Splat(512);
  auto result = Coalesce(addrs, FullMask(64), 8, 32);
  EXPECT_EQ(result.size(), 1u);
  EXPECT_EQ(result.bytes_requested, 64u * 8u);
  EXPECT_EQ(result.bytes_transferred, 32u);
}

TEST(CoalescerTest, InactiveLanesIgnored) {
  auto addrs = AddrsFrom({0, 4096, 8192});
  auto result = Coalesce(addrs, 0b001, 4, 32);  // only lane 0 active
  EXPECT_EQ(result.size(), 1u);
  EXPECT_EQ(result.bytes_requested, 4u);
}

TEST(CoalescerTest, StraddlingAccessTouchesTwoSegments) {
  auto addrs = AddrsFrom({30});  // 8-byte access crossing the 32B boundary
  auto result = Coalesce(addrs, 0b1, 8, 32);
  EXPECT_EQ(result.size(), 2u);
  EXPECT_EQ(result.bytes_transferred, 64u);
}

TEST(CoalescerTest, EmptyMaskProducesNothing) {
  Lanes<uint64_t> addrs = Lanes<uint64_t>::Splat(0);
  auto result = Coalesce(addrs, 0, 4, 32);
  EXPECT_TRUE((result.size() == 0));
  EXPECT_EQ(result.bytes_requested, 0u);
  EXPECT_EQ(result.bytes_transferred, 0u);
}

TEST(CoalescerTest, SegmentsSortedAndDeduplicated) {
  auto addrs = AddrsFrom({96, 0, 96, 32});
  auto result = Coalesce(addrs, 0b1111, 4, 32);
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result.segment_addrs[0], 0u);
  EXPECT_EQ(result.segment_addrs[1], 32u);
  EXPECT_EQ(result.segment_addrs[2], 96u);
}

/// Coalescing by division: every touched segment of every active lane,
/// sorted and deduplicated.
struct DivisionCoalesced {
  std::vector<uint64_t> segments;
  uint64_t bytes_requested = 0;
  uint64_t bytes_transferred = 0;
};

DivisionCoalesced DivisionCoalesce(const Lanes<uint64_t>& addrs,
                                   LaneMask active, uint32_t access_bytes,
                                   uint32_t segment_bytes) {
  DivisionCoalesced out;
  for (uint32_t lane = 0; lane < kMaxWarpWidth; ++lane) {
    if (!LaneActive(active, lane)) continue;
    out.bytes_requested += access_bytes;
    for (uint64_t seg = addrs[lane] / segment_bytes;
         seg <= (addrs[lane] + access_bytes - 1) / segment_bytes; ++seg) {
      out.segments.push_back(seg * segment_bytes);
    }
  }
  std::sort(out.segments.begin(), out.segments.end());
  out.segments.erase(std::unique(out.segments.begin(), out.segments.end()),
                     out.segments.end());
  out.bytes_transferred = out.segments.size() * segment_bytes;
  return out;
}

TEST(CoalescerReferenceTest, MatchesDivisionCoalescing) {
  Rng rng(48);
  uint64_t straddles = 0;
  for (int round = 0; round < 20000; ++round) {
    const uint32_t access_bytes = 1 + static_cast<uint32_t>(rng.Uniform(16));
    const uint32_t segment_bytes = 16u << rng.Uniform(4);  // 16 .. 128
    const LaneMask active = rng.Next64() & FullMask(rng.Bernoulli(0.5) ? 32 : 64);
    // Lanes cluster within a few segments of one base (coalescing and
    // duplicates) or scatter; clustered accesses often straddle a boundary.
    const uint64_t base = rng.Uniform(uint64_t{1} << 40);
    const bool clustered = rng.Bernoulli(0.7);
    Lanes<uint64_t> addrs;
    for (uint32_t lane = 0; lane < kMaxWarpWidth; ++lane) {
      addrs[lane] = clustered ? base + rng.Uniform(4 * segment_bytes)
                              : rng.Uniform(uint64_t{1} << 40);
      if (LaneActive(active, lane) &&
          addrs[lane] / segment_bytes !=
              (addrs[lane] + access_bytes - 1) / segment_bytes) {
        ++straddles;
      }
    }
    const CoalesceResult got =
        Coalesce(addrs, active, access_bytes, segment_bytes);
    const DivisionCoalesced want =
        DivisionCoalesce(addrs, active, access_bytes, segment_bytes);
    ASSERT_EQ(std::vector<uint64_t>(got.begin(), got.end()), want.segments)
        << "round " << round;
    ASSERT_EQ(got.bytes_requested, want.bytes_requested) << "round " << round;
    ASSERT_EQ(got.bytes_transferred, want.bytes_transferred)
        << "round " << round;
  }
  EXPECT_GT(straddles, 10000u);
}

// ---------------------------------------------------------- SharedMemory

TEST(SharedMemoryTest, LoadStoreRoundTrip) {
  SharedMemory smem(1024, 32);
  smem.Store<uint32_t>(16, 0xDEAD);
  EXPECT_EQ(smem.Load<uint32_t>(16), 0xDEADu);
  smem.Store<double>(24, 2.5);
  EXPECT_EQ(smem.Load<double>(24), 2.5);
}

TEST(SharedMemoryTest, FillResets) {
  SharedMemory smem(64, 32);
  smem.Store<uint32_t>(0, 77);
  smem.Fill(0);
  EXPECT_EQ(smem.Load<uint32_t>(0), 0u);
}

TEST(SharedMemoryTest, ConflictFreeSequential) {
  SharedMemory smem(4096, 32);
  Lanes<uint64_t> offsets;
  for (uint32_t i = 0; i < 32; ++i) offsets[i] = i * 4;  // distinct banks
  EXPECT_EQ(smem.ConflictDegree(offsets, FullMask(32), 4), 1u);
}

TEST(SharedMemoryTest, StrideOf32WordsConflictsFully) {
  SharedMemory smem(8192, 32);
  Lanes<uint64_t> offsets;
  for (uint32_t i = 0; i < 32; ++i) offsets[i] = i * 32 * 4;  // same bank
  EXPECT_EQ(smem.ConflictDegree(offsets, FullMask(32), 4), 32u);
}

TEST(SharedMemoryTest, BroadcastDoesNotConflict) {
  SharedMemory smem(4096, 32);
  Lanes<uint64_t> offsets = Lanes<uint64_t>::Splat(128);
  EXPECT_EQ(smem.ConflictDegree(offsets, FullMask(32), 4), 1u);
}

TEST(SharedMemoryTest, TwoWayConflict) {
  SharedMemory smem(4096, 32);
  Lanes<uint64_t> offsets;
  for (uint32_t i = 0; i < 32; ++i) {
    offsets[i] = (i % 16) * 4 + (i / 16) * 16 * 4 * 32;  // pairs share banks
  }
  EXPECT_EQ(smem.ConflictDegree(offsets, FullMask(32), 4), 2u);
}

TEST(SharedMemoryTest, EmptyMaskZeroDegree) {
  SharedMemory smem(4096, 32);
  Lanes<uint64_t> offsets;
  EXPECT_EQ(smem.ConflictDegree(offsets, 0, 4), 0u);
}

}  // namespace
}  // namespace adgraph::vgpu
