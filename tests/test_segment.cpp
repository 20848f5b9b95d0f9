// Segment-allocator tests: boundary-tag invariants, coalescing, alignment,
// exhaustion, plus a randomized property test of alloc/free sequences.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <random>
#include <vector>

#include "gex/segment.hpp"

using aspen::gex::segment_allocator;
using aspen::gex::segment_arena;

namespace {

struct arena_fixture {
  std::vector<std::byte> storage;
  segment_allocator alloc;
  explicit arena_fixture(std::size_t bytes)
      : storage(bytes + 64), alloc(aligned_base(), bytes) {}
  std::byte* aligned_base() {
    auto addr = reinterpret_cast<std::uintptr_t>(storage.data());
    return storage.data() + ((addr + 63) / 64 * 64 - addr);
  }
};

TEST(SegmentAllocator, BasicAllocateAndFree) {
  arena_fixture f(1 << 16);
  void* a = f.alloc.allocate(100);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(f.alloc.live_allocations(), 1u);
  EXPECT_GE(f.alloc.bytes_in_use(), 100u);
  f.alloc.deallocate(a);
  EXPECT_EQ(f.alloc.live_allocations(), 0u);
  EXPECT_EQ(f.alloc.bytes_in_use(), 0u);
  EXPECT_TRUE(f.alloc.check_integrity());
}

TEST(SegmentAllocator, DistinctNonOverlappingBlocks) {
  arena_fixture f(1 << 16);
  void* a = f.alloc.allocate(256);
  void* b = f.alloc.allocate(256);
  void* c = f.alloc.allocate(256);
  ASSERT_TRUE(a && b && c);
  std::memset(a, 0xAA, 256);
  std::memset(b, 0xBB, 256);
  std::memset(c, 0xCC, 256);
  EXPECT_EQ(static_cast<unsigned char*>(a)[255], 0xAA);
  EXPECT_EQ(static_cast<unsigned char*>(b)[0], 0xBB);
  EXPECT_EQ(static_cast<unsigned char*>(c)[128], 0xCC);
  f.alloc.deallocate(b);
  f.alloc.deallocate(a);
  f.alloc.deallocate(c);
  EXPECT_TRUE(f.alloc.check_integrity());
}

TEST(SegmentAllocator, CoalescingRestoresLargestBlock) {
  arena_fixture f(1 << 16);
  const std::size_t whole = f.alloc.largest_free_block();
  void* a = f.alloc.allocate(1000);
  void* b = f.alloc.allocate(1000);
  void* c = f.alloc.allocate(1000);
  EXPECT_LT(f.alloc.largest_free_block(), whole);
  // Free in an order that exercises both forward and backward coalescing.
  f.alloc.deallocate(b);
  f.alloc.deallocate(a);
  f.alloc.deallocate(c);
  EXPECT_EQ(f.alloc.largest_free_block(), whole);
  EXPECT_TRUE(f.alloc.check_integrity());
}

TEST(SegmentAllocator, ReuseAfterFree) {
  arena_fixture f(1 << 14);
  void* a = f.alloc.allocate(512);
  f.alloc.deallocate(a);
  void* b = f.alloc.allocate(512);
  EXPECT_EQ(a, b);  // first-fit reuses the same block
  f.alloc.deallocate(b);
}

TEST(SegmentAllocator, AlignmentHonored) {
  arena_fixture f(1 << 16);
  for (std::size_t align : {16u, 32u, 64u, 128u, 256u, 4096u}) {
    void* p = f.alloc.allocate(64, align);
    ASSERT_NE(p, nullptr) << "align " << align;
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
        << "align " << align;
    EXPECT_TRUE(f.alloc.check_integrity());
  }
}

TEST(SegmentAllocator, ExhaustionReturnsNull) {
  arena_fixture f(1 << 12);
  std::vector<void*> blocks;
  while (void* p = f.alloc.allocate(256)) blocks.push_back(p);
  EXPECT_FALSE(blocks.empty());
  EXPECT_EQ(f.alloc.allocate(256), nullptr);
  // Freeing one block makes allocation possible again.
  f.alloc.deallocate(blocks.back());
  blocks.pop_back();
  EXPECT_NE(f.alloc.allocate(256), nullptr);
  for (void* p : blocks) f.alloc.deallocate(p);
}

TEST(SegmentAllocator, TinyAndZeroSizedRequests) {
  arena_fixture f(1 << 14);
  void* a = f.alloc.allocate(0);  // rounded up to the minimum payload
  void* b = f.alloc.allocate(1);
  ASSERT_TRUE(a && b);
  EXPECT_NE(a, b);
  f.alloc.deallocate(a);
  f.alloc.deallocate(b);
  EXPECT_TRUE(f.alloc.check_integrity());
}

TEST(SegmentAllocator, DeallocateNullIsNoop) {
  arena_fixture f(1 << 12);
  f.alloc.deallocate(nullptr);
  EXPECT_TRUE(f.alloc.check_integrity());
}

// Property test: random alloc/free interleavings keep the heap consistent
// and never hand out overlapping memory.
class SegmentAllocatorFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(SegmentAllocatorFuzz, RandomWorkloadKeepsInvariants) {
  arena_fixture f(1 << 18);
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> size_dist(1, 2000);
  std::uniform_int_distribution<int> op_dist(0, 99);
  // value written into each block to detect overlap corruption
  std::map<void*, std::pair<std::size_t, unsigned char>> live;
  unsigned char next_tag = 1;

  for (int step = 0; step < 2000; ++step) {
    const bool do_alloc = live.empty() || op_dist(rng) < 60;
    if (do_alloc) {
      const auto sz = static_cast<std::size_t>(size_dist(rng));
      void* p = f.alloc.allocate(sz);
      if (p == nullptr) continue;  // exhausted is fine
      std::memset(p, next_tag, sz);
      live[p] = {sz, next_tag};
      next_tag = static_cast<unsigned char>(next_tag * 31 + 7);
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<long>(
                           rng() % static_cast<unsigned>(live.size())));
      auto [p, meta] = *it;
      auto [sz, tag] = meta;
      // The block's contents must be exactly what we wrote (no overlap).
      const auto* bytes = static_cast<unsigned char*>(p);
      for (std::size_t i = 0; i < sz; i += 97)
        ASSERT_EQ(bytes[i], tag) << "heap corruption at step " << step;
      f.alloc.deallocate(p);
      live.erase(it);
    }
    if (step % 100 == 0) {
      ASSERT_TRUE(f.alloc.check_integrity());
    }
  }
  for (auto& [p, meta] : live) f.alloc.deallocate(p);
  EXPECT_TRUE(f.alloc.check_integrity());
  EXPECT_EQ(f.alloc.live_allocations(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SegmentAllocatorFuzz,
                         ::testing::Values(1u, 2u, 3u, 42u, 1337u));

// --- arena ---------------------------------------------------------------

TEST(SegmentArena, OwnerResolution) {
  segment_arena arena(4, 1 << 16);
  EXPECT_EQ(arena.nranks(), 4);
  for (int r = 0; r < 4; ++r) {
    auto& seg = arena.of(r);
    EXPECT_EQ(seg.owner(), r);
    EXPECT_EQ(arena.owner_of(seg.base()), r);
    EXPECT_EQ(arena.owner_of(seg.base() + seg.size() - 1), r);
    EXPECT_TRUE(seg.contains(seg.base()));
    EXPECT_FALSE(seg.contains(seg.base() + seg.size()));
  }
  int outside = 0;
  EXPECT_EQ(arena.owner_of(&outside), -1);
}

TEST(SegmentArena, PerRankAllocatorsIndependent) {
  segment_arena arena(2, 1 << 14);
  void* a = arena.of(0).allocator().allocate(64);
  void* b = arena.of(1).allocator().allocate(64);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(arena.owner_of(a), 0);
  EXPECT_EQ(arena.owner_of(b), 1);
  arena.of(0).allocator().deallocate(a);
  arena.of(1).allocator().deallocate(b);
}

/// Resident bytes of this process (second field of /proc/self/statm), or
/// 0 when the file cannot be read.
std::size_t resident_bytes() {
  std::ifstream f("/proc/self/statm");
  std::size_t size_pages = 0, resident_pages = 0;
  if (!(f >> size_pages >> resident_pages)) return 0;
  return resident_pages * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

TEST(SegmentArena, InProcessArenaTouchesNoPagesUpFront) {
  // Every spmd() region builds one of these, so constructing it must not
  // fault in segment pages that no rank has touched yet.
  const std::size_t before = resident_bytes();
  if (before == 0) GTEST_SKIP() << "/proc/self/statm unreadable";
  segment_arena arena(4, std::size_t{64} << 20);
  const std::size_t after = resident_bytes();
  const std::size_t grown = after > before ? after - before : 0;
  EXPECT_LT(grown, std::size_t{16} << 20)
      << "constructing a 4 x 64 MiB arena made " << (grown >> 20)
      << " MiB resident";

  // Untouched segment memory still reads as zero.
  constexpr std::size_t kBytes = std::size_t{1} << 20;
  const auto* p = static_cast<const unsigned char*>(
      arena.of(3).allocator().allocate(kBytes));
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(
      std::all_of(p, p + kBytes, [](unsigned char b) { return b == 0; }));
}

}  // namespace
