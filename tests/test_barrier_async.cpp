// Asynchronous-barrier tests (ASPEN extension applying eager-notification
// semantics to collectives).
#include <gtest/gtest.h>

#include "core/aspen.hpp"

using namespace aspen;

namespace {

TEST(BarrierAsync, CompletesOnAllRanks) {
  aspen::spmd(4, [] {
    future<> f = barrier_async();
    f.wait();
    EXPECT_TRUE(f.ready());
  });
}

TEST(BarrierAsync, SingleRankIsImmediatelyReady) {
  aspen::spmd(1, [] {
    // Sole rank == last arriver: eager path, pooled ready future.
    (void)make_future();  // materialize the pool cell before counting
    const auto allocs = detail::cell_allocation_count();
    future<> f = barrier_async();
    EXPECT_TRUE(f.ready());
    EXPECT_EQ(detail::cell_allocation_count(), allocs);
  });
}

TEST(BarrierAsync, NotReadyUntilAllArrive) {
  // Set by rank 0's rpc_ff, which runs on rank 1's thread.
  static bool released;
  released = false;
  aspen::spmd(2, [] {
    if (rank_me() == 0) {
      future<> f = barrier_async();
      // Rank 1 waits on a flag before arriving, so f cannot be ready yet.
      EXPECT_FALSE(f.ready());
      // Release rank 1.
      rpc_ff(1, [] { released = true; });
      f.wait();
      EXPECT_TRUE(f.ready());
    } else {
      // Hold until rank 0 has checked non-readiness (its rpc_ff is the
      // release signal: it can only arrive after the check).
      while (!released) progress();
      barrier_async().wait();
    }
  });
}

TEST(BarrierAsync, OverlapsWithComputation) {
  aspen::spmd(4, [] {
    auto gp = new_<std::uint64_t>(0);
    future<> f = barrier_async();
    // Useful work while the barrier completes in the background.
    std::uint64_t acc = 1;
    for (int i = 0; i < 1000; ++i) acc = acc * 31 + 7;
    rput(acc, gp).wait();
    f.wait();
    EXPECT_EQ(*gp.local(), acc);
    barrier();
    delete_(gp);
  });
}

TEST(BarrierAsync, EpochsCompleteInOrder) {
  aspen::spmd(3, [] {
    future<> a = barrier_async();
    future<> b = barrier_async();
    future<> c = barrier_async();
    c.wait();
    // A later epoch's completion implies the earlier ones completed; their
    // notifications land at the next progress entry.
    progress();
    EXPECT_TRUE(a.ready());
    EXPECT_TRUE(b.ready());
  });
}

TEST(BarrierAsync, ChainsWithThen) {
  aspen::spmd(2, [] {
    int stage = 0;
    future<> f = barrier_async().then([&] { stage = 1; });
    f.wait();
    EXPECT_EQ(stage, 1);
  });
}

TEST(BarrierAsync, ManyEpochsBeyondRingCapacity) {
  aspen::spmd(2, [] {
    std::vector<future<>> fs;
    constexpr int kEpochs =
        static_cast<int>(detail::kAsyncEpochRing) * 3;
    fs.reserve(kEpochs);
    for (int i = 0; i < kEpochs; ++i) fs.push_back(barrier_async());
    for (auto& f : fs) f.wait();
  });
}

TEST(BarrierAsync, MixedWithSyncBarrier) {
  aspen::spmd(4, [] {
    for (int i = 0; i < 10; ++i) {
      future<> f = barrier_async();
      barrier();  // independent state: must not deadlock or cross-fire
      team::world().barrier();
      f.wait();
    }
  });
}

}  // namespace
