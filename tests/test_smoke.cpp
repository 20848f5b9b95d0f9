// End-to-end smoke tests: does the whole stack hang together?
#include <gtest/gtest.h>

#include "core/aspen.hpp"

namespace {

TEST(Smoke, SpmdRunsAllRanks) {
  std::atomic<int> count{0};
  aspen::spmd(4, [&] {
    EXPECT_GE(aspen::rank_me(), 0);
    EXPECT_LT(aspen::rank_me(), 4);
    EXPECT_EQ(aspen::rank_n(), 4);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 4);
}

TEST(Smoke, RputRgetRoundTrip) {
  aspen::spmd(2, [] {
    auto gp = aspen::new_<int>(100 + aspen::rank_me());
    auto ptrs = aspen::broadcast_vector(
        std::vector<aspen::global_ptr<int>>{gp}, 0);
    aspen::barrier();
    if (aspen::rank_me() == 1) {
      int v = aspen::rget(ptrs[0]).wait();
      EXPECT_EQ(v, 100);
      aspen::rput(42, ptrs[0]).wait();
    }
    aspen::barrier();
    if (aspen::rank_me() == 0) { EXPECT_EQ(*gp.local(), 42); }
    aspen::barrier();
    aspen::delete_(gp);
  });
}

TEST(Smoke, FutureThenChainAcrossRma) {
  aspen::spmd(2, [] {
    auto gp = aspen::new_<int>(7);
    auto ptrs = aspen::broadcast_vector(
        std::vector<aspen::global_ptr<int>>{gp}, 0);
    aspen::barrier();
    if (aspen::rank_me() == 1) {
      // The paper's §II example: rget, then rput of val+1, wait for all.
      aspen::future<int> fut = aspen::rget(ptrs[0]);
      aspen::future<> done =
          fut.then([&](int val) { return aspen::rput(val + 1, ptrs[0]); });
      done.wait();
    }
    aspen::barrier();
    if (aspen::rank_me() == 0) { EXPECT_EQ(*gp.local(), 8); }
    aspen::barrier();
    aspen::delete_(gp);
  });
}

TEST(Smoke, PromiseTracksManyOps) {
  aspen::spmd(2, [] {
    constexpr int kN = 10;
    auto arr = aspen::new_array<int>(kN);
    auto ptrs = aspen::broadcast_vector(
        std::vector<aspen::global_ptr<int>>{arr}, 0);
    aspen::barrier();
    if (aspen::rank_me() == 1) {
      aspen::promise<> p;
      for (int i = 0; i < kN; ++i)
        aspen::rput(i * i, ptrs[0] + i, aspen::operation_cx::as_promise(p));
      p.finalize().wait();
    }
    aspen::barrier();
    if (aspen::rank_me() == 0) {
      for (int i = 0; i < kN; ++i) EXPECT_EQ(arr.local()[i], i * i);
    }
    aspen::barrier();
    aspen::delete_array(arr);
  });
}

TEST(Smoke, ConjoinedFuturesLoop) {
  aspen::spmd(2, [] {
    constexpr int kN = 10;
    auto arr = aspen::new_array<int>(kN);
    auto ptrs = aspen::broadcast_vector(
        std::vector<aspen::global_ptr<int>>{arr}, 0);
    aspen::barrier();
    if (aspen::rank_me() == 1) {
      aspen::future<> f = aspen::make_future();
      for (int i = 0; i < kN; ++i)
        f = aspen::when_all(f, aspen::rput(i + 1, ptrs[0] + i));
      f.wait();
    }
    aspen::barrier();
    if (aspen::rank_me() == 0) {
      for (int i = 0; i < kN; ++i) EXPECT_EQ(arr.local()[i], i + 1);
    }
    aspen::barrier();
    aspen::delete_array(arr);
  });
}

TEST(Smoke, RpcRoundTrip) {
  aspen::spmd(3, [] {
    if (aspen::rank_me() == 0) {
      int got = aspen::rpc(2, [](int x) { return x * 2 + aspen::rank_me(); },
                           20)
                    .wait();
      EXPECT_EQ(got, 42);
    }
  });
}

TEST(Smoke, AtomicsAcrossRanks) {
  aspen::spmd(4, [] {
    aspen::global_ptr<std::uint64_t> counter;
    if (aspen::rank_me() == 0) counter = aspen::new_<std::uint64_t>(0);
    counter = aspen::broadcast(counter, 0);
    aspen::atomic_domain<std::uint64_t> ad(
        {aspen::gex::amo_op::fadd, aspen::gex::amo_op::load});
    for (int i = 0; i < 100; ++i) ad.fetch_add(counter, 1).wait();
    aspen::barrier();
    std::uint64_t total = ad.load(counter).wait();
    EXPECT_EQ(total, 400u);
    aspen::barrier();
    if (aspen::rank_me() == 0) aspen::delete_(counter);
  });
}

}  // namespace

// 16 rank threads on however few cores the host has: the paper's process
// count must at least run correctly under heavy oversubscription.
TEST(Smoke, SixteenRanksOversubscribed) {
  aspen::spmd(16, [] {
    auto gp = aspen::new_<int>(-1);
    std::vector<aspen::global_ptr<int>> dir(16);
    for (int r = 0; r < 16; ++r) dir[r] = aspen::broadcast(gp, r);
    const int right = (aspen::rank_me() + 1) % 16;
    aspen::rput(aspen::rank_me(), dir[right]).wait();
    aspen::barrier();
    const int left = (aspen::rank_me() + 15) % 16;
    EXPECT_EQ(*gp.local(), left);
    EXPECT_EQ(aspen::allreduce_sum(1), 16);
    aspen::barrier();
    aspen::delete_(gp);
  });
}

TEST(Smoke, SegmentAllocationRespectsRequestedAlignment) {
  aspen::spmd(2, [] {
    for (std::size_t align : {16u, 64u, 256u, 4096u}) {
      auto gp = aspen::allocate<std::byte>(100, align);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(gp.raw()) % align, 0u);
      aspen::deallocate(gp);
    }
    struct alignas(128) wide {
      double d[4];
    };
    auto w = aspen::new_<wide>();
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(w.raw()) % 128, 0u);
    aspen::delete_(w);
  });
}
