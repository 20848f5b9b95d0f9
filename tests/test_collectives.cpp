// Collectives tests: barrier synchronization, broadcasts, reductions,
// across varying rank counts (parameterized).
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "core/aspen.hpp"

using namespace aspen;

namespace {

class Collectives : public ::testing::TestWithParam<int> {};

TEST_P(Collectives, BarrierSeparatesPhases) {
  const int ranks = GetParam();
  std::atomic<int> phase_counter{0};
  aspen::spmd(ranks, [&] {
    for (int phase = 1; phase <= 5; ++phase) {
      phase_counter.fetch_add(1);
      barrier();
      // After the barrier every rank must observe all arrivals of this
      // phase (and none of the next, which hasn't started).
      EXPECT_EQ(phase_counter.load(), phase * ranks);
      barrier();
    }
  });
}

TEST_P(Collectives, BroadcastScalarFromEveryRoot) {
  const int ranks = GetParam();
  aspen::spmd(ranks, [&] {
    for (int root = 0; root < ranks; ++root) {
      const int v = broadcast(rank_me() * 10 + 1, root);
      EXPECT_EQ(v, root * 10 + 1);
    }
  });
}

TEST_P(Collectives, BroadcastVector) {
  const int ranks = GetParam();
  aspen::spmd(ranks, [&] {
    std::vector<std::uint64_t> mine;
    if (rank_me() == ranks - 1)
      for (int i = 0; i < 100; ++i)
        mine.push_back(static_cast<std::uint64_t>(i) * 3);
    auto got = broadcast_vector(mine, ranks - 1);
    ASSERT_EQ(got.size(), 100u);
    EXPECT_EQ(got[99], 297u);
  });
}

TEST_P(Collectives, BroadcastEmptyVector) {
  aspen::spmd(GetParam(), [&] {
    auto got = broadcast_vector(std::vector<int>{}, 0);
    EXPECT_TRUE(got.empty());
  });
}

TEST_P(Collectives, AllreduceSumMinMax) {
  const int ranks = GetParam();
  aspen::spmd(ranks, [&] {
    const int me = rank_me();
    EXPECT_EQ(allreduce_sum(me + 1), ranks * (ranks + 1) / 2);
    EXPECT_EQ(allreduce_min(me), 0);
    EXPECT_EQ(allreduce_max(me), ranks - 1);
    EXPECT_DOUBLE_EQ(allreduce_sum(0.5), 0.5 * ranks);
  });
}

TEST_P(Collectives, AllreduceCustomOpRankOrder) {
  const int ranks = GetParam();
  aspen::spmd(ranks, [&] {
    // Non-commutative combiner: string-like digit concatenation encoded in
    // an integer; deterministic because combination is in rank order.
    const auto combined = allreduce(
        static_cast<std::uint64_t>(rank_me() + 1),
        [](std::uint64_t a, std::uint64_t b) { return a * 10 + b; });
    std::uint64_t expect = 0;
    for (int r = 1; r <= ranks; ++r)
      expect = expect * 10 + static_cast<std::uint64_t>(r);
    EXPECT_EQ(combined, expect);
  });
}

TEST_P(Collectives, BackToBackCollectives) {
  const int ranks = GetParam();
  aspen::spmd(ranks, [&] {
    for (int i = 0; i < 50; ++i) {
      const int root = i % ranks;
      EXPECT_EQ(broadcast(rank_me() == root ? i : -1, root), i);
      EXPECT_EQ(allreduce_sum(1), ranks);
      // The world's free functions and team::world()'s members are one
      // collective sequence, interleaved in any order.
      barrier();
      team::world().barrier();
      EXPECT_EQ(team::world().broadcast(rank_me() == root ? -i : 1, root), -i);
      EXPECT_EQ(team::world().allreduce_sum(rank_me()),
                ranks * (ranks - 1) / 2);
      if (i % 10 == 0) {
        const team t = team::world().split(rank_me() % 2, rank_me());
        EXPECT_EQ(t.allreduce_sum(1), (ranks + 1 - rank_me() % 2) / 2);
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, Collectives,
                         ::testing::Values(1, 2, 3, 4, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "ranks" + std::to_string(info.param);
                         });

TEST(Collectives, BarrierServicesAms) {
  // A rank that enters a barrier must still execute incoming RPCs, or the
  // sender blocks forever.
  aspen::spmd(2, [] {
    static thread_local bool hit = false;
    if (rank_me() == 0) {
      rpc(1, [] { hit = true; }).wait();  // needs rank 1 in progress
    }
    barrier();
    if (rank_me() == 1) {
      EXPECT_TRUE(hit);
    }
  });
}

TEST(Collectives, BroadcastStructPayload) {
  struct config_blob {
    double x;
    int y;
    char name[16];
  };
  aspen::spmd(3, [] {
    config_blob b{};
    if (rank_me() == 1) {
      b.x = 2.5;
      b.y = 9;
      std::snprintf(b.name, sizeof(b.name), "root1");
    }
    const config_blob got = broadcast(b, 1);
    EXPECT_DOUBLE_EQ(got.x, 2.5);
    EXPECT_EQ(got.y, 9);
    EXPECT_STREQ(got.name, "root1");
  });
}

}  // namespace
