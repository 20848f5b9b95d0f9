// Progress-engine and substrate active-message tests.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>

#include "core/aspen.hpp"

using namespace aspen;

namespace {

TEST(ProgressQueue, FiresInFifoOrder) {
  detail::progress_queue pq;
  std::vector<int> order;
  pq.push([&] { order.push_back(1); });
  pq.push([&] { order.push_back(2); });
  pq.push([&] { order.push_back(3); });
  EXPECT_EQ(pq.size(), 3u);
  EXPECT_EQ(pq.fire(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(pq.empty());
}

TEST(ProgressQueue, TasksEnqueuedWhileFiringDeferToNextRound) {
  detail::progress_queue pq;
  int second_round = 0;
  pq.push([&] { pq.push([&] { ++second_round; }); });
  EXPECT_EQ(pq.fire(), 1u);
  EXPECT_EQ(second_round, 0);
  EXPECT_EQ(pq.fire(), 1u);
  EXPECT_EQ(second_round, 1);
}

TEST(ProgressQueue, TotalFiredAccumulates) {
  detail::progress_queue pq;
  for (int i = 0; i < 5; ++i) pq.push([] {});
  pq.fire();
  for (int i = 0; i < 3; ++i) pq.push([] {});
  pq.fire();
  EXPECT_EQ(pq.total_fired(), 8u);
}

TEST(Progress, ReturnsWorkCount) {
  aspen::spmd(1, [] {
    EXPECT_EQ(progress(), 0u);  // idle
    auto gp = new_<int>(0);
    rput(1, gp, operation_cx::as_defer_future());
    rput(2, gp, operation_cx::as_defer_future());
    EXPECT_EQ(progress(), 2u);
    EXPECT_EQ(progress(), 0u);
    delete_(gp);
  });
}

TEST(Progress, WaitOnDeferredChainTerminates) {
  aspen::spmd(1, [] {
    set_version_config(version_config::make(emulated_version::v2021_3_6_defer));
    auto gp = new_<int>(0);
    // A chain of 100 dependent deferred operations, each launched from the
    // previous completion: wait() must keep making progress rounds.
    std::function<future<>(int)> launch = [&](int depth) -> future<> {
      future<> op = rput(depth, gp, operation_cx::as_future());
      if (depth == 0) return op;
      return op.then([&, depth] { return launch(depth - 1); });
    };
    launch(100).wait();
    EXPECT_EQ(*gp.local(), 0);  // last write was depth 0
    delete_(gp);
  });
}

// --- active-message substrate -------------------------------------------------

TEST(AmMessage, InlinePayload) {
  std::uint64_t data[4] = {1, 2, 3, 4};
  gex::am_message m(nullptr, 3, data, sizeof(data));
  EXPECT_EQ(m.size(), sizeof(data));
  EXPECT_EQ(m.source(), 3);
  EXPECT_EQ(std::memcmp(m.payload(), data, sizeof(data)), 0);
}

TEST(AmMessage, OverflowPayload) {
  std::vector<std::byte> big(4096);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<std::byte>(i * 7);
  gex::am_message m(nullptr, 0, big.data(), big.size());
  EXPECT_EQ(m.size(), big.size());
  EXPECT_EQ(std::memcmp(m.payload(), big.data(), big.size()), 0);
}

TEST(AmMessage, MovePreservesPayload) {
  std::uint32_t v = 0xFEEDFACE;
  gex::am_message a(nullptr, 1, &v, sizeof(v));
  gex::am_message b(std::move(a));
  EXPECT_EQ(b.size(), sizeof(v));
  EXPECT_EQ(std::memcmp(b.payload(), &v, sizeof(v)), 0);
}

// AM traffic is counted by telemetry on the thread that does the work:
// am_sent on the sending rank's thread, am_executed on the thread whose
// poll() ran the handler. Each rank reads its own record.
TEST(AmSubstrate, CountersTrackTraffic) {
  if (!telemetry::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  gex::config g;
  g.transport = gex::conduit::loopback;
  g.locality.node_size = 1;
  aspen::spmd(2, g, [] {
    global_ptr<int> gp;
    if (rank_me() == 1) gp = new_<int>(0);
    gp = broadcast(gp, 1);
    // Snapshot before the barrier: rank 0's puts all happen after it.
    const auto before = telemetry::local_snapshot();
    barrier();
    if (rank_me() == 0) {
      for (int i = 0; i < 10; ++i) rput(i, gp).wait();
    }
    barrier();
    // Sends are attributed to the initiator: rank 0 issued 10 put
    // requests, and rank 1 executed them (its replies count as rank 1's
    // sends).
    const auto d = telemetry::local_snapshot() - before;
    if (rank_me() == 0)
      EXPECT_GE(d.get(telemetry::counter::am_sent), 10u);
    else
      EXPECT_GE(d.get(telemetry::counter::am_executed), 10u);
    barrier();
    if (rank_me() == 1) delete_(gp);
  });
}

TEST(AmSubstrate, SmpConduitUsesNoAmsForRma) {
  if (!telemetry::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  aspen::spmd(2, [] {
    global_ptr<int> gp;
    if (rank_me() == 1) gp = new_<int>(0);
    gp = broadcast(gp, 1);
    barrier();
    const auto before = telemetry::local_snapshot();
    if (rank_me() == 0)
      for (int i = 0; i < 10; ++i) rput(i, gp).wait();
    barrier();
    // Shared-memory bypass: zero active messages from either side.
    const auto d = telemetry::local_snapshot() - before;
    EXPECT_EQ(d.get(telemetry::counter::am_sent), 0u);
    EXPECT_EQ(d.get(telemetry::counter::am_executed), 0u);
    barrier();
    if (rank_me() == 1) delete_(gp);
  });
}

TEST(ProgressQueue, HighWaterAndReserveGrowth) {
  detail::progress_queue pq;
  EXPECT_EQ(pq.high_water(), 0u);
  // The queue pre-reserves 1024 slots; 3000 pushes must outgrow it.
  for (int i = 0; i < 3000; ++i) pq.push([] {});
  EXPECT_EQ(pq.high_water(), 3000u);
  EXPECT_GE(pq.reserve_growths(), 1u);
  const auto growths = pq.reserve_growths();
  pq.fire();
  // High water is monotone; firing does not reset it.
  EXPECT_EQ(pq.high_water(), 3000u);
  for (int i = 0; i < 10; ++i) pq.push([] {});
  pq.fire();
  EXPECT_EQ(pq.high_water(), 3000u);
  EXPECT_EQ(pq.reserve_growths(), growths);  // capacity was retained
}

TEST(Spmd, ExceptionInRankPropagates) {
  EXPECT_THROW(aspen::spmd(2,
                           [] {
                             if (rank_me() == 1)
                               throw std::runtime_error("rank 1 failed");
                           }),
               std::runtime_error);
}

TEST(Spmd, InvalidRankCountRejected) {
  EXPECT_THROW(aspen::spmd(0, [] {}), std::invalid_argument);
}

TEST(Spmd, NestedSpmdRejected) {
  EXPECT_THROW(aspen::spmd(1, [] { aspen::spmd(1, [] {}); }),
               std::logic_error);
}

TEST(Spmd, SequentialRunsIndependent) {
  for (int run = 0; run < 5; ++run) {
    aspen::spmd(3, [run] {
      auto gp = new_<int>(run);
      EXPECT_EQ(*gp.local(), run);
      barrier();
      delete_(gp);
    });
  }
}

TEST(Spmd, SingleRankWorks) {
  aspen::spmd(1, [] {
    EXPECT_EQ(rank_me(), 0);
    EXPECT_EQ(rank_n(), 1);
    barrier();
    EXPECT_EQ(allreduce_sum(5), 5);
  });
}

}  // namespace
