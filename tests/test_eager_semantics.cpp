// The paper's core semantic and performance claims, as executable tests:
//
//   - deferred notification (2021.3.0 semantics): completions are invisible
//     until the next progress-engine entry, even for synchronous transfers;
//   - eager notification: synchronously-completed operations may return
//     ready futures / skip promise traffic entirely;
//   - the allocation/queue accounting that makes eager cheaper (verified
//     through cell_allocation_count and the progress-queue fire counter);
//   - Listing 1/2 behavior: callback scheduling under both modes.
#include <gtest/gtest.h>

#include "core/aspen.hpp"

using namespace aspen;

namespace {

TEST(DeferSemantics, DeferredFutureNotReadyUntilProgress) {
  aspen::spmd(1, [] {
    auto gp = new_<int>(0);
    future<> f = rput(1, gp, operation_cx::as_defer_future());
    // The data transfer itself already happened (shared-memory bypass)...
    EXPECT_EQ(*gp.local(), 1);
    // ...but notification must be withheld until progress.
    EXPECT_FALSE(f.ready());
    progress();
    EXPECT_TRUE(f.ready());
    delete_(gp);
  });
}

TEST(DeferSemantics, DeferredPromiseNotReadiedUntilProgress) {
  aspen::spmd(1, [] {
    auto gp = new_<int>(0);
    promise<> p;
    rput(1, gp, operation_cx::as_defer_promise(p));
    future<> f = p.finalize();
    EXPECT_FALSE(f.ready());
    progress();
    EXPECT_TRUE(f.ready());
    delete_(gp);
  });
}

TEST(EagerSemantics, EagerFutureReadyImmediatelyOnLocalOp) {
  aspen::spmd(1, [] {
    auto gp = new_<int>(0);
    future<> f = rput(2, gp, operation_cx::as_eager_future());
    EXPECT_TRUE(f.ready());
    delete_(gp);
  });
}

TEST(EagerSemantics, EagerPromiseSkipsCounterEntirely) {
  aspen::spmd(1, [] {
    auto gp = new_<int>(0);
    promise<> p;
    rput(3, gp, operation_cx::as_eager_promise(p));
    // Eager + value-less promise: both the require and fulfill are elided,
    // so finalize readies instantly with no pending dependencies.
    future<> f = p.finalize();
    EXPECT_TRUE(f.ready());
    delete_(gp);
  });
}

TEST(EagerSemantics, DefaultFactoriesFollowVersionConfig) {
  aspen::spmd(1, [] {
    auto gp = new_<int>(0);
    set_version_config(version_config::make(emulated_version::v2021_3_6_eager));
    EXPECT_TRUE(rput(1, gp, operation_cx::as_future()).ready());
    set_version_config(version_config::make(emulated_version::v2021_3_6_defer));
    future<> f = rput(1, gp, operation_cx::as_future());
    EXPECT_FALSE(f.ready());
    f.wait();
    // Explicit eager overrides a defer default...
    EXPECT_TRUE(rput(1, gp, operation_cx::as_eager_future()).ready());
    set_version_config(version_config::make(emulated_version::v2021_3_6_eager));
    // ...and explicit defer overrides an eager default.
    future<> g = rput(1, gp, operation_cx::as_defer_future());
    EXPECT_FALSE(g.ready());
    g.wait();
    delete_(gp);
  });
}

TEST(EagerSemantics, ListingOneCallbackTiming) {
  // Paper Listing 1: under deferred completion, the then-callback never
  // runs during then(); it runs inside a later progress call. Under eager
  // completion it may run synchronously during then().
  aspen::spmd(1, [] {
    auto gp = new_<int>(0);

    bool defer_ran_in_then = true;
    {
      future<> f = rput(42, gp, operation_cx::as_defer_future());
      bool ran = false;
      future<> f2 = f.then([&] { ran = true; });
      defer_ran_in_then = ran;
      f2.wait();
      EXPECT_TRUE(ran);
    }
    EXPECT_FALSE(defer_ran_in_then);

    {
      future<> f = rput(43, gp, operation_cx::as_eager_future());
      bool ran = false;
      f.then([&] { ran = true; });
      EXPECT_TRUE(ran);  // synchronous: the semantic relaxation in action
    }
    delete_(gp);
  });
}

// --- the cost accounting the paper's §IV-A microbenchmarks measure -----------

TEST(EagerCost, EagerValuelessOpMakesNoCellAndSkipsQueue) {
  aspen::spmd(1, [] {
    set_version_config(version_config::make(emulated_version::v2021_3_6_eager));
    auto gp = new_<std::uint64_t>(0);
    (void)rput(std::uint64_t{1}, gp).ready();  // warm the pooled cell
    const auto allocs = detail::cell_allocation_count();
    const auto fired = current_persona().deferred_queue().total_fired();
    for (int i = 0; i < 1000; ++i)
      rput(std::uint64_t{1}, gp, operation_cx::as_future()).wait();
    EXPECT_EQ(detail::cell_allocation_count(), allocs);  // zero allocations
    progress();
    EXPECT_EQ(current_persona().deferred_queue().total_fired(), fired);  // queue untouched
    delete_(gp);
  });
}

TEST(EagerCost, DeferredOpAllocatesAndRoundTripsQueue) {
  aspen::spmd(1, [] {
    set_version_config(version_config::make(emulated_version::v2021_3_6_defer));
    auto gp = new_<std::uint64_t>(0);
    const auto allocs = detail::cell_allocation_count();
    const auto fired = current_persona().deferred_queue().total_fired();
    for (int i = 0; i < 100; ++i)
      rput(std::uint64_t{1}, gp, operation_cx::as_future()).wait();
    EXPECT_EQ(detail::cell_allocation_count(), allocs + 100);
    EXPECT_EQ(current_persona().deferred_queue().total_fired(), fired + 100);
    delete_(gp);
  });
}

TEST(EagerCost, EagerValuedOpStillAllocatesButSkipsQueue) {
  aspen::spmd(1, [] {
    set_version_config(version_config::make(emulated_version::v2021_3_6_eager));
    auto gp = new_<std::uint64_t>(5);
    const auto allocs = detail::cell_allocation_count();
    const auto fired = current_persona().deferred_queue().total_fired();
    for (int i = 0; i < 100; ++i)
      (void)rget(gp, operation_cx::as_future()).wait();
    // Paper §III-B: the fetched value must live somewhere.
    EXPECT_EQ(detail::cell_allocation_count(), allocs + 100);
    progress();
    EXPECT_EQ(current_persona().deferred_queue().total_fired(), fired);
    delete_(gp);
  });
}

TEST(EagerCost, NonFetchingAtomicIsAllocationFreeUnderEager) {
  aspen::spmd(1, [] {
    set_version_config(version_config::make(emulated_version::v2021_3_6_eager));
    auto gp = new_<std::uint64_t>(0);
    atomic_domain<std::uint64_t> ad({gex::amo_op::fadd});
    std::uint64_t out = 0;
    ad.fetch_add_into(gp, 1, &out).wait();  // warm up
    const auto allocs = detail::cell_allocation_count();
    for (int i = 0; i < 1000; ++i)
      ad.fetch_add_into(gp, 1, &out, operation_cx::as_future()).wait();
    EXPECT_EQ(detail::cell_allocation_count(), allocs);  // the §III-B payoff
    EXPECT_EQ(out, 1000u);
    // The fetching counterpart allocates every time.
    const auto allocs2 = detail::cell_allocation_count();
    for (int i = 0; i < 100; ++i) (void)ad.fetch_add(gp, 1).wait();
    EXPECT_EQ(detail::cell_allocation_count(), allocs2 + 100);
    delete_(gp);
  });
}

TEST(EagerCost, EagerPromiseGupsIdiomIsAllocationFree) {
  aspen::spmd(1, [] {
    set_version_config(version_config::make(emulated_version::v2021_3_6_eager));
    auto gp = new_<std::uint64_t>(0);
    promise<> p;  // one allocation here, before the measured loop
    const auto allocs = detail::cell_allocation_count();
    for (int i = 0; i < 1000; ++i)
      rput(std::uint64_t{1}, gp, operation_cx::as_promise(p));
    p.finalize().wait();
    EXPECT_EQ(detail::cell_allocation_count(), allocs);
    delete_(gp);
  });
}

TEST(EagerCost, LegacyExtraAllocationOnlyIn2021_3_0) {
  // Indirect check: the 2021.3.0 configuration performs its extra heap
  // allocation on the non-cell allocator, so cell accounting is identical;
  // what differs is that defer also applies. Verify behavioral flags.
  const auto v30 = version_config::make(emulated_version::v2021_3_0);
  const auto v36d = version_config::make(emulated_version::v2021_3_6_defer);
  const auto v36e = version_config::make(emulated_version::v2021_3_6_eager);
  EXPECT_TRUE(v30.extra_rma_alloc);
  EXPECT_FALSE(v36d.extra_rma_alloc);
  EXPECT_FALSE(v36e.extra_rma_alloc);
  EXPECT_FALSE(v30.eager_default);
  EXPECT_FALSE(v36d.eager_default);
  EXPECT_TRUE(v36e.eager_default);
  EXPECT_FALSE(v30.when_all_opt);
  EXPECT_FALSE(v30.nonfetching_atomics);
  EXPECT_FALSE(v30.ready_future_pool);
}

TEST(EagerSemantics, SourceEagerFutureOnBulkPut) {
  aspen::spmd(1, [] {
    auto gp = new_array<int>(32);
    int src[32] = {};
    auto [sf, of] = rput(src, gp, 32,
                         source_cx::as_eager_future() |
                             operation_cx::as_eager_future());
    EXPECT_TRUE(sf.ready());
    EXPECT_TRUE(of.ready());
    auto [sd, od] = rput(src, gp, 32,
                         source_cx::as_defer_future() |
                             operation_cx::as_defer_future());
    EXPECT_FALSE(sd.ready());
    EXPECT_FALSE(od.ready());
    progress();
    EXPECT_TRUE(sd.ready());
    EXPECT_TRUE(od.ready());
    delete_array(gp);
  });
}

TEST(ProgressEngine, NotificationsEnqueuedDuringProgressFireNextCall) {
  aspen::spmd(1, [] {
    auto gp = new_<int>(0);
    bool inner_ready_in_outer = true;
    future<> inner;
    rput(1, gp, operation_cx::as_defer_lpc([&] {
           // Runs inside progress; the op it launches defers again.
           inner = rput(2, gp, operation_cx::as_defer_future());
         }));
    progress();  // fires the LPC, which enqueues inner's notification
    inner_ready_in_outer = inner.ready();
    EXPECT_FALSE(inner_ready_in_outer);
    progress();  // the *next* entry delivers it
    EXPECT_TRUE(inner.ready());
    delete_(gp);
  });
}

}  // namespace
