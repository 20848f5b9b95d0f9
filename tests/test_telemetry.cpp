// aspen::telemetry — counter semantics under both completion modes and both
// conduits, snapshot deltas, and the compiled-out guarantees.
//
// The counter assertions mirror test_eager_semantics.cpp: the same
// operations that there prove allocation/queue behavior here must land in
// the matching disposition bucket (cx_eager_taken / cx_deferred_queued /
// cx_remote_async) exactly once each.
#include <gtest/gtest.h>

#include <array>
#include <string>

#include "core/aspen.hpp"

using namespace aspen;

namespace {

#if ASPEN_TELEMETRY_ENABLED

telemetry::snapshot delta_since(const telemetry::snapshot& before) {
  return telemetry::local_snapshot() - before;
}

TEST(Telemetry, EagerLocalPutsCountAsEagerOnly) {
  aspen::spmd(1, [] {
    set_version_config(version_config::make(emulated_version::v2021_3_6_eager));
    auto gp = new_<std::uint64_t>(0);
    (void)rput(std::uint64_t{1}, gp).ready();  // warm up
    const auto before = telemetry::local_snapshot();
    for (int i = 0; i < 100; ++i)
      rput(std::uint64_t{1}, gp, operation_cx::as_future()).wait();
    const auto d = delta_since(before);
    EXPECT_EQ(d.get(telemetry::counter::cx_eager_taken), 100u);
    EXPECT_EQ(d.get(telemetry::counter::cx_deferred_queued), 0u);
    EXPECT_EQ(d.get(telemetry::counter::cx_remote_async), 0u);
    EXPECT_EQ(d.get(telemetry::counter::rma_put_local), 100u);
    EXPECT_EQ(d.get(telemetry::counter::rma_put_remote), 0u);
    // Eager value-less futures come from the ready pool, not fresh cells.
    EXPECT_EQ(d.get(telemetry::counter::ready_pool_hit), 100u);
    delete_(gp);
  });
}

TEST(Telemetry, DeferredLocalPutsCountAsDeferredOnly) {
  aspen::spmd(1, [] {
    set_version_config(version_config::make(emulated_version::v2021_3_6_defer));
    auto gp = new_<std::uint64_t>(0);
    const auto before = telemetry::local_snapshot();
    for (int i = 0; i < 100; ++i)
      rput(std::uint64_t{1}, gp, operation_cx::as_future()).wait();
    const auto d = delta_since(before);
    EXPECT_EQ(d.get(telemetry::counter::cx_deferred_queued), 100u);
    EXPECT_EQ(d.get(telemetry::counter::cx_eager_taken), 0u);
    EXPECT_EQ(d.get(telemetry::counter::rma_put_local), 100u);
    // Each deferred notification round-trips the progress queue.
    EXPECT_GE(d.pq_total_fired, 100u);
    delete_(gp);
  });
}

TEST(Telemetry, DispositionPartitionIsExhaustive) {
  // Every future/promise completion item lands in exactly one bucket, so
  // for a controlled mix: issued items == eager + deferred + remote.
  aspen::spmd(1, [] {
    set_version_config(version_config::make(emulated_version::v2021_3_6_eager));
    auto gp = new_<std::uint64_t>(0);
    (void)rput(std::uint64_t{1}, gp).ready();  // warm up
    const auto before = telemetry::local_snapshot();
    for (int i = 0; i < 10; ++i)
      rput(std::uint64_t{1}, gp, operation_cx::as_future()).wait();  // eager
    for (int i = 0; i < 7; ++i) {
      future<> f = rput(std::uint64_t{1}, gp, operation_cx::as_defer_future());
      f.wait();  // deferred
    }
    promise<> p;
    for (int i = 0; i < 5; ++i)
      rput(std::uint64_t{1}, gp, operation_cx::as_promise(p));  // eager elide
    p.finalize().wait();
    const auto d = delta_since(before);
    EXPECT_EQ(d.completions_issued(), 22u);
    EXPECT_EQ(d.get(telemetry::counter::cx_eager_taken), 15u);
    EXPECT_EQ(d.get(telemetry::counter::cx_deferred_queued), 7u);
    EXPECT_EQ(d.get(telemetry::counter::cx_remote_async), 0u);
    EXPECT_NEAR(d.eager_bypass_ratio(), 15.0 / 22.0, 1e-12);
    delete_(gp);
  });
}

TEST(Telemetry, LoopbackRemoteOpsCountAsRemoteAsync) {
  gex::config g;
  g.transport = gex::conduit::loopback;
  g.locality.node_size = 1;  // every other rank is off-node
  aspen::spmd(2, g, [] {
    global_ptr<std::uint64_t> gp;
    if (rank_me() == 1) gp = new_<std::uint64_t>(0);
    gp = broadcast(gp, 1);
    barrier();
    if (rank_me() == 0) {
      const auto before = telemetry::local_snapshot();
      for (int i = 0; i < 10; ++i)
        rput(std::uint64_t{1}, gp, operation_cx::as_future()).wait();
      const auto d = delta_since(before);
      EXPECT_EQ(d.get(telemetry::counter::rma_put_remote), 10u);
      EXPECT_EQ(d.get(telemetry::counter::rma_put_local), 0u);
      EXPECT_EQ(d.get(telemetry::counter::cx_remote_async), 10u);
      EXPECT_EQ(d.get(telemetry::counter::cx_eager_taken), 0u);
      // One request AM per put (replies are sent by rank 1).
      EXPECT_GE(d.get(telemetry::counter::am_sent), 10u);
    }
    barrier();
    if (rank_me() == 1) delete_(gp);
  });
}

// The latency streams are sampled: of any kLatSamplePeriod consecutive
// timed-eligible ops on one thread exactly one is timed, and each timed
// op's notification adds one sample to the stream of its (op_class,
// disposition). Eager sites read the op record inside the op's scope;
// deferred closures and op_records read the record they captured at
// injection. So a run of k * kLatSamplePeriod ops of one kind carries
// exactly k samples, whatever the countdown's phase. The rput's
// remote_cx::as_rpc sends an rpc_ff, which opens the class-less scope
// inside the rput's; it draws no sample and must leave the rput's alone.
TEST(Telemetry, LatencyStreamsFollowOpClassAndDisposition) {
  gex::config g;
  g.transport = gex::conduit::loopback;
  g.locality.node_size = 1;  // every other rank is off-node
  aspen::spmd(2, g, [] {
    auto mine = new_<std::uint64_t>(0);
    const global_ptr<std::uint64_t> theirs = broadcast(mine, 1);
    atomic_domain<std::uint64_t> ad({gex::amo_op::fadd});
    barrier();
    if (rank_me() == 0) {
      constexpr std::uint64_t kK = 2;  // samples per run of ops
      constexpr std::uint64_t kN = kK * telemetry::kLatSamplePeriod;
      static thread_local std::uint64_t rpcs_ran = 0;
      const auto before = telemetry::local_snapshot();
      for (std::uint64_t i = 0; i < kN; ++i)
        rput(std::uint64_t{1}, mine, operation_cx::as_eager_future()).wait();
      for (std::uint64_t i = 0; i < kN; ++i)
        (void)rget(mine, operation_cx::as_defer_future()).wait();
      for (std::uint64_t i = 0; i < kN; ++i)
        (void)ad.fetch_add(mine, 1, operation_cx::as_eager_future()).wait();
      for (std::uint64_t i = 0; i < kN; ++i)
        (void)ad.fetch_add(mine, 1, operation_cx::as_defer_future()).wait();
      for (std::uint64_t i = 0; i < kN; ++i)  // loopback-remote: op_record
        (void)ad.fetch_add(theirs, 1, operation_cx::as_future()).wait();
      for (std::uint64_t i = 0; i < kN; ++i)
        rput(std::uint64_t{1}, mine,
             operation_cx::as_eager_future() |
                 remote_cx::as_rpc([] { ++rpcs_ran; }))
            .wait();
      while (rpcs_ran < kN) progress();
      const auto d = delta_since(before);
      EXPECT_EQ(d.get(telemetry::counter::cx_remote_async), kN);

      using telemetry::lat_stream;
      std::array<std::uint64_t, telemetry::kLatStreamCount> want{};
      want[static_cast<std::size_t>(lat_stream::rma_put_eager)] = 2 * kK;
      want[static_cast<std::size_t>(lat_stream::rma_get_deferred)] = kK;
      want[static_cast<std::size_t>(lat_stream::amo_eager)] = kK;
      want[static_cast<std::size_t>(lat_stream::amo_deferred)] = 2 * kK;
      for (std::size_t s = 0; s < telemetry::kLatStreamCount; ++s) {
        const auto ls = static_cast<lat_stream>(s);
        if (ls == lat_stream::progress_gap) continue;  // every wait() ticks
        EXPECT_EQ(d.lat_of(ls).total(), want[s]) << telemetry::to_string(ls);
      }
    }
    barrier();
    delete_(mine);
  });
}

// The sampling period is odd, so it cannot alias with a mix that
// alternates two kinds of op: the two timed ops of any 2 * kLatSamplePeriod
// consecutive ops sit an odd distance apart, one of each kind. (With an
// even period both samples would land on the same kind.)
TEST(Telemetry, SampledLatencyDoesNotAliasAlternatingOps) {
  aspen::spmd(1, [] {
    auto gp = new_<std::uint64_t>(0);
    atomic_domain<std::uint64_t> ad({gex::amo_op::fadd});
    const auto before = telemetry::local_snapshot();
    for (std::uint32_t i = 0; i < telemetry::kLatSamplePeriod; ++i) {
      (void)ad.fetch_add(gp, 1, operation_cx::as_eager_future()).wait();
      (void)ad.fetch_add(gp, 1, operation_cx::as_defer_future()).wait();
    }
    const auto d = delta_since(before);
    using telemetry::lat_stream;
    EXPECT_EQ(d.lat_of(lat_stream::amo_eager).total(), 1u);
    EXPECT_EQ(d.lat_of(lat_stream::amo_deferred).total(), 1u);
    delete_(gp);
  });
}

TEST(Telemetry, RpcAndAmoFamiliesAreCounted) {
  aspen::spmd(1, [] {
    set_version_config(version_config::make(emulated_version::v2021_3_6_eager));
    auto gp = new_<std::uint64_t>(0);
    atomic_domain<std::uint64_t> ad({gex::amo_op::fadd, gex::amo_op::add});
    const auto before = telemetry::local_snapshot();
    (void)rpc(0, [](int x) { return x + 1; }, 1).wait();
    rpc_ff(0, [] {});
    (void)ad.fetch_add(gp, 1).wait();
    ad.add(gp, 1).wait();
    std::uint64_t out = 0;
    ad.fetch_add_into(gp, 1, &out).wait();
    while (progress() != 0) {
    }
    const auto d = delta_since(before);
    EXPECT_EQ(d.get(telemetry::counter::rpc_roundtrip), 1u);
    EXPECT_EQ(d.get(telemetry::counter::rpc_ff_sent), 1u);
    EXPECT_EQ(d.get(telemetry::counter::amo_fetching), 1u);
    EXPECT_EQ(d.get(telemetry::counter::amo_sideeffect), 1u);
    EXPECT_EQ(d.get(telemetry::counter::amo_nonfetching), 1u);
    delete_(gp);
  });
}

TEST(Telemetry, WhenAllCasesAreClassified) {
  aspen::spmd(1, [] {
    set_version_config(version_config::make(emulated_version::v2021_3_6_eager));
    auto gp = new_<std::uint64_t>(0);
    future<> r1 = make_future(), r2 = make_future();
    const auto before = telemetry::local_snapshot();
    (void)when_all(r1, r2);  // all ready
    future<> pend = rput(std::uint64_t{1}, gp, operation_cx::as_defer_future());
    (void)when_all(r1, pend);  // one pending
    future<std::uint64_t> valued = make_future(std::uint64_t{7});
    (void)when_all(r1, valued);  // one valued, rest ready
    future<> pend2 =
        rput(std::uint64_t{1}, gp, operation_cx::as_defer_future());
    auto general = when_all(pend2, valued);  // general gather path
    pend.wait();
    general.wait();
    const auto d = delta_since(before);
    EXPECT_EQ(d.get(telemetry::counter::whenall_all_ready), 1u);
    EXPECT_EQ(d.get(telemetry::counter::whenall_one_pending), 1u);
    EXPECT_EQ(d.get(telemetry::counter::whenall_one_valued), 1u);
    EXPECT_EQ(d.get(telemetry::counter::whenall_general), 1u);
    delete_(gp);
  });
}

TEST(Telemetry, ProgressQueueDepthTracking) {
  // A raw progress_queue reports into the calling thread's record.
  const auto before = telemetry::local_snapshot();
  detail::progress_queue pq;
  for (int i = 0; i < 3000; ++i) pq.push([] {});
  pq.fire();
  const auto d = telemetry::local_snapshot() - before;
  EXPECT_GE(d.pq_high_water, 3000u);
  EXPECT_GE(d.pq_reserve_growths, 1u);  // outgrew the 1024 reservation
  EXPECT_EQ(d.pq_total_fired, 3000u);
  // 3000 lands in the [2048, 4096) power-of-two bucket.
  EXPECT_EQ(d.pq_fire_hist[telemetry::pq_batch_bucket(3000)], 1u);
}

TEST(Telemetry, AggregateCoversRetiredRankThreads) {
  const auto before = telemetry::aggregate();
  aspen::spmd(2, [] {
    set_version_config(version_config::make(emulated_version::v2021_3_6_eager));
    auto gp = new_<std::uint64_t>(0);
    for (int i = 0; i < 50; ++i)
      rput(std::uint64_t{1}, gp, operation_cx::as_future()).wait();
    barrier();
    delete_(gp);
  });
  // Rank 1's thread has exited; its counts must still be visible.
  const auto d = telemetry::aggregate() - before;
  EXPECT_GE(d.get(telemetry::counter::rma_put_local), 100u);
  EXPECT_GE(d.get(telemetry::counter::cx_eager_taken), 100u);
}

TEST(Telemetry, SnapshotJsonContainsSections) {
  aspen::spmd(1, [] {
    auto gp = new_<std::uint64_t>(0);
    rput(std::uint64_t{1}, gp, operation_cx::as_future()).wait();
    delete_(gp);
  });
  const std::string json = telemetry::aggregate().to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"cx_eager_taken\""), std::string::npos);
  EXPECT_NE(json.find("\"progress_queue\""), std::string::npos);
  EXPECT_NE(json.find("\"fire_batch_hist_pow2\""), std::string::npos);
  EXPECT_NE(json.find("\"derived\""), std::string::npos);
  EXPECT_NE(json.find("\"eager_bypass_ratio\""), std::string::npos);
  EXPECT_NE(json.find("\"enabled\": true"), std::string::npos);
}

TEST(Telemetry, CompiledIn) { EXPECT_TRUE(telemetry::compiled_in()); }

#else  // !ASPEN_TELEMETRY_ENABLED

// Compiled-out configuration: the instrumentation must vanish. The record
// carries no state and every snapshot reads zero.
static_assert(std::is_empty_v<telemetry::detail::record>,
              "record must be stateless when telemetry is off");
static_assert(!telemetry::compiled_in());

TEST(TelemetryOff, CountersStayZero) {
  aspen::spmd(1, [] {
    auto gp = new_<std::uint64_t>(0);
    for (int i = 0; i < 100; ++i)
      rput(std::uint64_t{1}, gp, operation_cx::as_future()).wait();
    const auto s = telemetry::local_snapshot();
    EXPECT_EQ(s.completions_issued(), 0u);
    EXPECT_EQ(s.get(telemetry::counter::rma_put_local), 0u);
    EXPECT_EQ(s.pq_high_water, 0u);
    delete_(gp);
  });
  const auto a = telemetry::aggregate();
  EXPECT_EQ(a.completions_issued(), 0u);
}

TEST(TelemetryOff, JsonReportsDisabled) {
  const std::string json = telemetry::local_snapshot().to_json();
  EXPECT_NE(json.find("\"enabled\": false"), std::string::npos);
}

#endif

// Counter-name hygiene holds in both build flavors: every enum value has a
// distinct, non-empty snake_case name (the JSON reports key counters by
// name, so a collision would alias two of them). The same predicate is
// enforced at compile time in telemetry.cpp; this keeps the diagnostic
// readable when a new counter breaks it.
TEST(Telemetry, CounterNamesAreUniqueNonEmptySnakeCase) {
  for (std::size_t i = 0; i < telemetry::kCounterCount; ++i) {
    const char* name = telemetry::to_string(static_cast<telemetry::counter>(i));
    ASSERT_NE(name, nullptr);
    ASSERT_NE(name[0], '\0') << "counter " << i << " has an empty name";
    for (const char* p = name; *p != '\0'; ++p)
      EXPECT_TRUE((*p >= 'a' && *p <= 'z') || (*p >= '0' && *p <= '9') ||
                  *p == '_')
          << "counter name \"" << name << "\" is not snake_case";
    for (std::size_t j = i + 1; j < telemetry::kCounterCount; ++j)
      EXPECT_STRNE(name,
                   telemetry::to_string(static_cast<telemetry::counter>(j)))
          << "duplicate counter name at indices " << i << " and " << j;
  }
}

telemetry::snapshot merge_part(std::uint64_t base) {
  using telemetry::counter;
  using telemetry::lat_stream;
  telemetry::snapshot s{};
  s.counters[static_cast<std::size_t>(counter::am_sent)] = base + 1;
  s.counters[static_cast<std::size_t>(counter::cx_eager_taken)] = base + 2;
  s.counters[static_cast<std::size_t>(counter::net_msgs_sent)] = base + 3;
  s.counters[static_cast<std::size_t>(counter::net_bytes_received)] =
      base * 1000;
  s.pq_high_water = base;
  s.pq_reserve_growths = base;
  s.pq_total_fired = 10 * base;
  s.lpc_mailbox_high_water = 100 - base;
  s.pq_fire_hist[0] = base;
  s.pq_fire_hist[3] = 2 * base;
  auto& amo_e = s.lat[static_cast<std::size_t>(lat_stream::amo_eager)];
  amo_e.buckets[7] = base + 5;
  amo_e.buckets[63] = base;  // the saturating top bucket
  amo_e.max_ns = 1000 * base;
  auto& wire = s.lat[static_cast<std::size_t>(lat_stream::wire_delivery)];
  wire.buckets[12] = 3 * base;
  wire.max_ns = 77 + base;
  return s;
}

// The cross-rank merge the live collector folds every rank's updates with,
// pinned field by field: counters, the fire histogram, the progress-queue
// sums and latency buckets add; high-water marks and latency max_ns take
// the max. Plain arithmetic on the snapshot value type, so it holds in
// both build flavours.
TEST(TelemetryMerge, MergeSumsCountersAndMaxesHighWaters) {
  using telemetry::counter;
  using telemetry::lat_stream;
  telemetry::snapshot m{};
  telemetry::merge_into(m, merge_part(3));
  telemetry::merge_into(m, merge_part(40));
  EXPECT_EQ(m.get(counter::am_sent), (3u + 1u) + (40u + 1u));
  EXPECT_EQ(m.get(counter::cx_eager_taken), (3u + 2u) + (40u + 2u));
  EXPECT_EQ(m.get(counter::net_msgs_sent), (3u + 3u) + (40u + 3u));
  EXPECT_EQ(m.get(counter::net_bytes_received), 43'000u);
  EXPECT_EQ(m.pq_total_fired, 30u + 400u);
  EXPECT_EQ(m.pq_reserve_growths, 43u);
  EXPECT_EQ(m.pq_fire_hist[0], 43u);
  EXPECT_EQ(m.pq_fire_hist[3], 2u * 43u);
  // High-water marks are per-process maxima, not sums.
  EXPECT_EQ(m.pq_high_water, 40u);
  EXPECT_EQ(m.lpc_mailbox_high_water, 97u);
  // Latency histograms: buckets add, max_ns maxes.
  const auto& amo_e = m.lat_of(lat_stream::amo_eager);
  EXPECT_EQ(amo_e.buckets[7], (3u + 5u) + (40u + 5u));
  EXPECT_EQ(amo_e.buckets[63], 43u);
  EXPECT_EQ(amo_e.max_ns, 40'000u);
  const auto& wire = m.lat_of(lat_stream::wire_delivery);
  EXPECT_EQ(wire.buckets[12], 3u * 43u);
  EXPECT_EQ(wire.max_ns, 117u);
}

}  // namespace
