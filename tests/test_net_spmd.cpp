// conduit::tcp cross-process tests. This binary is meaningful only when
// relaunched under the SPMD launcher (ctest entries net_spmd_n2 /
// net_spmd_n4 run `aspen-run -n N test_net_spmd`); executed directly it
// skips every test. Each test body runs identically in all N processes —
// gtest's deterministic registration order keeps the ranks' spmd regions
// aligned.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/gups/gups.hpp"
#include "benchutil/telemetry_report.hpp"
#include "core/aspen.hpp"
#include "core/otrace.hpp"
#include "core/telemetry.hpp"
#include "core/telemetry_live.hpp"
#include "net/endpoint.hpp"
#include "shm/mapper.hpp"

namespace {

int job_size() {
  const char* s = std::getenv(aspen::net::kEnvNranks);
  return s == nullptr ? 0 : std::atoi(s);
}

aspen::gex::config tcp_cfg() {
  aspen::gex::config cfg;
  cfg.transport = aspen::gex::conduit::tcp;
  return cfg;
}

aspen::gex::config shm_cfg() {
  aspen::gex::config cfg;
  cfg.transport = aspen::gex::conduit::shm;
  return cfg;
}

// Whether the shared-memory fabric actually came up job-wide. False under
// ASPEN_SHM=0 (the degraded leg) or when memfd/fd-passing failed — the
// conduit then runs pure-tcp and every ShmSpmd test below asserts the tcp
// expectations instead, so the degraded leg proves the fallback.
bool shm_fabric_up() {
  const auto* mp = aspen::shm::mapper::instance();
  return mp != nullptr && mp->fully_mapped();
}

#define ASPEN_REQUIRE_LAUNCHED()                                       \
  do {                                                                 \
    if (!aspen::net::endpoint::launched())                             \
      GTEST_SKIP() << "not under aspen-run (see ctest net_spmd_n*)";   \
  } while (0)

TEST(NetSpmd, RanksAreDistinctProcesses) {
  ASPEN_REQUIRE_LAUNCHED();
  const int n = job_size();
  aspen::spmd(n, tcp_cfg(), [n] {
    EXPECT_EQ(aspen::rank_n(), n);
    EXPECT_GE(aspen::rank_me(), 0);
    EXPECT_LT(aspen::rank_me(), n);
    // Every rank is its own OS process: pids must be pairwise distinct,
    // which the sum of self-comparisons below witnesses via broadcast.
    const int my_pid = static_cast<int>(::getpid());
    for (int r = 0; r < n; ++r) {
      const int pid_r = aspen::broadcast(my_pid, r);
      if (r == aspen::rank_me()) {
        EXPECT_EQ(pid_r, my_pid);
      } else {
        EXPECT_NE(pid_r, my_pid);
      }
    }
    // Nobody shares memory with anybody: the local team is a singleton.
    aspen::team lt = aspen::local_team();
    EXPECT_EQ(lt.rank_n(), 1);
    EXPECT_EQ(lt.rank_me(), 0);
  });
}

TEST(NetSpmd, RputRgetAcrossProcesses) {
  ASPEN_REQUIRE_LAUNCHED();
  const int n = job_size();
  aspen::spmd(n, tcp_cfg(), [n] {
    auto gp = aspen::new_<int>(100 + aspen::rank_me());
    std::vector<aspen::global_ptr<int>> dir(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) dir[static_cast<std::size_t>(r)] =
        aspen::broadcast(gp, r);
    aspen::barrier();
    // Ring: write my rank into my right neighbor, then read my left
    // neighbor's slot out of its process.
    const int right = (aspen::rank_me() + 1) % n;
    const int left = (aspen::rank_me() + n - 1) % n;
    aspen::rput(aspen::rank_me(), dir[static_cast<std::size_t>(right)])
        .wait();
    aspen::barrier();
    EXPECT_EQ(*gp.local(), left);
    EXPECT_EQ(aspen::rget(dir[static_cast<std::size_t>(left)]).wait(),
              (left + n - 1) % n);
    aspen::barrier();
    aspen::delete_(gp);
  });
}

TEST(NetSpmd, RpcAndRendezvousPayloads) {
  ASPEN_REQUIRE_LAUNCHED();
  const int n = job_size();
  aspen::spmd(n, tcp_cfg(), [n] {
    const auto before = aspen::telemetry::local_snapshot();
    const int target = (aspen::rank_me() + 1) % n;
    // Small rpc: rides an eager frame.
    const int got =
        aspen::rpc(target, [](int x) { return x * 2 + aspen::rank_me(); },
                   20)
            .wait();
    EXPECT_EQ(got, 40 + target);
    // Large rpc argument: well above the 8 KiB eager_max, so the payload
    // must negotiate a rendezvous (RTS/CTS/DATA) transfer.
    std::vector<std::uint64_t> big(1 << 13);  // 64 KiB
    std::iota(big.begin(), big.end(), 1000ull * aspen::rank_me());
    const std::uint64_t sum = std::accumulate(big.begin(), big.end(), 0ull);
    const std::uint64_t echoed =
        aspen::rpc(target,
                   [](const std::vector<std::uint64_t>& v) {
                     return std::accumulate(v.begin(), v.end(), 0ull);
                   },
                   big)
            .wait();
    EXPECT_EQ(echoed, sum);
    const auto d = aspen::telemetry::local_snapshot() - before;
    if (n > 1 && aspen::telemetry::compiled_in()) {
      using c = aspen::telemetry::counter;
      EXPECT_GT(d.get(c::net_eager_sent), 0u);
      EXPECT_GT(d.get(c::net_rdzv_sent), 0u);
      EXPECT_GT(d.get(c::net_bytes_sent), big.size() * sizeof(big[0]));
    }
    aspen::barrier();
  });
}

TEST(NetSpmd, CollectivesTeamsDistObjects) {
  ASPEN_REQUIRE_LAUNCHED();
  const int n = job_size();
  aspen::spmd(n, tcp_cfg(), [n] {
    EXPECT_EQ(aspen::allreduce_sum(1), n);
    EXPECT_EQ(aspen::allreduce_sum(aspen::rank_me()), n * (n - 1) / 2);
    EXPECT_EQ(aspen::broadcast(7 * aspen::rank_me() + 1, n - 1),
              7 * (n - 1) + 1);
    const auto v = aspen::broadcast_vector(
        std::vector<int>(static_cast<std::size_t>(aspen::rank_me() + 1),
                         aspen::rank_me()),
        0);
    EXPECT_EQ(v, std::vector<int>{0});

    // The world's free functions and team::world()'s members ride one wire
    // stream, interleaved in any order.
    for (int i = 0; i < 4; ++i) {
      const int root = i % n;
      aspen::barrier();
      aspen::team::world().barrier();
      EXPECT_EQ(aspen::broadcast(aspen::rank_me() + i, root), root + i);
      EXPECT_EQ(aspen::team::world().broadcast(aspen::rank_me() - i, root),
                root - i);
      EXPECT_EQ(aspen::allreduce_sum(i), n * i);
      EXPECT_EQ(aspen::team::world().allreduce_sum(aspen::rank_me()),
                n * (n - 1) / 2);
      const aspen::team all = aspen::team::world().split(0, -aspen::rank_me());
      EXPECT_EQ(all.rank_me(), n - 1 - aspen::rank_me());
      EXPECT_EQ(all.allreduce_sum(1), n);
    }

    // Even/odd split: team collectives ride the per-team wire streams.
    aspen::team t = aspen::team::world().split(aspen::rank_me() % 2,
                                               aspen::rank_me());
    const int parity = aspen::rank_me() % 2;
    int expect_n = 0;
    for (int r = 0; r < n; ++r) expect_n += (r % 2 == parity);
    EXPECT_EQ(t.rank_n(), expect_n);
    int sum = t.allreduce_sum(aspen::rank_me());
    int expect_sum = 0;
    for (int r = 0; r < n; ++r)
      if (r % 2 == parity) expect_sum += r;
    EXPECT_EQ(sum, expect_sum);
    EXPECT_EQ(t.broadcast(aspen::rank_me(), 0), parity);
    t.barrier();

    aspen::dist_object<int> d(1000 + aspen::rank_me());
    aspen::barrier();
    for (int r = 0; r < n; ++r) EXPECT_EQ(d.fetch(r).wait(), 1000 + r);
    aspen::barrier();

    // Asynchronous barrier over the wire (async_arrive/async_release).
    aspen::future<> f = aspen::barrier_async();
    f.wait();
    aspen::barrier_async().wait();
    aspen::barrier();
  });
}

TEST(NetSpmd, AtomicsAcrossProcesses) {
  ASPEN_REQUIRE_LAUNCHED();
  const int n = job_size();
  aspen::spmd(n, tcp_cfg(), [n] {
    aspen::global_ptr<std::uint64_t> counter;
    if (aspen::rank_me() == 0) counter = aspen::new_<std::uint64_t>(0);
    counter = aspen::broadcast(counter, 0);
    aspen::atomic_domain<std::uint64_t> ad(
        {aspen::gex::amo_op::fadd, aspen::gex::amo_op::load});
    for (int i = 0; i < 50; ++i) ad.fetch_add(counter, 1).wait();
    aspen::barrier();
    EXPECT_EQ(ad.load(counter).wait(), static_cast<std::uint64_t>(50 * n));
    aspen::barrier();
    if (aspen::rank_me() == 0) aspen::delete_(counter);
  });
}

// The acceptance telemetry claim: under conduit::tcp a cross-process
// target can never complete eagerly (cx_eager_taken stays 0), while
// self-targeted operations still take the eager path (> 0).
TEST(NetSpmd, EagerDispositionCrossVsSelf) {
  ASPEN_REQUIRE_LAUNCHED();
  const int n = job_size();
  aspen::spmd(n, tcp_cfg(), [n] {
    using c = aspen::telemetry::counter;
    auto gp = aspen::new_<std::uint64_t>(0);
    std::vector<aspen::global_ptr<std::uint64_t>> dir(
        static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) dir[static_cast<std::size_t>(r)] =
        aspen::broadcast(gp, r);
    aspen::barrier();

    const auto before_cross = aspen::telemetry::local_snapshot();
    const int target = (aspen::rank_me() + 1) % n;
    for (int i = 0; i < 8; ++i)
      aspen::rput(std::uint64_t{1} + i,
                  dir[static_cast<std::size_t>(target)])
          .wait();
    const auto d_cross = aspen::telemetry::local_snapshot() - before_cross;
    if (n > 1 && aspen::telemetry::compiled_in()) {
      EXPECT_EQ(d_cross.get(c::cx_eager_taken), 0u)
          << "a cross-process rput completed eagerly";
      EXPECT_GT(d_cross.get(c::cx_remote_async) +
                    d_cross.get(c::cx_deferred_queued),
                0u);
    }
    aspen::barrier();

    const auto before_self = aspen::telemetry::local_snapshot();
    for (int i = 0; i < 8; ++i)
      aspen::rput(std::uint64_t{100} + i,
                  dir[static_cast<std::size_t>(aspen::rank_me())])
          .wait();
    const auto d_self = aspen::telemetry::local_snapshot() - before_self;
    if (aspen::telemetry::compiled_in()) {
      EXPECT_GT(d_self.get(c::cx_eager_taken), 0u)
          << "self-targeted rputs must keep the eager path";
    }
    aspen::barrier();
    aspen::delete_(gp);
  });
}

// GUPS equivalence: the same deterministic workload (atomic XOR updates
// commute, so the final table is schedule-independent) must produce an
// identical table whether the N ranks are threads (smp) or processes
// (tcp). Each process runs the tcp leg collectively, then replays the smp
// leg privately with N rank-threads and compares checksums.
TEST(NetSpmd, GupsMatchesSmpAtSameRankCount) {
  ASPEN_REQUIRE_LAUNCHED();
  namespace g = aspen::apps::gups;
  const int n = job_size();
  g::params p;
  p.table_bits = 12;
  p.updates_per_rank = 1 << 10;
  p.batch = 64;

  auto local_checksum = [](g::table& t) {
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < t.per_rank(); ++i)
      acc ^= t.local_slice()[i] * 0x9E3779B97F4A7C15ull + i;
    return acc;
  };

  std::uint64_t tcp_sum = 0;
  aspen::spmd(n, tcp_cfg(), [&] {
    g::table t(p);
    (void)g::run_variant(g::variant::amo_promises, t, p);
    tcp_sum = aspen::allreduce_sum(local_checksum(t));
    aspen::barrier();
  });

  std::uint64_t smp_sum = 0;
  aspen::spmd(n, [&] {
    g::table t(p);
    (void)g::run_variant(g::variant::amo_promises, t, p);
    const std::uint64_t sum = aspen::allreduce_sum(local_checksum(t));
    if (aspen::rank_me() == 0) smp_sum = sum;
  });

  EXPECT_EQ(tcp_sum, smp_sum)
      << "conduit::tcp GUPS diverged from smp at " << n << " ranks";
}

// The endpoint survives successive spmd regions: back-to-back regions with
// traffic in each must quiesce cleanly at every boundary.
TEST(NetSpmd, EndpointPersistsAcrossRegions) {
  ASPEN_REQUIRE_LAUNCHED();
  const int n = job_size();
  for (int round = 0; round < 3; ++round) {
    aspen::spmd(n, tcp_cfg(), [n, round] {
      const int target = (aspen::rank_me() + 1 + round) % n;
      const int got =
          aspen::rpc(target, [](int x) { return x + 1; }, round).wait();
      EXPECT_EQ(got, round + 1);
    });
  }
}

TEST(NetSpmd, NetCountersTick) {
  ASPEN_REQUIRE_LAUNCHED();
  const int n = job_size();
  aspen::spmd(n, tcp_cfg(), [n] {
    using c = aspen::telemetry::counter;
    const auto before = aspen::telemetry::local_snapshot();
    for (int i = 0; i < 16; ++i) {
      const int target = (aspen::rank_me() + 1) % n;
      (void)aspen::rpc(target, [](int x) { return x; }, i).wait();
    }
    const auto d = aspen::telemetry::local_snapshot() - before;
    if (n > 1 && aspen::telemetry::compiled_in()) {
      EXPECT_GT(d.get(c::net_msgs_sent), 0u);
      EXPECT_GT(d.get(c::net_msgs_received), 0u);
      EXPECT_GT(d.get(c::net_bytes_sent), 0u);
      EXPECT_GT(d.get(c::net_bytes_received), 0u);
      EXPECT_EQ(d.get(c::net_msgs_sent), d.get(c::net_eager_sent) +
                                             d.get(c::net_rdzv_sent));
      EXPECT_LE(d.get(c::net_msgs_staged), d.get(c::net_msgs_received));
    }
    aspen::barrier();
  });
}

bool snap_eq(const aspen::telemetry::snapshot& a,
             const aspen::telemetry::snapshot& b) {
  return a.counters == b.counters && a.pq_fire_hist == b.pq_fire_hist &&
         a.pq_high_water == b.pq_high_water &&
         a.pq_reserve_growths == b.pq_reserve_growths &&
         a.pq_total_fired == b.pq_total_fired &&
         a.lpc_mailbox_high_water == b.lpc_mailbox_high_water &&
         a.lat == b.lat;
}

// With ASPEN_TELEMETRY_INTERVAL_MS set (the net_spmd_live_n* ctest
// entries), rank 0's in-memory job aggregate must be bit-identical to
// telemetry::merge_into over every rank's frozen region-exit totals,
// gathered through a dist_object (plain serialization, not the live codec
// under test). Without the interval, asserts the plane is fully dormant
// (zero telemetry frames on the wire).
TEST(NetSpmd, LiveAggregationMatchesGatheredTotals) {
  ASPEN_REQUIRE_LAUNCHED();
  const int n = job_size();
  namespace live = aspen::telemetry::live;
  using c = aspen::telemetry::counter;

  if (!live::enabled()) {
    aspen::spmd(n, tcp_cfg(), [n] {
      const int target = (aspen::rank_me() + 1) % n;
      (void)aspen::rpc(target, [](int x) { return x; }, 1).wait();
      aspen::barrier();
    });
    if (aspen::telemetry::compiled_in()) {
      const auto t = aspen::telemetry::aggregate();
      EXPECT_EQ(t.get(c::net_telemetry_sent), 0u)
          << "telemetry frames shipped with the interval unset";
      EXPECT_EQ(t.get(c::net_telemetry_received), 0u);
    }
    GTEST_SKIP() << "set ASPEN_TELEMETRY_INTERVAL_MS for the live leg "
                    "(ctest net_spmd_live_n*)";
  }

  const aspen::telemetry::snapshot js_before = live::job_snapshot();

  aspen::spmd(n, tcp_cfg(), [n] {
    // Cross-process-only traffic: eager rputs around the ring plus one
    // rendezvous-sized rpc, with enough rounds that several push
    // intervals elapse mid-region.
    auto gp = aspen::new_<std::uint64_t>(0);
    std::vector<aspen::global_ptr<std::uint64_t>> dir(
        static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r)
      dir[static_cast<std::size_t>(r)] = aspen::broadcast(gp, r);
    aspen::barrier();
    const int target = (aspen::rank_me() + 1) % n;
    for (int i = 0; i < 64; ++i)
      aspen::rput(std::uint64_t{1} + i, dir[static_cast<std::size_t>(target)])
          .wait();
    std::vector<std::uint64_t> big(1 << 13);
    std::iota(big.begin(), big.end(), 7ull);
    const std::uint64_t echoed =
        aspen::rpc(target,
                   [](const std::vector<std::uint64_t>& v) {
                     return std::accumulate(v.begin(), v.end(), 0ull);
                   },
                   big)
            .wait();
    EXPECT_EQ(echoed, std::accumulate(big.begin(), big.end(), 0ull));
    aspen::barrier();
    aspen::delete_(gp);
  });

  // The region exit froze every rank's shipped totals and rank 0's
  // collector. Capture both sides of the comparison *now*: the gathering
  // region below ships fresh finals of its own.
  const aspen::telemetry::snapshot frozen = live::shipped_total();
  const aspen::telemetry::snapshot js = live::job_snapshot();

  aspen::telemetry::snapshot gathered{};
  aspen::spmd(n, tcp_cfg(), [n, &frozen, &gathered] {
    aspen::dist_object<aspen::telemetry::snapshot> mine(frozen);
    aspen::barrier();
    if (aspen::rank_me() == 0)
      for (int r = 0; r < n; ++r)
        aspen::telemetry::merge_into(gathered, mine.fetch(r).wait());
    aspen::barrier();  // every instance outlives rank 0's fetches
  });

  const int rank = aspen::net::endpoint::instance()->self_rank();
  if (rank == 0) {
    EXPECT_TRUE(snap_eq(js, gathered))
        << "live aggregate:\n  " << js.to_json()
        << "\ngathered totals:\n  " << gathered.to_json();
    if (aspen::telemetry::compiled_in()) {
      EXPECT_GT(live::rank_updates(n - 1), 0u);
      // The paper's invariant holds job-wide in the live aggregate: no
      // cross-process operation of the workload completed eagerly.
      const auto d = js - js_before;
      EXPECT_EQ(d.get(c::cx_eager_taken), 0u)
          << "a cross-process op completed eagerly somewhere in the job";
      EXPECT_GT(d.get(c::net_msgs_sent), 0u);
      EXPECT_GT(js.get(c::net_telemetry_received), 0u);
      EXPECT_GT(js.get(c::net_telemetry_sent), 0u);
    }
  }
}

// The paper's latency claim, observed live at the job level: self-targeted
// AMOs complete eagerly at the initiation site while cross-process AMOs
// defer through the progress engine, so the job-wide amo_eager histogram
// must sit well below amo_deferred at the median. Runs on the live legs
// (the name rides the NetSpmd.LiveAggregation* ctest filter).
TEST(NetSpmd, LiveAggregationLatencyDispositions) {
  ASPEN_REQUIRE_LAUNCHED();
  const int n = job_size();
  namespace live = aspen::telemetry::live;
  using aspen::telemetry::lat_stream;
  if (!aspen::telemetry::compiled_in())
    GTEST_SKIP() << "telemetry compiled out";
  if (!live::enabled())
    GTEST_SKIP() << "set ASPEN_TELEMETRY_INTERVAL_MS for the live leg "
                    "(ctest net_spmd_live_n*)";

  aspen::spmd(n, tcp_cfg(), [n] {
    // GUPS-shaped traffic: every rank fires batched fetch-adds at its own
    // table slot (eager inline completion) and its neighbor's (deferred
    // over the wire).
    aspen::atomic_domain<std::uint64_t> ad({aspen::gex::amo_op::fadd});
    auto gp = aspen::new_<std::uint64_t>(0);
    std::vector<aspen::global_ptr<std::uint64_t>> dir(
        static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r)
      dir[static_cast<std::size_t>(r)] = aspen::broadcast(gp, r);
    aspen::barrier();
    const int self = aspen::rank_me();
    const int nb = (self + 1) % n;
    for (int i = 0; i < 128; ++i) {
      (void)ad.fetch_add(dir[static_cast<std::size_t>(self)], 1).wait();
      (void)ad.fetch_add(dir[static_cast<std::size_t>(nb)], 1).wait();
    }
    aspen::barrier();
    aspen::delete_(gp);
  });

  const int rank = aspen::net::endpoint::instance()->self_rank();
  if (rank == 0) {
    const aspen::telemetry::snapshot js = live::job_snapshot();
    const auto& eager = js.lat_of(lat_stream::amo_eager);
    const auto& deferred = js.lat_of(lat_stream::amo_deferred);
    ASSERT_GT(eager.total(), 0u) << "no eager AMO completions recorded";
    if (n > 1) {
      ASSERT_GT(deferred.total(), 0u)
          << "no deferred AMO completions recorded";
      EXPECT_LT(eager.percentile_ns(50.0), deferred.percentile_ns(50.0))
          << "eager median should beat deferred (eager p50 "
          << eager.percentile_ns(50.0) << " ns, deferred p50 "
          << deferred.percentile_ns(50.0) << " ns)";
      // The transport streams populate too: timed wire deliveries and
      // progress-gap samples from every rank reach the collector.
      EXPECT_GT(js.lat_of(lat_stream::wire_delivery).total(), 0u);
      EXPECT_GT(js.lat_of(lat_stream::progress_gap).total(), 0u);
    }
  }

  aspen::spmd(n, tcp_cfg(), [] { aspen::barrier(); });  // rank 0 done
}

// ---------------------------------------------------------------------------
// OtraceSpmd — sampled per-operation distributed tracing across real
// processes (docs/OTRACE.md). Run via ctest net_spmd_otrace_* (tcp / shm /
// agg legs) and by the unfiltered net_spmd_n* legs. The tests arm sampling
// programmatically (ASPEN_TRACE_SAMPLE=1 on the filtered legs arms it even
// earlier, at endpoint bootstrap) and disarm before exiting so later suites
// in the same process run untraced.
// ---------------------------------------------------------------------------

namespace otrace = aspen::otrace;

/// Transport for this suite: tcp by default; the shm leg re-runs the same
/// assertions over the shared-memory fabric with ASPEN_TEST_OTRACE_SHM=1
/// (the agg leg keeps tcp and arms the coalescer via ASPEN_AGG=1, which the
/// endpoint reads at region entry).
aspen::gex::config otrace_cfg() {
  const char* s = std::getenv("ASPEN_TEST_OTRACE_SHM");
  return (s != nullptr && *s == '1') ? shm_cfg() : tcp_cfg();
}

/// RAII arm/disarm so a failing assertion cannot leave sampling enabled
/// for the suites that follow in this process.
struct otrace_region {
  explicit otrace_region(const char* base) {
    otrace::configure(/*sample_n=*/1, /*ring_bytes=*/1 << 20, base);
    otrace::reset_sampling();
    otrace::clear();
  }
  ~otrace_region() {
    otrace::configure(/*sample_n=*/0, /*ring_bytes=*/1 << 20, nullptr);
  }
};

/// First record of `st` belonging to trace `id` (t_ns order = ring order
/// per thread); returns SIZE_MAX when absent.
std::size_t find_stage(const std::vector<otrace::record_view>& recs,
                       std::uint64_t id, otrace::stage st) {
  for (std::size_t i = 0; i < recs.size(); ++i)
    if (recs[i].trace == id && recs[i].st == st) return i;
  return static_cast<std::size_t>(-1);
}

TEST(OtraceSpmd, EagerChainSpansInjectionToFulfillment) {
  ASPEN_REQUIRE_LAUNCHED();
  const int n = job_size();
  if (!aspen::telemetry::compiled_in()) {
    // Still form the job: a rank that exits before its bootstrap hello
    // takes the whole aspen-run job down as a failure.
    aspen::spmd(n, otrace_cfg(), [] { aspen::barrier(); });
    GTEST_SKIP() << "telemetry compiled out";
  }
  if (n < 2) GTEST_SKIP() << "needs a remote peer";
  otrace_region arm("/tmp/aspen_otrace_eager");
  aspen::spmd(n, otrace_cfg(), [n] {
    otrace::reset_sampling();
    otrace::clear();
    // Nobody injects until every rank has cleared: without this barrier a
    // fast neighbor's request could be delivered (and recorded) here before
    // our clear() and then be wiped from the ring.
    aspen::barrier();
    const int target = (aspen::rank_me() + 1) % n;
    const int got =
        aspen::rpc(target, [](int x) { return x + 7; }, 1).wait();
    EXPECT_EQ(got, 8);
    aspen::barrier();  // the left neighbor's request has run here

    const auto recs = otrace::snapshot_records();
    // Initiator side: the sampled rpc recorded injection, the AM handoff,
    // a wire/agg/shm send stage, and the reply-driven fulfillment — all
    // under one trace id minted by this rank.
    std::uint64_t id = 0;
    for (const auto& r : recs)
      if (r.st == otrace::stage::inject &&
          (r.trace >> 48) ==
              static_cast<std::uint64_t>(aspen::rank_me())) {
        id = r.trace;
        break;
      }
    ASSERT_NE(id, 0u) << "no sampled injection recorded";
    const auto inj = find_stage(recs, id, otrace::stage::inject);
    const auto send = find_stage(recs, id, otrace::stage::am_send);
    const auto done = find_stage(recs, id, otrace::stage::fulfill_deferred);
    ASSERT_NE(send, static_cast<std::size_t>(-1));
    ASSERT_NE(done, static_cast<std::size_t>(-1));
    const bool staged =
        find_stage(recs, id, otrace::stage::wire_eager) !=
            static_cast<std::size_t>(-1) ||
        find_stage(recs, id, otrace::stage::agg_stage) !=
            static_cast<std::size_t>(-1) ||
        find_stage(recs, id, otrace::stage::shm_push) !=
            static_cast<std::size_t>(-1);
    EXPECT_TRUE(staged) << "no wire-send stage for the sampled op";
    EXPECT_LE(recs[inj].t_ns, recs[send].t_ns);
    EXPECT_LE(recs[send].t_ns, recs[done].t_ns);

    // Target side: the left neighbor's sampled request was delivered and
    // its handler ran here, on the NEIGHBOR's trace id.
    const int left = (aspen::rank_me() + n - 1) % n;
    bool delivered = false;
    bool handled = false;
    for (const auto& r : recs) {
      if ((r.trace >> 48) != static_cast<std::uint64_t>(left)) continue;
      if (r.st == otrace::stage::wire_deliver) delivered = true;
      if (r.st == otrace::stage::handler_run) handled = true;
    }
    EXPECT_TRUE(delivered) << "neighbor's op never recorded wire_deliver";
    EXPECT_TRUE(handled) << "neighbor's op never recorded handler_run";
    aspen::barrier();
  });
}

TEST(OtraceSpmd, RendezvousChainRecordsCausalOrder) {
  ASPEN_REQUIRE_LAUNCHED();
  const int n = job_size();
  if (!aspen::telemetry::compiled_in()) {
    aspen::spmd(n, otrace_cfg(), [] { aspen::barrier(); });  // see above
    GTEST_SKIP() << "telemetry compiled out";
  }
  if (n < 2) GTEST_SKIP() << "needs a remote peer";
  otrace_region arm("/tmp/aspen_otrace_rdzv");
  aspen::spmd(n, otrace_cfg(), [n] {
    otrace::reset_sampling();
    otrace::clear();
    aspen::barrier();  // everyone cleared before anyone injects
    const auto before = aspen::telemetry::local_snapshot();
    const int target = (aspen::rank_me() + 1) % n;
    // 64 KiB payload: far above eager_max, so the transfer negotiates
    // RTS -> CTS -> DATA.
    std::vector<std::uint64_t> big(1 << 13);
    std::iota(big.begin(), big.end(), 7ull);
    const std::uint64_t want = std::accumulate(big.begin(), big.end(), 0ull);
    const std::uint64_t got =
        aspen::rpc(target,
                   [](const std::vector<std::uint64_t>& v) {
                     return std::accumulate(v.begin(), v.end(), 0ull);
                   },
                   big)
            .wait();
    EXPECT_EQ(got, want);
    const auto d = aspen::telemetry::local_snapshot() - before;
    if (d.get(aspen::telemetry::counter::net_rdzv_sent) == 0) {
      // Same-host fabrics can carry the payload over the shm bulk ring
      // instead of negotiating a rendezvous; every rank takes this exit
      // together (the config is job-uniform).
      aspen::barrier();
      GTEST_SKIP() << "payload bypassed rendezvous on this leg";
    }
    aspen::barrier();  // target-side stages recorded before we look

    const auto recs = otrace::snapshot_records();
    // Initiator: inject -> wire_rts -> wire_data -> fulfill, strictly
    // ordered on this rank's own clock.
    std::uint64_t id = 0;
    for (const auto& r : recs)
      if (r.st == otrace::stage::wire_rts &&
          (r.trace >> 48) == static_cast<std::uint64_t>(aspen::rank_me()))
        id = r.trace;
    ASSERT_NE(id, 0u) << "no sampled rendezvous RTS recorded";
    const auto inj = find_stage(recs, id, otrace::stage::inject);
    const auto rts = find_stage(recs, id, otrace::stage::wire_rts);
    const auto data = find_stage(recs, id, otrace::stage::wire_data);
    const auto done = find_stage(recs, id, otrace::stage::fulfill_deferred);
    ASSERT_NE(inj, static_cast<std::size_t>(-1));
    ASSERT_NE(data, static_cast<std::size_t>(-1));
    ASSERT_NE(done, static_cast<std::size_t>(-1));
    EXPECT_LE(recs[inj].t_ns, recs[rts].t_ns);
    EXPECT_LE(recs[rts].t_ns, recs[data].t_ns);
    EXPECT_LE(recs[data].t_ns, recs[done].t_ns);

    // Target: the left neighbor's rendezvous recorded its CTS turn and the
    // in-order delivery here, in that order, on the neighbor's trace id.
    const int left = (aspen::rank_me() + n - 1) % n;
    std::uint64_t lid = 0;
    for (const auto& r : recs)
      if (r.st == otrace::stage::wire_cts &&
          (r.trace >> 48) == static_cast<std::uint64_t>(left))
        lid = r.trace;
    ASSERT_NE(lid, 0u) << "neighbor's RTS never recorded wire_cts here";
    const auto cts = find_stage(recs, lid, otrace::stage::wire_cts);
    const auto del = find_stage(recs, lid, otrace::stage::wire_deliver);
    const auto run = find_stage(recs, lid, otrace::stage::handler_run);
    ASSERT_NE(del, static_cast<std::size_t>(-1));
    ASSERT_NE(run, static_cast<std::size_t>(-1));
    EXPECT_LE(recs[cts].t_ns, recs[del].t_ns);
    EXPECT_LE(recs[del].t_ns, recs[run].t_ns);
    aspen::barrier();
  });
}

TEST(OtraceSpmd, RegionExportMergesIntoOneFlowBoundTimeline) {
  ASPEN_REQUIRE_LAUNCHED();
  const int n = job_size();
  if (!aspen::telemetry::compiled_in()) {
    aspen::spmd(n, otrace_cfg(), [] { aspen::barrier(); });  // see above
    GTEST_SKIP() << "telemetry compiled out";
  }
  if (n < 2) GTEST_SKIP() << "needs a remote peer";
  const std::string base =
      "/tmp/aspen_otrace_merge." + std::to_string(::getppid());
  {
    otrace_region arm(base.c_str());
    aspen::spmd(n, otrace_cfg(), [n] {
      otrace::reset_sampling();
      otrace::clear();
      aspen::barrier();  // everyone cleared before anyone injects
      const int target = (aspen::rank_me() + 1) % n;
      for (int i = 0; i < 4; ++i)
        (void)aspen::rpc(target, [](int x) { return x + 1; }, i).wait();
      // One rendezvous op so the merged file carries all three salted legs.
      std::vector<std::uint64_t> big(1 << 13, 3ull);
      (void)aspen::rpc(target,
                       [](const std::vector<std::uint64_t>& v) {
                         return v.size();
                       },
                       big)
          .wait();
      aspen::barrier();
    });  // region exit exported <base>.rank<R>.otrace.json on every rank
  }

  const int rank = aspen::net::endpoint::instance()->self_rank();
  {
    // Rank clocks were probed at bootstrap: every rank's export says so,
    // which is what puts the merged timeline on rank 0's clock.
    std::ifstream own(otrace::export_path(base, rank));
    std::ostringstream oss;
    oss << own.rdbuf();
    EXPECT_NE(oss.str().find("\"clock_synced\":true"), std::string::npos)
        << otrace::export_path(base, rank);
  }
  aspen::spmd(n, otrace_cfg(), [] { aspen::barrier(); });  // exports on disk

  if (rank == 0) {
    const std::string out = base + ".merged.otrace.json";
    EXPECT_EQ(aspen::bench::merge_rank_otraces(base, n, out), n);
    std::ifstream f(out);
    std::ostringstream ss;
    ss << f.rdbuf();
    const std::string s = ss.str();
    EXPECT_NE(s.find("\"inject\""), std::string::npos);
    EXPECT_NE(s.find("\"wire_deliver\""), std::string::npos);
    EXPECT_NE(s.find("\"handler_run\""), std::string::npos);
    // Every flow id must appear exactly once as a start and once as a
    // finish across the whole job — the pairwise binding contract the CI
    // leg re-checks from the command line.
    auto count_ids = [&s](const char* ph,
                          std::map<std::string, int>& into) {
      const std::string needle = std::string("\"ph\":\"") + ph + "\"";
      for (std::size_t pos = s.find(needle); pos != std::string::npos;
           pos = s.find(needle, pos + 1)) {
        const std::size_t id_key = s.find("\"id\":\"", pos);
        if (id_key == std::string::npos) break;
        const std::size_t open = id_key + 6;
        const std::size_t close = s.find('"', open);
        if (close == std::string::npos) break;
        ++into[s.substr(open, close - open)];
      }
    };
    std::map<std::string, int> starts;
    std::map<std::string, int> finishes;
    count_ids("s", starts);
    count_ids("f", finishes);
    ASSERT_FALSE(starts.empty());
    for (const auto& [fid, cnt] : starts) {
      EXPECT_EQ(cnt, 1) << "flow " << fid << " started " << cnt << " times";
      EXPECT_EQ(finishes.count(fid), 1u)
          << "flow " << fid << " never finishes";
    }
    for (const auto& [fid, cnt] : finishes) {
      EXPECT_EQ(cnt, 1) << "flow " << fid << " finished " << cnt << " times";
      EXPECT_EQ(starts.count(fid), 1u) << "flow " << fid << " never starts";
    }
    (void)std::remove(out.c_str());
  }
  aspen::spmd(n, otrace_cfg(), [] { aspen::barrier(); });  // rank 0 done
  (void)std::remove(otrace::export_path(base, rank).c_str());
}

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// An operator's SIGUSR2 mid-region dumps the flight recorder, and the
// region-exit export lands in its own file: the dump taken mid-region is
// still there afterwards, next to the export.
TEST(OtraceSpmd, Sigusr2DumpSurvivesRegionExport) {
  ASPEN_REQUIRE_LAUNCHED();
  const int n = job_size();
  if (!aspen::telemetry::compiled_in()) {
    aspen::spmd(n, otrace_cfg(), [] { aspen::barrier(); });  // see above
    GTEST_SKIP() << "telemetry compiled out";
  }
  const std::string base =
      "/tmp/aspen_otrace_usr2." + std::to_string(::getppid());
  {
    otrace_region arm(base.c_str());
    aspen::spmd(n, otrace_cfg(), [n] {
      otrace::reset_sampling();
      otrace::clear();
      aspen::barrier();  // everyone cleared before anyone injects
      otrace::install_crash_handlers();
      const int target = (aspen::rank_me() + 1) % n;
      (void)aspen::rpc(target, [](int x) { return x + 1; }, 1).wait();
      aspen::barrier();
      // The operator's probe: signal the process mid-run; the handler
      // dumps the ring and execution continues unharmed.
      ::raise(SIGUSR2);
      aspen::barrier();
    });  // region exit exported the same ring on every rank
  }
  const int rank = aspen::net::endpoint::instance()->self_rank();
  const std::string dump = slurp(otrace::dump_path(base, rank));
  EXPECT_NE(dump.find("\"otrace_dump\":true"), std::string::npos)
      << otrace::dump_path(base, rank) << " lost its SIGUSR2 dump:\n"
      << dump.substr(0, 200);
  EXPECT_NE(dump.find("\"records\""), std::string::npos);
  EXPECT_NE(dump.find("\"inject\""), std::string::npos);
  EXPECT_EQ(dump.find("\"health\""), std::string::npos)
      << "a signal dump carries no watchdog health object";
  const std::string exported = slurp(otrace::export_path(base, rank));
  EXPECT_NE(exported.find("\"traceEvents\""), std::string::npos)
      << otrace::export_path(base, rank) << " holds no region-exit export";
  EXPECT_EQ(exported.find("\"otrace_dump\""), std::string::npos);
  (void)std::remove(otrace::dump_path(base, rank).c_str());
  (void)std::remove(otrace::export_path(base, rank).c_str());
}

// ---------------------------------------------------------------------------
// conduit::shm — the same SPMD binary over the shared-memory fabric. Every
// test also runs (with inverted expectations) on the ASPEN_SHM=0 degraded
// leg, which must behave exactly like conduit::tcp.
// ---------------------------------------------------------------------------

// The locality claim: with the fabric up every same-host rank maps every
// other's segment, so shares_memory() holds cross-process and local_team()
// spans the whole job. Degraded: identical to tcp (singleton teams).
TEST(ShmSpmd, RanksShareMemory) {
  ASPEN_REQUIRE_LAUNCHED();
  const int n = job_size();
  aspen::spmd(n, shm_cfg(), [n] {
    EXPECT_EQ(aspen::rank_n(), n);
    const bool up = shm_fabric_up();
    aspen::team lt = aspen::local_team();
    if (up) {
      EXPECT_EQ(lt.rank_n(), n);
      EXPECT_EQ(lt.rank_me(), aspen::rank_me());
    } else {
      EXPECT_EQ(lt.rank_n(), 1);
      EXPECT_EQ(lt.rank_me(), 0);
    }
    // Ranks are still distinct OS processes either way.
    const int my_pid = static_cast<int>(::getpid());
    for (int r = 0; r < n; ++r) {
      const int pid_r = aspen::broadcast(my_pid, r);
      if (r == aspen::rank_me()) {
        EXPECT_EQ(pid_r, my_pid);
      } else {
        EXPECT_NE(pid_r, my_pid);
      }
    }
    aspen::barrier();
  });
}

// The acceptance claim inverted from NetSpmd.EagerDispositionCrossVsSelf:
// over shm a *cross-process* rput to a mapped peer is a direct store into
// the peer's segment and completes eagerly — cx_eager_taken > 0 where the
// tcp conduit structurally pins it to 0.
TEST(ShmSpmd, CrossProcessRmaCompletesEagerly) {
  ASPEN_REQUIRE_LAUNCHED();
  const int n = job_size();
  aspen::spmd(n, shm_cfg(), [n] {
    using c = aspen::telemetry::counter;
    auto gp = aspen::new_<std::uint64_t>(0);
    std::vector<aspen::global_ptr<std::uint64_t>> dir(
        static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r)
      dir[static_cast<std::size_t>(r)] = aspen::broadcast(gp, r);
    aspen::barrier();

    const bool up = shm_fabric_up();
    const int right = (aspen::rank_me() + 1) % n;
    const int left = (aspen::rank_me() + n - 1) % n;
    const auto before = aspen::telemetry::local_snapshot();
    for (int i = 0; i < 8; ++i)
      aspen::rput(std::uint64_t{100} * aspen::rank_me() + i,
                  dir[static_cast<std::size_t>(right)])
          .wait();
    const auto d = aspen::telemetry::local_snapshot() - before;
    aspen::barrier();
    EXPECT_EQ(*gp.local(), std::uint64_t{100} * left + 7);
    EXPECT_EQ(aspen::rget(dir[static_cast<std::size_t>(left)]).wait(),
              std::uint64_t{100} * ((left + n - 1) % n) + 7);
    if (n > 1 && aspen::telemetry::compiled_in()) {
      if (up) {
        EXPECT_GT(d.get(c::cx_eager_taken), 0u)
            << "a mapped-peer rput should complete eagerly over shm";
      } else {
        EXPECT_EQ(d.get(c::cx_eager_taken), 0u)
            << "degraded shm (pure tcp) must never complete cross-rank "
               "rputs eagerly";
      }
    }
    aspen::barrier();
    aspen::delete_(gp);
  });
}

// AMs over the rings: a small rpc rides the msg ring inline, a mid-size
// payload stages through the bulk ring, and a payload beyond the bulk
// threshold falls back to the socket — all three must deliver correct
// results, and the shm counters must attribute ring traffic only when the
// fabric is up.
TEST(ShmSpmd, RpcInlineAndBulkPayloads) {
  ASPEN_REQUIRE_LAUNCHED();
  const int n = job_size();
  aspen::spmd(n, shm_cfg(), [n] {
    using c = aspen::telemetry::counter;
    const bool up = shm_fabric_up();
    const auto before = aspen::telemetry::local_snapshot();
    const int target = (aspen::rank_me() + 1) % n;

    // Inline: fits any eager/ring budget.
    const int got =
        aspen::rpc(target, [](int x) { return x * 2 + aspen::rank_me(); },
                   21)
            .wait();
    EXPECT_EQ(got, 42 + target);

    // Bulk-ring sized: above the inline eager max (default 8 KiB), well
    // below the bulk-ring capacity.
    std::vector<std::uint64_t> mid(1 << 12);  // 32 KiB
    std::iota(mid.begin(), mid.end(), 17ull * aspen::rank_me());
    const std::uint64_t mid_sum =
        std::accumulate(mid.begin(), mid.end(), 0ull);
    EXPECT_EQ(aspen::rpc(target,
                         [](const std::vector<std::uint64_t>& v) {
                           return std::accumulate(v.begin(), v.end(), 0ull);
                         },
                         mid)
                  .wait(),
              mid_sum);

    // Beyond any ring: a 6 MiB payload exceeds the default bulk-ring
    // budget (8 MiB capacity, shm_bulk_max_ = capacity/2 = 4 MiB), so it
    // must take the socket rendezvous path even with the fabric up.
    std::vector<std::uint64_t> huge((6u << 20) / sizeof(std::uint64_t));
    std::iota(huge.begin(), huge.end(), 3ull);
    const std::uint64_t huge_sum =
        std::accumulate(huge.begin(), huge.end(), 0ull);
    EXPECT_EQ(aspen::rpc(target,
                         [](const std::vector<std::uint64_t>& v) {
                           return std::accumulate(v.begin(), v.end(), 0ull);
                         },
                         huge)
                  .wait(),
              huge_sum);
    aspen::barrier();

    const auto d = aspen::telemetry::local_snapshot() - before;
    if (n > 1 && aspen::telemetry::compiled_in()) {
      if (up) {
        EXPECT_GT(d.get(c::shm_msgs_sent), 0u);
        EXPECT_GT(d.get(c::shm_msgs_received), 0u);
        EXPECT_GT(d.get(c::shm_bulk_staged), 0u)
            << "the 32 KiB rpc should stage through the bulk ring";
        // The 16 MiB transfer went over the socket.
        EXPECT_GT(d.get(c::net_rdzv_sent), 0u);
      } else {
        EXPECT_EQ(d.get(c::shm_msgs_sent), 0u);
        EXPECT_EQ(d.get(c::shm_msgs_received), 0u);
        EXPECT_EQ(d.get(c::shm_bulk_staged), 0u);
      }
    }
    aspen::barrier();
  });
}

// Cross-process atomics: with segments mapped the fetch-adds are local
// lock-free u64 atomics on shared pages (eager), degraded they ride AM —
// the final count must be identical either way.
TEST(ShmSpmd, AtomicsAcrossProcesses) {
  ASPEN_REQUIRE_LAUNCHED();
  const int n = job_size();
  aspen::spmd(n, shm_cfg(), [n] {
    using c = aspen::telemetry::counter;
    const bool up = shm_fabric_up();
    aspen::global_ptr<std::uint64_t> counter;
    if (aspen::rank_me() == 0) counter = aspen::new_<std::uint64_t>(0);
    counter = aspen::broadcast(counter, 0);
    aspen::atomic_domain<std::uint64_t> ad(
        {aspen::gex::amo_op::fadd, aspen::gex::amo_op::load});
    const auto before = aspen::telemetry::local_snapshot();
    for (int i = 0; i < 50; ++i) ad.fetch_add(counter, 1).wait();
    const auto d = aspen::telemetry::local_snapshot() - before;
    aspen::barrier();
    EXPECT_EQ(ad.load(counter).wait(), static_cast<std::uint64_t>(50 * n));
    if (n > 1 && aspen::rank_me() != 0 &&
        aspen::telemetry::compiled_in()) {
      if (up)
        EXPECT_GT(d.get(c::cx_eager_taken), 0u)
            << "mapped-peer AMOs should complete eagerly over shm";
      else
        EXPECT_EQ(d.get(c::cx_eager_taken), 0u);
    }
    aspen::barrier();
    if (aspen::rank_me() == 0) aspen::delete_(counter);
  });
}

TEST(ShmSpmd, CollectivesAndDistObjects) {
  ASPEN_REQUIRE_LAUNCHED();
  const int n = job_size();
  aspen::spmd(n, shm_cfg(), [n] {
    EXPECT_EQ(aspen::allreduce_sum(1), n);
    EXPECT_EQ(aspen::allreduce_sum(aspen::rank_me()), n * (n - 1) / 2);
    EXPECT_EQ(aspen::broadcast(7 * aspen::rank_me() + 1, n - 1),
              7 * (n - 1) + 1);

    aspen::team t = aspen::team::world().split(aspen::rank_me() % 2,
                                               aspen::rank_me());
    const int parity = aspen::rank_me() % 2;
    int expect_sum = 0;
    for (int r = 0; r < n; ++r)
      if (r % 2 == parity) expect_sum += r;
    EXPECT_EQ(t.allreduce_sum(aspen::rank_me()), expect_sum);
    t.barrier();

    aspen::dist_object<int> d(2000 + aspen::rank_me());
    aspen::barrier();
    for (int r = 0; r < n; ++r) EXPECT_EQ(d.fetch(r).wait(), 2000 + r);
    aspen::barrier();
    aspen::barrier_async().wait();
    aspen::barrier();
  });
}

// GUPS equivalence across all three conduits: the commutative XOR-update
// workload must land the table in a bit-identical state whether ranks are
// threads (smp), socket processes (tcp), or ring/mapped processes (shm).
TEST(ShmSpmd, GupsMatchesTcpAndSmp) {
  ASPEN_REQUIRE_LAUNCHED();
  namespace g = aspen::apps::gups;
  const int n = job_size();
  g::params p;
  p.table_bits = 12;
  p.updates_per_rank = 1 << 10;
  p.batch = 64;

  auto local_checksum = [](g::table& t) {
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < t.per_rank(); ++i)
      acc ^= t.local_slice()[i] * 0x9E3779B97F4A7C15ull + i;
    return acc;
  };

  std::uint64_t shm_sum = 0;
  aspen::spmd(n, shm_cfg(), [&] {
    g::table t(p);
    (void)g::run_variant(g::variant::amo_promises, t, p);
    shm_sum = aspen::allreduce_sum(local_checksum(t));
    aspen::barrier();
  });

  std::uint64_t tcp_sum = 0;
  aspen::spmd(n, tcp_cfg(), [&] {
    g::table t(p);
    (void)g::run_variant(g::variant::amo_promises, t, p);
    tcp_sum = aspen::allreduce_sum(local_checksum(t));
    aspen::barrier();
  });
  EXPECT_EQ(shm_sum, tcp_sum)
      << "conduit::shm GUPS diverged from tcp at " << n << " ranks";

  std::uint64_t smp_sum = 0;
  aspen::spmd(n, [&] {
    g::table t(p);
    (void)g::run_variant(g::variant::amo_promises, t, p);
    const std::uint64_t sum = aspen::allreduce_sum(local_checksum(t));
    if (aspen::rank_me() == 0) smp_sum = sum;
  });
  EXPECT_EQ(shm_sum, smp_sum)
      << "conduit::shm GUPS diverged from smp at " << n << " ranks";
}

// The endpoint survives alternating shm and tcp regions in one process:
// rings only carry traffic inside shm regions, sockets stay authoritative
// inside tcp regions, and every boundary quiesces.
TEST(ShmSpmd, AlternatingShmTcpRegions) {
  ASPEN_REQUIRE_LAUNCHED();
  const int n = job_size();
  for (int round = 0; round < 4; ++round) {
    const bool use_shm = round % 2 == 0;
    aspen::spmd(n, use_shm ? shm_cfg() : tcp_cfg(), [n, round] {
      const int target = (aspen::rank_me() + 1 + round) % n;
      const int got =
          aspen::rpc(target, [](int x) { return x + 10; }, round).wait();
      EXPECT_EQ(got, round + 10);
      aspen::barrier();
    });
  }
}

// Job-wide live telemetry over the shm fabric: non-zero ranks still stream
// counter deltas to rank 0 (the telemetry frames themselves ride whatever
// channel the endpoint picks), and the aggregate must show ring traffic
// exactly when the fabric is up.
TEST(ShmSpmd, LiveAggregationOverShm) {
  ASPEN_REQUIRE_LAUNCHED();
  const int n = job_size();
  namespace live = aspen::telemetry::live;
  using c = aspen::telemetry::counter;
  if (!aspen::telemetry::compiled_in() || !live::enabled()) {
    // Join the mesh anyway: every rank of an aspen-run job must complete
    // bootstrap or the launcher treats the early exit as a crashed rank.
    aspen::spmd(n, shm_cfg(), [] { aspen::barrier(); });
    if (!aspen::telemetry::compiled_in())
      GTEST_SKIP() << "telemetry compiled out";
    GTEST_SKIP() << "set ASPEN_TELEMETRY_INTERVAL_MS for the live leg "
                    "(ctest net_spmd_shm_live_n*)";
  }

  const aspen::telemetry::snapshot before = live::job_snapshot();
  bool up = false;
  aspen::spmd(n, shm_cfg(), [n, &up] {
    up = shm_fabric_up();
    const int target = (aspen::rank_me() + 1) % n;
    for (int i = 0; i < 32; ++i)
      (void)aspen::rpc(target, [](int x) { return x + 1; }, i).wait();
    aspen::barrier();
  });

  const int rank = aspen::net::endpoint::instance()->self_rank();
  if (rank == 0) {
    const auto d = live::job_snapshot() - before;
    EXPECT_GT(d.get(c::net_msgs_sent), 0u);
    if (n > 1) {
      if (up) {
        EXPECT_GT(d.get(c::shm_msgs_sent), 0u)
            << "no job-wide ring traffic with the fabric up";
        EXPECT_GT(d.get(c::shm_msgs_received), 0u);
      } else {
        EXPECT_EQ(d.get(c::shm_msgs_sent), 0u);
      }
    }
  }
  aspen::spmd(n, shm_cfg(), [] { aspen::barrier(); });  // rank 0 done
}

// The shm counters are the ring-path *subset* of the net counters: every
// record pushed ticks both planes, so shm_msgs_sent can never exceed
// net_msgs_sent, and the degraded leg keeps the whole shm family at zero.
TEST(ShmSpmd, ShmCountersAreNetSubset) {
  ASPEN_REQUIRE_LAUNCHED();
  const int n = job_size();
  if (!aspen::telemetry::compiled_in())
    GTEST_SKIP() << "telemetry compiled out";
  const auto before = aspen::telemetry::local_snapshot();
  bool up = false;
  aspen::spmd(n, shm_cfg(), [n, &up] {
    up = shm_fabric_up();
    const int target = (aspen::rank_me() + 1) % n;
    for (int i = 0; i < 64; ++i)
      (void)aspen::rpc(target, [](int x) { return x ^ 255; }, i).wait();
    aspen::barrier();
  });
  using c = aspen::telemetry::counter;
  const auto d = aspen::telemetry::local_snapshot() - before;
  const auto total = aspen::telemetry::local_snapshot();
  if (n > 1 && up) {
    EXPECT_GT(d.get(c::shm_msgs_sent), 0u);
    EXPECT_GT(d.get(c::shm_bytes_sent), 0u);
    // Every ring record ticked net_msgs_sent too (net_bytes_sent counts
    // only socket bytes, so no byte-level subset relation holds).
    EXPECT_LE(d.get(c::shm_msgs_sent), d.get(c::net_msgs_sent));
    // Bootstrap mapped every same-host peer exactly once (absolute, not
    // windowed: the fabric may predate this test's snapshot).
    EXPECT_GE(total.get(c::shm_peers_mapped),
              static_cast<std::uint64_t>(n - 1));
  }
  if (!up) {
    EXPECT_EQ(total.get(c::shm_msgs_sent), 0u);
    EXPECT_EQ(total.get(c::shm_msgs_received), 0u);
    EXPECT_EQ(total.get(c::shm_peers_mapped), 0u);
    EXPECT_EQ(total.get(c::shm_wakeups), 0u);
  }
}

// Per-peer FIFO across every channel the endpoint merges. GUPS checksums
// are XORs and blind to order, so this test checks order itself: each rank
// sends kMsgs rpc_ff to its right neighbour carrying (src, index), with
// payloads cycling 16 B, 512 B and 16 KiB. With the fabric up the 16 KiB
// ones ride the bulk ring. Degraded (ASPEN_SHM=0) they go by rendezvous,
// and the eager records sent after each wait behind its DATA in the staged
// map. With 4 KiB rings (net_spmd_shm_ringfull_n4) batches fall back to
// the socket mid-stream. Every arrival must be one past the previous one
// from its source.
TEST(ShmSpmd, PerPeerOrderSurvivesGaps) {
  ASPEN_REQUIRE_LAUNCHED();
  const int n = job_size();
  struct order_log {
    std::vector<int> last;  ///< previous index seen, by source
    int arrivals = 0;
    int out_of_order = 0;
  };
  static order_log log;
  aspen::spmd(n, shm_cfg(), [n] {
    using c = aspen::telemetry::counter;
    constexpr int kMsgs = 2000;
    log = order_log{};
    log.last.assign(static_cast<std::size_t>(n), -1);
    const int me = aspen::rank_me();
    const std::vector<std::uint8_t> pads[] = {
        std::vector<std::uint8_t>(16, static_cast<std::uint8_t>(me)),
        std::vector<std::uint8_t>(512, static_cast<std::uint8_t>(me)),
        std::vector<std::uint8_t>(16 << 10, static_cast<std::uint8_t>(me))};
    aspen::barrier();
    const auto before = aspen::telemetry::local_snapshot();
    for (int i = 0; i < kMsgs; ++i) {
      aspen::rpc_ff(
          (me + 1) % n,
          [](int src, int idx, const std::vector<std::uint8_t>& pad) {
            ++log.arrivals;
            int& last = log.last[static_cast<std::size_t>(src)];
            if (idx != last + 1 || pad.front() != src) ++log.out_of_order;
            last = idx;
          },
          me, i, pads[i % 3]);
    }
    // A barrier does not order the rings against the socket: wait for the
    // left neighbour's kMsgs to land first.
    while (log.arrivals < kMsgs) aspen::progress();
    const auto d = aspen::telemetry::local_snapshot() - before;
    const std::uint64_t staged =
        aspen::allreduce_sum(d.get(c::net_msgs_staged));
    EXPECT_EQ(log.arrivals, kMsgs);
    EXPECT_EQ(log.out_of_order, 0)
        << "arrivals that were not one past their source's previous index";
    if (n > 1 && aspen::telemetry::compiled_in()) {
      const bool up = shm_fabric_up();
      if (me == 0)
        std::printf("note: job-wide net_msgs_staged=%llu of %d AMs (fabric "
                    "%s)\n",
                    static_cast<unsigned long long>(staged), n * kMsgs,
                    up ? "up" : "down");
      if (!up) {
        EXPECT_GT(staged, 0u)
            << "no eager record waited behind a rendezvous DATA";
      }
    }
    aspen::barrier();
  });
}

// A rank parked in future::wait() wakes when a ring record lands, not when
// its 1 ms poll bound runs out (the shm doorbell, docs/SHM.md "Parking").
// Rank 0 sleeps 200 us before each of 200 rpc round trips to rank 1, longer
// than a waiter's 64 empty polls, so rank 1 is parked when each request
// lands and rank 0 is parked when the reply does. Every other rank blocks
// in future::wait() on a promise that rank 0 releases last, so no rank
// spins in a barrier beside the measurement. Without the doorbell a round
// trip sleeps out about a whole park bound; degraded (ASPEN_SHM=0) socket
// bytes wake the park instead.
TEST(ShmSpmd, ParkedWaiterWakesOnRingRecord) {
  ASPEN_REQUIRE_LAUNCHED();
  const int n = job_size();
  if (n < 2) GTEST_SKIP() << "needs two ranks";
  static aspen::promise<>* release = nullptr;
  aspen::spmd(n, shm_cfg(), [n] {
    using c = aspen::telemetry::counter;
    aspen::promise<> done;
    done.require_anonymous(1);
    aspen::future<> released = done.finalize();
    release = &done;
    aspen::barrier();
    if (aspen::rank_me() != 0) {
      released.wait();
    } else {
      constexpr int kTrips = 200;
      const auto before = aspen::telemetry::local_snapshot();
      std::vector<std::chrono::nanoseconds> rtt;
      for (int i = 0; i < kTrips; ++i) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        const auto t0 = std::chrono::steady_clock::now();
        EXPECT_EQ(aspen::rpc(1, [](int x) { return x + 1; }, i).wait(),
                  i + 1);
        rtt.push_back(std::chrono::steady_clock::now() - t0);
      }
      const auto d = aspen::telemetry::local_snapshot() - before;
      for (int r = 1; r < n; ++r)
        aspen::rpc_ff(r, [] { release->fulfill_anonymous(1); });
      std::nth_element(rtt.begin(), rtt.begin() + kTrips / 2, rtt.end());
      const auto median = rtt[kTrips / 2];
      std::printf("note: parked round trip median %.1f us at -n %d\n",
                  static_cast<double>(median.count()) / 1e3, n);
      EXPECT_LT(median, std::chrono::microseconds(500))
          << "a parked rank slept through a ring record";
      if (shm_fabric_up() && aspen::telemetry::compiled_in()) {
        EXPECT_GT(d.get(c::shm_wakeups), 0u)
            << "no ring push found rank 1 parked";
      }
    }
    aspen::barrier();
  });
}

// ---------------------------------------------------------------------------
// AggSpmd — the wire aggregation fabric (ASPEN_AGG, docs/AGG.md) over real
// processes. spmd_net re-applies the ASPEN_* environment at every region
// entry, so each test arms/disarms aggregation with setenv around a region;
// the watermarks are pinned low so even the small test workloads coalesce.
// ---------------------------------------------------------------------------

/// setenv/unsetenv guard for the ASPEN_AGG knob family.
struct agg_env_guard {
  explicit agg_env_guard(const char* frames = "16", const char* flush_us = "200") {
    setenv("ASPEN_AGG", "1", 1);
    setenv("ASPEN_AGG_FRAMES", frames, 1);
    setenv("ASPEN_AGG_FLUSH_US", flush_us, 1);
  }
  ~agg_env_guard() {
    unsetenv("ASPEN_AGG");
    unsetenv("ASPEN_AGG_FRAMES");
    unsetenv("ASPEN_AGG_FLUSH_US");
  }
};

// The headline equivalence: the commutative GUPS workload must land a
// bit-identical table with aggregation on, aggregation off, and on the smp
// baseline — coalescing changes syscall boundaries, never frame content or
// per-peer order — and the aggregated region must actually coalesce.
TEST(AggSpmd, GupsBitIdenticalAggOnOffAndSmp) {
  ASPEN_REQUIRE_LAUNCHED();
  namespace g = aspen::apps::gups;
  using c = aspen::telemetry::counter;
  const int n = job_size();
  g::params p;
  p.table_bits = 12;
  p.updates_per_rank = 1 << 10;
  p.batch = 64;

  auto local_checksum = [](g::table& t) {
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < t.per_rank(); ++i)
      acc ^= t.local_slice()[i] * 0x9E3779B97F4A7C15ull + i;
    return acc;
  };

  std::uint64_t agg_sum = 0, coalesced = 0;
  {
    agg_env_guard armed;
    aspen::spmd(n, tcp_cfg(), [&] {
      const auto before = aspen::telemetry::local_snapshot();
      g::table t(p);
      (void)g::run_variant(g::variant::amo_promises, t, p);
      agg_sum = aspen::allreduce_sum(local_checksum(t));
      const auto d = aspen::telemetry::local_snapshot() - before;
      coalesced = aspen::allreduce_sum(d.get(c::agg_frames_coalesced));
      aspen::barrier();
    });
  }

  std::uint64_t plain_sum = 0;
  aspen::spmd(n, tcp_cfg(), [&] {
    g::table t(p);
    (void)g::run_variant(g::variant::amo_promises, t, p);
    plain_sum = aspen::allreduce_sum(local_checksum(t));
    aspen::barrier();
  });
  EXPECT_EQ(agg_sum, plain_sum)
      << "ASPEN_AGG=1 GUPS diverged from unaggregated tcp at " << n
      << " ranks";

  std::uint64_t smp_sum = 0;
  aspen::spmd(n, [&] {
    g::table t(p);
    (void)g::run_variant(g::variant::amo_promises, t, p);
    const std::uint64_t sum = aspen::allreduce_sum(local_checksum(t));
    if (aspen::rank_me() == 0) smp_sum = sum;
  });
  EXPECT_EQ(agg_sum, smp_sum)
      << "ASPEN_AGG=1 GUPS diverged from smp at " << n << " ranks";

  if (n > 1 && aspen::telemetry::compiled_in()) {
    EXPECT_GT(coalesced, 0u)
        << "the armed region coalesced no frames — aggregation never "
           "engaged";
  }
}

// Same equivalence over conduit::shm. GUPS runs as rpc_ff updates so the
// AMs ride the message rings (amo_promises completes by direct atomics on
// shm and sends no AM): ring batches must preserve the bit-identical
// result, and toggling between an aggregated shm region and an
// unaggregated one in the same process must requiesce cleanly. Under a
// tiny ring (the net_spmd_shm_ringfull_n4 leg) full rings must also have
// sent batches down the socket fallback.
TEST(AggSpmd, GupsBitIdenticalOverShm) {
  ASPEN_REQUIRE_LAUNCHED();
  namespace g = aspen::apps::gups;
  using c = aspen::telemetry::counter;
  const int n = job_size();
  g::params p;
  p.table_bits = 12;
  p.updates_per_rank = 1 << 10;
  p.batch = 64;

  auto local_checksum = [](g::table& t) {
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < t.per_rank(); ++i)
      acc ^= t.local_slice()[i] * 0x9E3779B97F4A7C15ull + i;
    return acc;
  };
  std::uint64_t ring_msgs = 0, ring_full = 0;
  bool up = false;
  auto run = [&](std::uint64_t* sum) {
    const auto before = aspen::telemetry::local_snapshot();
    g::table t(p);
    (void)g::run_variant(g::variant::rpc_ff, t, p);
    *sum = aspen::allreduce_sum(local_checksum(t));
    const auto d = aspen::telemetry::local_snapshot() - before;
    ring_msgs += aspen::allreduce_sum(d.get(c::shm_msgs_sent));
    ring_full += aspen::allreduce_sum(d.get(c::shm_ring_full));
    up = shm_fabric_up();
    aspen::barrier();
  };

  std::uint64_t agg_sum = 0;
  {
    agg_env_guard armed;
    aspen::spmd(n, shm_cfg(), [&] { run(&agg_sum); });
  }
  std::uint64_t plain_sum = 0;
  aspen::spmd(n, shm_cfg(), [&] { run(&plain_sum); });
  EXPECT_EQ(agg_sum, plain_sum)
      << "ASPEN_AGG=1 over shm diverged from unaggregated shm at " << n
      << " ranks";

  if (n > 1 && up && aspen::telemetry::compiled_in()) {
    EXPECT_GT(ring_msgs, 0u) << "no update rode the shm rings";
    const char* env = std::getenv("ASPEN_SHM_RING_BYTES");
    const auto ring_bytes =
        env != nullptr ? std::strtoull(env, nullptr, 0) : 0;
    if (ring_bytes != 0 && ring_bytes <= 4096) {
      EXPECT_GT(ring_full, 0u)
          << "a " << ring_bytes << "-byte ring never filled";
    }
  }
}

// Latency-bound round trips with aggregation armed and a deliberately huge
// age watermark: a rank blocked in wait() must not deadlock on its own
// unflushed batch — enqueue_frame flushes replies eagerly and idle_wait
// force-flushes before parking. RPC results prove nothing was dropped.
TEST(AggSpmd, SingleOpRoundTripsDoNotStall) {
  ASPEN_REQUIRE_LAUNCHED();
  const int n = job_size();
  setenv("ASPEN_AGG", "1", 1);
  setenv("ASPEN_AGG_FLUSH_US", "1000000", 1);  // 1s: age flush can't save us
  aspen::spmd(n, tcp_cfg(), [n] {
    const int target = (aspen::rank_me() + 1) % n;
    for (int i = 0; i < 64; ++i) {
      const int got =
          aspen::rpc(target, [](int x) { return x * 3; }, i).wait();
      EXPECT_EQ(got, i * 3);
    }
    aspen::barrier();
  });
  unsetenv("ASPEN_AGG");
  unsetenv("ASPEN_AGG_FLUSH_US");
}

// The bounded send queue (ASPEN_NET_SENDQ_MAX): a one-sided rpc_ff flood
// against a tiny bound must park injectors rather than grow the queue
// without limit, and every message must still land (counted remotely).
TEST(AggSpmd, BoundedSendqParksAndDelivers) {
  ASPEN_REQUIRE_LAUNCHED();
  using c = aspen::telemetry::counter;
  const int n = job_size();
  static std::atomic<int> hits{0};
  hits.store(0);
  setenv("ASPEN_AGG", "1", 1);
  setenv("ASPEN_NET_SENDQ_MAX", "16384", 1);
  constexpr int kFloods = 512;
  std::uint64_t parked = 0;
  aspen::spmd(n, tcp_cfg(), [n, &parked] {
    const auto before = aspen::telemetry::local_snapshot();
    const int target = (aspen::rank_me() + 1) % n;
    for (int i = 0; i < kFloods; ++i)
      aspen::rpc_ff(target, [] { hits.fetch_add(1); });
    const auto d = aspen::telemetry::local_snapshot() - before;
    parked = d.get(c::net_sendq_parked);
    // Quiescence at region end guarantees delivery of all kFloods.
    aspen::barrier();
  });
  unsetenv("ASPEN_AGG");
  unsetenv("ASPEN_NET_SENDQ_MAX");
  if (n > 1) {
    EXPECT_EQ(hits.load(), kFloods)
        << "rpc_ff flood lost messages under a bounded send queue";
  }
  // Parking is load-dependent (the pump may keep up), so only report it.
  if (parked > 0)
    std::printf("note: net_sendq_parked=%llu under the %d-message flood\n",
                static_cast<unsigned long long>(parked), kFloods);
}

}  // namespace
