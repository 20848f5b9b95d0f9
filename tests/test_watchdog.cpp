// Stall watchdog (telemetry_lat.hpp): trip/no-trip behavior on a stalled
// pending op, the SIGUSR1 forced-dump path, and — under aspen-run with
// ASPEN_WATCHDOG_MS set (ctest net_spmd_watchdog_*) — a cross-process leg
// where one rank stops progressing and the waiting rank's watchdog must
// name itself in its flight-recorder dump. A trip writes one file per
// rank, otrace::dump_path(base, rank): a "health" object ahead of the
// ring's records (empty here: sampling stays off).
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/aspen.hpp"
#include "core/otrace.hpp"
#include "core/telemetry.hpp"
#include "net/endpoint.hpp"

namespace wd = aspen::telemetry::watchdog;
namespace otrace = aspen::otrace;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void sleep_ms(unsigned ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Per-test dump base under the gtest temp dir (named through otrace, whose
/// base the watchdog's dumps share); each test cleans up the rank-0 dump
/// it may have produced.
struct dump_file {
  std::string base;
  explicit dump_file(const char* tag)
      : base(::testing::TempDir() + "aspen_wd_" + tag) {
    otrace::configure(/*sample_n=*/0, /*ring_bytes=*/1 << 16, base.c_str());
    std::remove(rank0().c_str());
  }
  ~dump_file() { std::remove(rank0().c_str()); }
  [[nodiscard]] std::string rank0() const { return otrace::dump_path(base, 0); }
};

TEST(Watchdog, ConfigureEnablesAndZeroDisables) {
  if (!aspen::telemetry::compiled_in())
    GTEST_SKIP() << "telemetry compiled out";
  wd::configure(250);
  EXPECT_TRUE(wd::enabled());
  EXPECT_EQ(wd::threshold_ms(), 250u);
  wd::configure(0);
  EXPECT_FALSE(wd::enabled());
  EXPECT_EQ(wd::threshold_ms(), 0u);
  EXPECT_EQ(wd::track_op(aspen::telemetry::op_class::amo), 0u)
      << "a disabled watchdog must not hand out tracking handles";
}

TEST(Watchdog, TripsOnStalledPendingOp) {
  if (!aspen::telemetry::compiled_in())
    GTEST_SKIP() << "telemetry compiled out";
  dump_file df("trip");
  wd::configure(50);
  const int before = wd::reports_written();

  const std::uint64_t id = wd::track_op(aspen::telemetry::op_class::rma_put);
  ASSERT_NE(id, 0u);
  sleep_ms(120);  // well past the 50 ms threshold (and the check throttle)
  wd::poll_check();

  EXPECT_EQ(wd::reports_written(), before + 1);
  const std::string body = slurp(df.rank0());
  EXPECT_NE(body.find("\"rank\":0,\"health\":{\"reason\":\"oldest_op\""),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("\"oldest_op_class\":\"rma_put\""), std::string::npos)
      << body;
  EXPECT_NE(body.find("\"pending_ops\":1,"), std::string::npos) << body;
  // Written with sampling off: the ring's records follow, empty.
  EXPECT_NE(body.find("\"records\":[\n]}"), std::string::npos) << body;

  // One dump per stall episode: the same stall must not spam.
  sleep_ms(60);
  wd::poll_check();
  EXPECT_EQ(wd::reports_written(), before + 1);

  wd::complete_op(id);
  wd::configure(0);
}

TEST(Watchdog, CleanRunWritesNothing) {
  if (!aspen::telemetry::compiled_in())
    GTEST_SKIP() << "telemetry compiled out";
  dump_file df("clean");
  wd::configure(10'000);
  const int before = wd::reports_written();

  const std::uint64_t id = wd::track_op(aspen::telemetry::op_class::amo);
  wd::complete_op(id);  // completes promptly: nothing is pending
  sleep_ms(5);
  wd::poll_check();

  EXPECT_EQ(wd::reports_written(), before);
  EXPECT_NE(::access(df.rank0().c_str(), F_OK), 0)
      << "stall dump written on a healthy run";
  wd::configure(0);
}

TEST(Watchdog, RequestReportForcesHealthyDump) {
  if (!aspen::telemetry::compiled_in())
    GTEST_SKIP() << "telemetry compiled out";
  dump_file df("forced");
  wd::configure(60'000);
  const int before = wd::reports_written();

  // Nothing is stalled, but a dump was requested (the SIGUSR1 handler body
  // calls exactly this), so the next check must dump unconditionally.
  wd::request_report();
  wd::poll_check();

  EXPECT_EQ(wd::reports_written(), before + 1);
  const std::string body = slurp(df.rank0());
  EXPECT_NE(body.find("\"health\":{\"reason\":\"sigusr1\""),
            std::string::npos)
      << body;
  wd::configure(0);
}

// ---------------------------------------------------------------------------
// Cross-process legs (ctest net_spmd_watchdog_trip / _clean): run under
// `aspen-run -n 2` with ASPEN_WATCHDOG_MS / ASPEN_TELEMETRY_TRACE set, plus
// ASPEN_TEST_STALL_MS on the trip leg. Rank 1 stops progressing for the
// stall window while rank 0 waits on a remote AMO; rank 0's watchdog must
// trip (naming rank 0, the rank whose op is stuck) iff the stall exceeds
// the threshold.
// ---------------------------------------------------------------------------

unsigned long env_ms(const char* name) {
  const char* s = std::getenv(name);
  return s == nullptr || *s == '\0' ? 0 : std::strtoul(s, nullptr, 10);
}

TEST(WatchdogTcp, StallTripsAndCleanDoesNot) {
  if (!aspen::net::endpoint::launched())
    GTEST_SKIP() << "not under aspen-run (see ctest net_spmd_watchdog_*)";
  const unsigned long wd_ms = env_ms("ASPEN_WATCHDOG_MS");
  const unsigned long stall_ms = env_ms("ASPEN_TEST_STALL_MS");
  const bool expect_trip = stall_ms > wd_ms;
  // With telemetry compiled out (or the threshold unset) the region still
  // runs — under aspen-run every rank must reach the spmd bootstrap — and
  // only the report assertions are skipped at the end.
  const bool armed = aspen::telemetry::compiled_in() && wd_ms != 0;

  // Deterministic config (the same values the environment carries): the
  // smp tests above may have left the watchdog disabled and the dump base
  // pointed elsewhere in this process. The job's rendezvous port, shared by
  // its ranks and by no concurrent job, suffixes the base, so two runs of
  // this leg at once never read each other's dump.
  const std::string base = std::string(aspen::telemetry::artifact_base()) +
                           "." + std::getenv(aspen::net::kEnvRdzvPort);
  otrace::configure(/*sample_n=*/0, /*ring_bytes=*/1 << 16, base.c_str());
  if (armed) wd::configure(wd_ms);
  const int before = wd::reports_written();

  const char* nr = std::getenv(aspen::net::kEnvNranks);
  const int n = nr == nullptr ? 0 : std::atoi(nr);
  aspen::gex::config cfg;
  cfg.transport = aspen::gex::conduit::tcp;

  aspen::spmd(n, cfg, [stall_ms] {
    aspen::global_ptr<std::uint64_t> word;
    if (aspen::rank_me() == 1) word = aspen::new_<std::uint64_t>(0);
    word = aspen::broadcast(word, 1);
    aspen::atomic_domain<std::uint64_t> ad({aspen::gex::amo_op::fadd});
    aspen::barrier();
    if (aspen::rank_me() == 0) {
      // Let rank 1 actually reach its sleep first: issued immediately, the
      // AMO could still be served during rank 1's barrier-exit pumping.
      if (stall_ms != 0)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(stall_ms / 8));
      // The AMO targets rank 1, which is asleep: the op stays pending —
      // and the watchdog check rides our own progress spinning — until
      // rank 1 resumes serving requests.
      EXPECT_EQ(
          ad.fetch_add(word, 1, aspen::operation_cx::as_future()).wait(),
          0u);
    } else if (aspen::rank_me() == 1 && stall_ms != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
    }
    aspen::barrier();
    if (aspen::rank_me() == 1) aspen::delete_(word);
  });

  const int rank = aspen::net::endpoint::instance()->self_rank();
  if (!armed)
    GTEST_SKIP() << "watchdog not armed in this build/configuration "
                    "(needs ASPEN_TELEMETRY=ON and ASPEN_WATCHDOG_MS)";
  const std::string dump = otrace::dump_path(base, 0);
  if (rank == 0) {
    if (expect_trip) {
      // One stall, one dump, naming the stuck op.
      EXPECT_EQ(wd::reports_written(), before + 1)
          << "the stalled op should trip the watchdog exactly once";
      const std::string body = slurp(dump);
      EXPECT_NE(
          body.find("\"rank\":0,\"health\":{\"reason\":\"oldest_op\""),
          std::string::npos)
          << body;
      // The endpoint's probe rides along: the transport gauges.
      EXPECT_NE(body.find("\"transport\":{\"sendq_bytes\":"),
                std::string::npos)
          << body;
      std::remove(dump.c_str());
    } else {
      EXPECT_EQ(wd::reports_written(), before)
          << "clean run tripped the watchdog: " << slurp(dump);
      EXPECT_NE(::access(dump.c_str(), F_OK), 0);
    }
  }
  wd::configure(0);
}

}  // namespace
