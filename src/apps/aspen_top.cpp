// aspen-top — a rank-0-side live console for a running multi-process job.
//
// Drives a small mixed workload (self/neighbor AMOs, RMA, RPC, when_all)
// across N ranks under `aspen-run` and, between rounds, renders rank 0's
// live-telemetry collector: per-rank transport gauges and disposition
// counts, plus job-wide completion-latency percentiles per disposition and
// the wire/progress/sendq streams. Everything displayed comes from
// telemetry::live::job_snapshot()/rank_gauges() — no sidecar files.
//
// Launched outside aspen-run it re-execs itself under the launcher
// (`aspen-run -n N aspen-top ...`), mirroring bench/offnode_branch. Flags:
//
//   -n N            ranks to launch (default 4; parent mode only)
//   --once          render exactly one frame (no screen clearing) and exit
//   --interval MS   refresh interval (else ASPEN_TOP_INTERVAL_MS, else 500)
//   --rounds R      traffic rounds to run (default 20; 3 with --once)
//   --conduit C     tcp (default) or shm; the shm% column shows the share
//                   of each rank's AM traffic that rode the shared-memory
//                   rings (always 0.0 under tcp)
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "benchutil/table.hpp"
#include "benchutil/telemetry_report.hpp"
#include "core/aspen.hpp"
#include "core/telemetry_live.hpp"
#include "net/endpoint.hpp"

namespace {

using namespace aspen;

struct top_options {
  int nranks = 4;
  bool once = false;
  std::uint32_t interval_ms = 0;  // 0 = resolve from env / default below
  int rounds = 0;                 // 0 = default per mode
  bool shm = false;               // --conduit shm
};

std::uint32_t resolve_interval(const top_options& o) {
  if (o.interval_ms != 0) return o.interval_ms;
  if (const char* s = std::getenv("ASPEN_TOP_INTERVAL_MS");
      s != nullptr && *s != '\0') {
    char* end = nullptr;
    const unsigned long v = std::strtoul(s, &end, 10);
    if (end != s && *end == '\0' && v != 0)
      return static_cast<std::uint32_t>(std::min(v, 60'000ul));
  }
  return 500;
}

top_options parse_args(int argc, char** argv) {
  top_options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--once") {
      o.once = true;
    } else if (a == "-n" && i + 1 < argc) {
      o.nranks = std::max(1, std::atoi(argv[++i]));
    } else if (a == "--interval" && i + 1 < argc) {
      o.interval_ms = static_cast<std::uint32_t>(
          std::max(1, std::atoi(argv[++i])));
    } else if (a == "--rounds" && i + 1 < argc) {
      o.rounds = std::max(1, std::atoi(argv[++i]));
    } else if (a == "--conduit" && i + 1 < argc) {
      const std::string c = argv[++i];
      if (c != "tcp" && c != "shm") {
        std::fprintf(stderr, "aspen-top: unknown conduit \"%s\"\n",
                     c.c_str());
        std::exit(2);
      }
      o.shm = c == "shm";
    } else {
      std::fprintf(stderr,
                   "aspen-top: unknown argument \"%s\"\n"
                   "usage: aspen-top [-n N] [--once] [--interval MS] "
                   "[--rounds R] [--conduit tcp|shm]\n",
                   a.c_str());
      std::exit(2);
    }
  }
  if (o.rounds == 0) o.rounds = o.once ? 3 : 20;
  return o;
}

std::string fmt_ns(std::uint64_t ns) {
  char buf[32];
  if (ns >= 10'000'000)
    std::snprintf(buf, sizeof buf, "%.1fms", static_cast<double>(ns) / 1e6);
  else if (ns >= 10'000)
    std::snprintf(buf, sizeof buf, "%.1fus", static_cast<double>(ns) / 1e3);
  else
    std::snprintf(buf, sizeof buf, "%lluns",
                  static_cast<unsigned long long>(ns));
  return buf;
}

void add_lat_row(bench::table& t, const char* name,
                 const telemetry::lat_hist& h) {
  if (h.total() == 0) return;
  t.add_row({name, std::to_string(h.total()), fmt_ns(h.percentile_ns(50.0)),
             fmt_ns(h.percentile_ns(99.0)), fmt_ns(h.max_ns)});
}

/// Watchdog health gauge -> a one-glyph column: healthy ranks show a dot,
/// a rank inside a detected stall shows "!", a rank that stalled earlier
/// this region but has recovered shows "~".
const char* health_glyph(std::uint64_t wd_state) {
  switch (wd_state) {
    case 1: return "!";
    case 2: return "~";
    default: return ".";  // ASCII so the byte-width table stays aligned
  }
}

/// One dashboard frame from rank 0's live collector.
void render_frame(int nranks, int frame, int rounds, bool clear_screen) {
  if (clear_screen) std::fputs("\033[2J\033[H", stdout);
  const telemetry::snapshot job = telemetry::live::job_snapshot();
  std::printf("aspen-top — %d ranks, frame %d/%d\n", nranks, frame, rounds);

  // trc/s is a per-frame rate, so remember the previous frame's sampled-op
  // totals and timestamp (rank 0 renders every frame from one thread).
  static std::vector<std::uint64_t> prev_sampled;
  static std::chrono::steady_clock::time_point prev_when;
  const auto now = std::chrono::steady_clock::now();
  const double dt =
      prev_sampled.empty()
          ? 0.0
          : std::chrono::duration<double>(now - prev_when).count();
  prev_sampled.resize(static_cast<std::size_t>(nranks), 0);

  bench::table ranks({"rank", "hp", "updates", "eager", "deferred", "ratio",
                      "shm%", "agg", "trc/s", "sendq", "staged",
                      "lpc_depth"});
  for (int r = 0; r < nranks; ++r) {
    const telemetry::snapshot s = telemetry::live::rank_snapshot(r);
    const telemetry::live::gauges g = telemetry::live::rank_gauges(r);
    char ratio[16];
    std::snprintf(ratio, sizeof ratio, "%.3f", s.eager_bypass_ratio());
    // Share of this rank's AM traffic that rode the shared-memory rings
    // instead of a socket (0.0 on tcp or with the shm fabric down).
    const std::uint64_t net_sent = s.get(telemetry::counter::net_msgs_sent);
    char shm_pct[16];
    std::snprintf(shm_pct, sizeof shm_pct, "%.1f",
                  net_sent == 0
                      ? 0.0
                      : 100.0 *
                            static_cast<double>(
                                s.get(telemetry::counter::shm_msgs_sent)) /
                            static_cast<double>(net_sent));
    // Sampled-trace throughput since the previous frame; "-" until a
    // second frame gives the rate a baseline, "0" when tracing is off.
    const std::uint64_t sampled =
        s.get(telemetry::counter::otrace_sampled);
    char trc[24];
    if (dt <= 0.0) {
      std::snprintf(trc, sizeof trc, "-");
    } else {
      const std::uint64_t was = prev_sampled[static_cast<std::size_t>(r)];
      std::snprintf(trc, sizeof trc, "%.0f",
                    sampled >= was
                        ? static_cast<double>(sampled - was) / dt
                        : 0.0);
    }
    prev_sampled[static_cast<std::size_t>(r)] = sampled;
    ranks.add_row({std::to_string(r), health_glyph(g.wd_state),
                   std::to_string(telemetry::live::rank_updates(r)),
                   std::to_string(s.get(telemetry::counter::cx_eager_taken)),
                   std::to_string(
                       s.get(telemetry::counter::cx_deferred_queued) +
                       s.get(telemetry::counter::cx_remote_async)),
                   ratio, shm_pct,
                   std::to_string(
                       s.get(telemetry::counter::agg_frames_coalesced)),
                   trc, std::to_string(g.sendq_bytes),
                   std::to_string(g.staged_msgs),
                   std::to_string(g.lpc_mailbox_depth)});
  }
  prev_when = now;
  ranks.print(std::cout);

  bench::table lat({"latency stream (job)", "count", "p50", "p99", "max"});
  add_lat_row(lat, "eager (all op classes)",
              job.lat_by_disposition(telemetry::disposition::eager));
  add_lat_row(lat, "deferred (all op classes)",
              job.lat_by_disposition(telemetry::disposition::deferred));
  add_lat_row(lat, "wire_delivery",
              job.lat_of(telemetry::lat_stream::wire_delivery));
  add_lat_row(lat, "shm_delivery",
              job.lat_of(telemetry::lat_stream::shm_delivery));
  add_lat_row(lat, "agg_batch_fill",
              job.lat_of(telemetry::lat_stream::agg_batch_fill));
  add_lat_row(lat, "progress_gap",
              job.lat_of(telemetry::lat_stream::progress_gap));
  add_lat_row(lat, "sendq_residency",
              job.lat_of(telemetry::lat_stream::sendq_residency));
  lat.print(std::cout);
  std::fflush(stdout);
}

/// Pump the progress engine for ~ms milliseconds (rank 0 keeps collecting
/// sibling updates while it waits out the refresh interval).
void progress_for(std::uint32_t ms) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (std::chrono::steady_clock::now() < until) {
    if (aspen::progress() == 0) std::this_thread::yield();
  }
}

/// One round of mixed traffic: a self-targeted AMO (eager, local), a
/// neighbor AMO + RMA put/get + RPC (deferred, over the wire), and a
/// when_all conjunction.
void traffic_round(atomic_domain<std::uint64_t>& ad,
                   const std::vector<global_ptr<std::uint64_t>>& slots) {
  const int me = rank_me();
  const int n = rank_n();
  const int nb = (me + 1) % n;
  for (int i = 0; i < 32; ++i) {
    auto self_amo = ad.fetch_add(slots[static_cast<std::size_t>(me)], 1,
                                 operation_cx::as_future());
    auto nb_amo = ad.fetch_add(slots[static_cast<std::size_t>(nb)], 1,
                               operation_cx::as_future());
    when_all(std::move(self_amo), std::move(nb_amo)).wait();
  }
  for (int i = 0; i < 8; ++i) {
    rput(std::uint64_t{0}, slots[static_cast<std::size_t>(nb)],
         operation_cx::as_future())
        .wait();
    (void)rget(slots[static_cast<std::size_t>(nb)], operation_cx::as_future())
        .wait();
  }
  if (n > 1) {
    for (int i = 0; i < 4; ++i)
      (void)rpc(nb, [](std::uint64_t x) { return x + 1; },
                static_cast<std::uint64_t>(i))
          .wait();
  }
}

int run_monitored_job(const top_options& o) {
  const char* nr = std::getenv(net::kEnvNranks);
  const int nranks = nr != nullptr ? std::atoi(nr) : o.nranks;
  const std::uint32_t interval = resolve_interval(o);
  gex::config gcfg;
  gcfg.transport = o.shm ? gex::conduit::shm : gex::conduit::tcp;

  aspen::spmd(nranks, gcfg, [&] {
    atomic_domain<std::uint64_t> ad({gex::amo_op::fadd});
    std::vector<global_ptr<std::uint64_t>> slots(
        static_cast<std::size_t>(rank_n()));
    for (int r = 0; r < rank_n(); ++r) {
      global_ptr<std::uint64_t> gp;
      if (rank_me() == r) gp = new_<std::uint64_t>(0);
      slots[static_cast<std::size_t>(r)] = broadcast(gp, r);
    }
    barrier();
    for (int round = 1; round <= o.rounds; ++round) {
      traffic_round(ad, slots);
      barrier();
      if (rank_me() == 0) {
        // Let sibling periodic pushes land, then draw. --once draws only
        // the final frame so the smoke-test output stays one screen.
        progress_for(o.once && round < o.rounds ? 1 : interval);
        if (!o.once || round == o.rounds) {
          // Rank 0 never ships itself update frames; refresh its collector
          // slot in place (absolute totals, same as the region-exit path)
          // so its own row is as live as everyone else's.
          telemetry::live::collector_note_local(
              telemetry::live::capture_total(),
              net::endpoint::instance()->live_gauges());
          render_frame(rank_n(), round, o.rounds, /*clear_screen=*/!o.once);
        }
      }
      barrier();
    }
    barrier();
    if (rank_me() < static_cast<int>(slots.size()))
      delete_(slots[static_cast<std::size_t>(rank_me())]);
  });
  return 0;
}

/// Parent mode: re-exec under aspen-run with the live plane enabled.
int relaunch(const top_options& o, const char* argv0) {
  // The dashboard is meaningless without the live plane; default to a push
  // interval well under the refresh rate, but respect an explicit setting.
  ::setenv("ASPEN_TELEMETRY_INTERVAL_MS", "20", /*overwrite=*/0);

  char self[4096];
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof self - 1);
  if (n <= 0) {
    std::snprintf(self, sizeof self, "%s", argv0);
  } else {
    self[n] = '\0';
  }
  std::string launcher;
  if (const char* env = std::getenv("ASPEN_RUN")) {
    launcher = env;
  } else {
    // Default build layout: src/aspen-top next to src/aspen-run.
    const std::string dir(self, std::string(self).find_last_of('/'));
    launcher = dir + "/aspen-run";
  }
  if (::access(launcher.c_str(), X_OK) != 0) {
    std::fprintf(stderr,
                 "aspen-top: launcher not found at %s (set ASPEN_RUN)\n",
                 launcher.c_str());
    return 1;
  }
  std::string cmd = launcher + " -n " + std::to_string(o.nranks) + " " + self;
  if (o.once) cmd += " --once";
  if (o.shm) cmd += " --conduit shm";
  cmd += " --rounds " + std::to_string(o.rounds);
  cmd += " --interval " + std::to_string(resolve_interval(o));
  const int rc = std::system(cmd.c_str());
  return rc == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const top_options o = parse_args(argc, argv);
  if (!telemetry::compiled_in()) {
    std::fprintf(stderr,
                 "aspen-top: this build has ASPEN_TELEMETRY off; nothing to "
                 "display (configure with -DASPEN_TELEMETRY=ON)\n");
    return 1;
  }
  if (net::endpoint::launched()) return run_monitored_job(o);
  return relaunch(o, argv[0]);
}
