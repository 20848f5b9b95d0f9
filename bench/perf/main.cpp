// aspen-bench — end-to-end and per-layer performance benchmark of ASPEN.
//
//   aspen-bench [--workload NAME[,NAME...]] [--seed N] [--seconds S]
//               [--out FILE] [--layers] [--sweep] [--smoke]
//               [--sibling PATH] [--work DIR]
//
// Each workload runs 16 fresh jobs (launches). A launch warms up briefly,
// then measures a window of seconds/16; every request in it is verified.
// Ranks are this binary re-executed: under aspen-run for the tcp/shm jobs,
// as a plain child process for the smp job. The parent sleeps in the kernel
// until each job exits or its hard timeout kills it, so all load comes from
// the job's own rank processes.
//
// Every end-to-end metric is printed by name and unit for each workload;
// --out writes the BENCH JSON (run values, per-launch values with median
// and quartiles, host facts, plus the --layers and --sweep sections). See
// README.md.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/telemetry.hpp"

namespace fs = std::filesystem;

namespace aspen_bench {

namespace {

using aspen::otrace::record_view;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------------------------
// The workloads
// ---------------------------------------------------------------------------

struct workload {
  const char* name;
  const char* why;
  job j;
  bool transport;  ///< has a wire or ring path (gets the traced rows)
  /// How the workload's times follow the host's speed: they scale as
  /// host_step_ns()^beta. Fitted (log-log least squares, r 0.94-0.98) over
  /// 40 runs of each workload spread over two hours on the 4-vCPU host of
  /// the baseline, while host_step_ns ranged over 1.37-1.90 ns.
  double beta;
};

const std::vector<workload>& workloads() {
  static const std::vector<workload> w = {
      {"rtt_tcp",
       "critical path of every blocking off-node op: wire codec, endpoint "
       "stage/deliver, io syscalls and deferred completion",
       {.k = kind::rtt, .conduit = "tcp", .nranks = 2},
       true, 1.9},
      {"rtt_shm",
       "the paper's claim across a process boundary: every op completes "
       "eagerly, so core and its instrumentation are the whole cost",
       {.k = kind::rtt, .conduit = "shm", .nranks = 2, .rpc = false},
       true, 2.0},
      {"gups_amo_tcp",
       "small-message throughput: send_am, the agg batcher, the decoder, the "
       "staging map and handler dispatch",
       {.k = kind::gups_amo, .conduit = "tcp", .nranks = 4,
        .env = {"ASPEN_AGG=1"}},
       true, 2.2},
      {"gups_rpc_shm",
       "AMs riding the SPSC rings and the shm batcher: shm as a message "
       "channel rather than direct loads and stores",
       {.k = kind::gups_rpc, .conduit = "shm", .nranks = 4,
        .env = {"ASPEN_AGG=1"}},
       true, 0.5},
      {"bulk_tcp",
       "64 KiB frames, writes beside reads: rendezvous RTS/CTS/DATA, partial "
       "writes and copies on the same net layer",
       {.k = kind::bulk, .conduit = "tcp", .nranks = 2, .bytes = 65536,
        .inflight = 4},
       true, 1.6},
      {"match_smp",
       "the paper's Fig. 8 time-to-solution on its own substrate, with no "
       "transport",
       {.k = kind::match, .conduit = "smp", .nranks = 4},
       false, 1.8},
  };
  return w;
}

struct options {
  std::vector<std::string> names;
  std::uint64_t seed = 1;
  double seconds = 13;
  int launches = 16;    ///< not options: --smoke makes one short launch
  double warmup = 0.2;  ///< per launch
  std::string out;
  bool layers = false;
  bool sweep = false;
  bool smoke = false;
  std::string sibling;  ///< ASPEN_TELEMETRY=OFF build of aspen-bench
  std::string work = ".";  ///< parent of this run's own directory
  std::string run_dir;     ///< created under `work`, the only thing removed
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "aspen-bench: %s\n"
               "usage: aspen-bench [--workload NAME[,NAME...]] [--seed N] "
               "[--seconds S] [--out FILE] [--layers] [--sweep] [--smoke] "
               "[--sibling PATH] [--work DIR]\n",
               msg);
  std::exit(2);
}

options parse_options(int argc, char** argv) {
  options o;
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage((std::string(argv[i]) + " needs a value").c_str());
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload") {
      std::stringstream ss(value(i));
      for (std::string n; std::getline(ss, n, ',');) o.names.push_back(n);
    } else if (a == "--seed") {
      o.seed = std::strtoull(value(i).c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(value(i).c_str(), nullptr);
    } else if (a == "--out") {
      o.out = value(i);
    } else if (a == "--sibling") {
      // Jobs run with the work directory as their working directory.
      o.sibling = fs::absolute(value(i)).string();
    } else if (a == "--work") {
      o.work = value(i);
    } else if (a == "--layers") {
      o.layers = true;
    } else if (a == "--sweep") {
      o.sweep = true;
    } else if (a == "--smoke") {
      o.smoke = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.smoke) {
    o.launches = 1;
    o.seconds = 0.2;
    o.warmup = 0.05;
  }
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  for (const auto& n : o.names) {
    const auto& w = workloads();
    if (std::none_of(w.begin(), w.end(),
                     [&](const workload& x) { return n == x.name; }))
      usage(("unknown workload " + n).c_str());
  }
  return o;
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

struct summary {
  double median = kNaN, q1 = kNaN, q3 = kNaN;
  std::vector<double> values;
};

/// Median and quartiles as Python's statistics.median / quantiles(n=4)
/// (the "exclusive" method), so compare.py and the printed table agree.
summary summarize(std::vector<double> v) {
  summary s;
  s.values = v;
  v.erase(std::remove_if(v.begin(), v.end(),
                         [](double x) { return std::isnan(x); }),
          v.end());
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  if (n == 1) {
    s.q1 = s.q3 = v[0];
    return s;
  }
  auto q = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
  };
  s.q1 = q(1);
  s.q3 = q(3);
  return s;
}

/// Nearest-rank percentile of a sorted sample set (ns).
double pct(const std::vector<std::uint32_t>& sorted, double p) {
  if (sorted.empty()) return kNaN;
  const auto k = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return static_cast<double>(
      sorted[std::clamp<std::size_t>(k, 1, sorted.size()) - 1]);
}

// ---------------------------------------------------------------------------
// One launch: fork the job, wait for it, parse every rank's result
// ---------------------------------------------------------------------------

struct tracing {
  int sample_n = 0;            ///< ASPEN_TRACE_SAMPLE for the job
  std::uint64_t ring_bytes = 0;  ///< ASPEN_TRACE_RING_BYTES (0: default)
  bool spans = false;          ///< bench-side inject/wait spans
  bool dump = false;           ///< collect the ranks' otrace records
};

/// The end-to-end metrics, of one launch or of a whole run.
struct e2e {
  double ops_per_s = kNaN, bytes_per_s = kNaN, lat_p50_us = kNaN,
         lat_p99_us = kNaN, setup_s = kNaN, peak_rss_mb = kNaN;
  std::uint64_t lat_samples = 0, lat_tail = 0;  ///< samples, beyond p99
};

/// p50/p99 of sorted latency samples (ns) into `v`.
void latency(const std::vector<std::uint32_t>& sorted, e2e& v) {
  v.lat_samples = sorted.size();
  const double p99_ns = pct(sorted, 0.99);
  v.lat_p50_us = pct(sorted, 0.50) / 1e3;
  v.lat_p99_us = p99_ns / 1e3;
  if (!sorted.empty())
    v.lat_tail = static_cast<std::uint64_t>(
        sorted.end() - std::upper_bound(sorted.begin(), sorted.end(),
                                        static_cast<std::uint32_t>(p99_ns)));
}

struct launch {
  bool ok = false;
  std::string error;
  e2e v;
  double window_s = kNaN;
  double host_step_ns = kNaN;  ///< host_step_ns() around the job
  std::uint64_t ops = 0, failed = 0, useful_bytes = 0;
  std::vector<std::uint32_t> lat;  ///< sorted request latencies (ns)
  std::string plane = "?";
  std::map<std::string, std::uint64_t> ctr;
  std::uint64_t sendq_hw = 0, shm_ring_hw = 0, cpu_user_ns = 0,
                cpu_sys_ns = 0, otrace_appended = 0;
  std::vector<std::uint32_t> inject, wait;
  std::vector<record_view> records;
  std::map<std::string, double> info;
};

/// How fast this host runs right now: ns per step of a dependent 64-bit
/// multiply-add chain, over ~20 ms. The compiler barrier keeps it one
/// multiply and one add per step under any optimization level.
double host_step_ns() {
  constexpr std::uint64_t kSteps = std::uint64_t{1} << 24;
  std::uint64_t x = 1;
  const std::uint64_t t = mono_ns();
  for (std::uint64_t i = 0; i < kSteps; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    asm volatile("" : "+r"(x));
  }
  return static_cast<double>(mono_ns() - t) / static_cast<double>(kSteps);
}

std::string self_exe() {
  std::error_code ec;
  const fs::path p = fs::read_symlink("/proc/self/exe", ec);
  return ec ? std::string() : p.string();
}

/// aspen-run of the build tree `exe` belongs to.
std::string runner_for(const std::string& exe) {
  return (fs::path(exe).parent_path() / "aspen" / "aspen-run").string();
}

/// Kill the job's process group and reap it, including ranks the
/// launcher orphaned (this process is their subreaper).
void kill_and_reap(pid_t pgid) {
  ::kill(-pgid, SIGKILL);
  while (::waitpid(-1, nullptr, 0) > 0 || errno == EINTR) {
  }
}

/// Wait for `pid` until `deadline`; false when the timeout killed it.
bool wait_job(pid_t pid, std::uint64_t deadline, int* status) {
  sigset_t chld;
  sigemptyset(&chld);
  sigaddset(&chld, SIGCHLD);
  for (;;) {
    const pid_t r = ::waitpid(pid, status, WNOHANG);
    if (r == pid) return true;
    const std::uint64_t now = mono_ns();
    if (now >= deadline) {
      ::kill(-pid, SIGKILL);
      ::waitpid(pid, status, 0);
      kill_and_reap(pid);
      return false;
    }
    const std::uint64_t left =
        std::min<std::uint64_t>(deadline - now, 200'000'000);
    timespec ts{static_cast<time_t>(left / 1'000'000'000),
                static_cast<long>(left % 1'000'000'000)};
    (void)sigtimedwait(&chld, nullptr, &ts);
  }
}

/// Fold one rank's result file into `l`; false if missing or truncated.
bool absorb_rank(const fs::path& path, launch& l,
                 std::vector<std::uint32_t>& lat, double& rate,
                 double& byte_rate, std::uint64_t& setup_ns, bool& check) {
  std::ifstream in(path);
  std::map<std::string, std::uint64_t> f;
  std::string key;
  bool complete = false;
  auto samples = [&](std::vector<std::uint32_t>& dst) {
    std::size_t n = 0;
    in >> n;
    for (std::size_t i = 0; i < n && in; ++i) {
      std::uint32_t v = 0;
      in >> v;
      dst.push_back(v);
    }
  };
  while (in >> key) {
    if (key == "end") {
      complete = true;
      break;
    }
    if (key == "plane") {
      in >> l.plane;
    } else if (key == "ctr") {
      std::string n;
      std::uint64_t v = 0;
      in >> n >> v;
      l.ctr[n] += v;
    } else if (key == "info") {
      std::string n;
      double v = 0;
      in >> n >> v;
      l.info[n] = v;
    } else if (key == "lat") {
      samples(lat);
    } else if (key == "inject") {
      samples(l.inject);
    } else if (key == "wait") {
      samples(l.wait);
    } else {
      in >> f[key];
    }
  }
  if (!complete || !in) return false;
  if (f["setup_ns"] != 0) setup_ns = f["setup_ns"];
  check = check && f["check"] == 1;
  l.ops += f["ops"];
  l.failed += f["failed"];
  l.useful_bytes += f["useful_bytes"];
  if (f["ops"] != 0 && f["window_ns"] != 0) {
    rate += static_cast<double>(f["ops"]) * 1e9 /
            static_cast<double>(f["window_ns"]);
    byte_rate += static_cast<double>(f["useful_bytes"]) * 1e9 /
                 static_cast<double>(f["window_ns"]);
    l.window_s = static_cast<double>(f["window_ns"]) / 1e9;
  }
  l.sendq_hw = std::max(l.sendq_hw, f["sendq_hw"]);
  l.shm_ring_hw = std::max(l.shm_ring_hw, f["shm_ring_hw"]);
  l.cpu_user_ns += f["cpu_user_ns"];
  l.cpu_sys_ns += f["cpu_sys_ns"];
  l.v.peak_rss_mb =
      std::max(l.v.peak_rss_mb, static_cast<double>(f["rss_kib"]) / 1024.0);
  l.otrace_appended += f["otrace_appended"];
  return true;
}

bool read_records(const fs::path& path, std::vector<record_view>& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  const auto bytes = static_cast<std::size_t>(fs::file_size(path));
  const std::size_t n = bytes / sizeof(record_view);
  const std::size_t old = out.size();
  out.resize(old + n);
  in.read(reinterpret_cast<char*>(out.data() + old),
          static_cast<std::streamsize>(n * sizeof(record_view)));
  return static_cast<bool>(in);
}

launch run_launch(const options& o, const job& j, const std::string& exe,
                  double window, const tracing& tr) {
  launch l;
  const fs::path dir = fs::path(o.run_dir) / "launch";
  fs::remove_all(dir);
  fs::create_directories(dir);

  child_args a;
  a.j = j;
  a.seed = o.seed;
  a.warmup_s = o.warmup;
  a.window_s = window;
  a.out_dir = dir.string();
  a.spans = tr.spans;
  a.otrace_dump = tr.dump;

  // The knobs the matrix varies are always set, so the caller's
  // environment cannot leak into a workload's definition.
  std::vector<std::string> env = {
      "ASPEN_AGG=0", "ASPEN_NET_URING=0",
      "ASPEN_TRACE_SAMPLE=" + std::to_string(tr.sample_n)};
  if (tr.ring_bytes != 0)
    env.push_back("ASPEN_TRACE_RING_BYTES=" + std::to_string(tr.ring_bytes));
  env.insert(env.end(), j.env.begin(), j.env.end());

  std::vector<std::string> args;
  if (j.conduit != "smp")
    args = {runner_for(exe), "-n", std::to_string(j.nranks)};
  args.push_back(exe);
  const double speed_before = host_step_ns();
  a.t0_ns = mono_ns();
  for (auto& s : encode_child_args(a)) args.push_back(std::move(s));
  std::vector<char*> argv;
  for (auto& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    l.error = std::string("fork: ") + std::strerror(errno);
    return l;
  }
  if (pid == 0) {
    ::setpgid(0, 0);
    sigset_t none;
    sigemptyset(&none);
    ::sigprocmask(SIG_SETMASK, &none, nullptr);
    if (::chdir(dir.c_str()) != 0) std::_Exit(126);
    for (auto& e : env) ::putenv(e.data());
    ::execv(argv[0], argv.data());
    std::_Exit(127);
  }
  ::setpgid(pid, pid);  // also from the parent: no race with the kill below
  const double budget =
      o.warmup + window + (j.k == kind::eager_ratio ? 150.0 : 40.0);
  int status = 0;
  if (!wait_job(pid, a.t0_ns + static_cast<std::uint64_t>(budget * 1e9),
                &status)) {
    l.error = "timed out after " + std::to_string(budget) + " s";
    return l;
  }
  l.host_step_ns = (speed_before + host_step_ns()) / 2;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    kill_and_reap(pid);
    l.error = WIFSIGNALED(status)
                  ? "killed by signal " + std::to_string(WTERMSIG(status))
                  : "exit code " + std::to_string(WEXITSTATUS(status));
    return l;
  }

  std::vector<std::uint32_t> lat;
  double rate = 0, byte_rate = 0;
  std::uint64_t setup_ns = 0;
  bool check = true;
  l.v.peak_rss_mb = 0;
  for (int r = 0; r < j.nranks; ++r) {
    const fs::path base = dir / ("rank" + std::to_string(r));
    if (!absorb_rank(base.string() + ".txt", l, lat, rate, byte_rate,
                     setup_ns, check) ||
        (tr.dump && !read_records(base.string() + ".otrace", l.records))) {
      l.error = "rank " + std::to_string(r) + " wrote no complete result";
      return l;
    }
  }
  fs::remove_all(dir);
  if (!check) {
    l.error = "launch-wide verification failed (checksum, quiescence or "
              "warm-up check)";
    return l;
  }
  std::sort(lat.begin(), lat.end());
  l.v.setup_s = static_cast<double>(setup_ns) / 1e9;
  l.v.ops_per_s = rate;
  l.v.bytes_per_s = byte_rate;
  latency(lat, l.v);
  l.lat = std::move(lat);
  l.ok = true;
  return l;
}

// ---------------------------------------------------------------------------
// Workload results and the per-layer table
// ---------------------------------------------------------------------------

struct metric_def {
  const char* name;
  const char* unit;
  double e2e::*field;
};

/// End-to-end metrics. bytes_per_s is reported for bulk only.
constexpr metric_def kMetrics[] = {
    {"ops_per_s", "op/s", &e2e::ops_per_s},
    {"lat_p50_us", "us", &e2e::lat_p50_us},
    {"lat_p99_us", "us", &e2e::lat_p99_us},
    {"setup_s", "s", &e2e::setup_s},
    {"peak_rss_mb", "MiB", &e2e::peak_rss_mb},
    {"bytes_per_s", "B/s", &e2e::bytes_per_s},
};

struct workload_result {
  const workload* w = nullptr;
  std::vector<launch> launches;
  e2e raw;  ///< the run's value of each metric as measured; see account()
  e2e run;  ///< the same at the nominal host speed: what a run reports
  double host_step_ns = kNaN;  ///< median host_step_ns over the launches
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t traced_failed = 0;  ///< --layers launches that failed
  std::map<std::string, std::uint64_t> ctr;  ///< summed over good launches
  std::uint64_t ops = 0, useful_bytes = 0, cpu_user_ns = 0, cpu_sys_ns = 0,
                sendq_hw = 0, shm_ring_hw = 0;
  std::string plane = "?";
  std::map<std::string, double> layers;  ///< --layers rows (NaN = n/a)
  std::map<std::string, double> layer_info;

  /// One metric over the launches (NaN for a failed launch).
  [[nodiscard]] summary metric(double e2e::*f) const {
    std::vector<double> v;
    for (const launch& l : launches) v.push_back(l.ok ? l.v.*f : kNaN);
    return summarize(v);
  }
  [[nodiscard]] double error_rate() const {
    return attempted == 0 ? 1.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// host_step_ns() of the nominal host (about the median on the baseline
/// host). Reported times are scaled to what they would read on a host
/// running the step this fast: by (kNominalStepNs / host_step_ns)^beta.
constexpr double kNominalStepNs = 1.6;

/// The run's values: ops and bytes over all the good launches' windows;
/// lat_p50_us as the mean of the launches' medians; lat_p99_us over all
/// their requests (so the p99 of a run has far more than 10 samples beyond
/// it); set-up time and peak RSS as the median over launches. The p50 is a
/// mean over launches because a launch's ranks land on fast or slow cores
/// of the shared host as a whole (rtt_shm: ~0.17 or ~0.25 us), and the
/// median of a pool of such launches jumps between the two modes with
/// their share. `run` scales the times of `raw` to the nominal host speed:
/// on a shared host the speed of every core drifts by 10-30% within
/// minutes, and every workload's times drift with it.
///
/// error_rate's base: ops attempted in every window, where a failed launch
/// counts its planned ops (the good launches' median) as attempted and
/// failed.
void account(workload_result& r) {
  std::vector<double> good, steps;
  std::vector<std::uint32_t> lat;
  double window = 0, p50_sum = 0;
  for (const launch& l : r.launches) {
    if (!l.ok) continue;
    good.push_back(static_cast<double>(l.ops));
    steps.push_back(l.host_step_ns);
    lat.insert(lat.end(), l.lat.begin(), l.lat.end());
    window += l.window_s;
    p50_sum += l.v.lat_p50_us;
  }
  std::sort(lat.begin(), lat.end());
  latency(lat, r.raw);
  r.raw.lat_p50_us =
      good.empty() ? kNaN : p50_sum / static_cast<double>(good.size());
  r.raw.setup_s = r.metric(&e2e::setup_s).median;
  r.raw.peak_rss_mb = r.metric(&e2e::peak_rss_mb).median;
  const double planned =
      good.empty() ? 1.0 : std::max(1.0, summarize(good).median);
  for (const launch& l : r.launches) {
    if (l.ok) {
      r.attempted += l.ops;
      r.failed += l.failed;
      r.ops += l.ops;
      r.useful_bytes += l.useful_bytes;
      r.cpu_user_ns += l.cpu_user_ns;
      r.cpu_sys_ns += l.cpu_sys_ns;
      r.sendq_hw = std::max(r.sendq_hw, l.sendq_hw);
      r.shm_ring_hw = std::max(r.shm_ring_hw, l.shm_ring_hw);
      r.plane = l.plane;
      for (const auto& [k, v] : l.ctr) r.ctr[k] += v;
    } else {
      r.attempted += static_cast<std::uint64_t>(planned);
      r.failed += static_cast<std::uint64_t>(planned);
    }
  }
  if (window > 0) {
    r.raw.ops_per_s = static_cast<double>(r.ops) / window;
    r.raw.bytes_per_s = static_cast<double>(r.useful_bytes) / window;
  }
  r.host_step_ns = summarize(steps).median;
  const double scale = std::pow(kNominalStepNs / r.host_step_ns, r.w->beta);
  r.run = r.raw;
  r.run.ops_per_s /= scale;
  r.run.bytes_per_s /= scale;
  r.run.lat_p50_us *= scale;
  r.run.lat_p99_us *= scale;
  r.run.setup_s *= scale;
}

/// Counter-derived layer rows (NaN when telemetry is compiled out).
void counter_layers(workload_result& r) {
  auto c = [&](const char* n) {
    const auto it = r.ctr.find(n);
    return it == r.ctr.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto ratio = [&](double num, double den) {
    return aspen::telemetry::compiled_in() && den > 0 ? num / den : kNaN;
  };
  const double ops = static_cast<double>(r.ops);
  auto& L = r.layers;
  L["core.eager_frac"] =
      ratio(c("cx_eager_taken"),
            c("cx_eager_taken") + c("cx_deferred_queued") +
                c("cx_remote_async"));
  L["core.cell_allocs_per_op"] =
      ratio(c("cellpool_fresh") + c("cellpool_recycled"), ops);
  L["core.progress_calls_per_op"] = ratio(c("progress_calls"), ops);
  L["gex.am_sent_per_op"] = ratio(c("am_sent"), ops);
  // Frames on the wire: one per eager AM, RTS + CTS + DATA per rendezvous.
  L["net.frames_per_op"] =
      ratio(c("net_eager_sent") + 3 * c("net_rdzv_sent"), ops);
  L["net.wire_bytes_per_op"] = ratio(c("net_bytes_sent"), ops);
  // Only tcp jobs carry their payload over the socket; elsewhere the few
  // socket bytes are collectives and the ratio means nothing.
  L["net.payload_frac"] =
      r.w->j.conduit == "tcp"
          ? ratio(static_cast<double>(r.useful_bytes), c("net_bytes_sent"))
          : kNaN;
  L["net.rdzv_frac"] = ratio(c("net_rdzv_sent"), c("net_msgs_sent"));
  L["net.partial_writes_per_op"] = ratio(c("net_partial_writes"), ops);
  L["net.sendq_hw_bytes"] = static_cast<double>(r.sendq_hw);
  const double cpu = static_cast<double>(r.cpu_user_ns + r.cpu_sys_ns);
  L["net.io.sys_cpu_frac"] =
      cpu > 0 ? static_cast<double>(r.cpu_sys_ns) / cpu : kNaN;
  L["net.io.cpu_us_per_op"] = ops > 0 ? cpu / 1e3 / ops : kNaN;
  const double flushes = c("agg_flush_bytes") + c("agg_flush_frames") +
                         c("agg_flush_age") + c("agg_flush_forced");
  L["agg.frames_per_flush"] =
      ratio(c("net_eager_sent") + c("shm_msgs_sent"), flushes);
  L["agg.flush_share.bytes"] = ratio(c("agg_flush_bytes"), flushes);
  L["agg.flush_share.frames"] = ratio(c("agg_flush_frames"), flushes);
  L["agg.flush_share.age"] = ratio(c("agg_flush_age"), flushes);
  L["agg.flush_share.forced"] = ratio(c("agg_flush_forced"), flushes);
  L["shm.msgs_per_op"] = ratio(c("shm_msgs_sent"), ops);
  L["shm.ring_full_frac"] = ratio(c("shm_ring_full"), c("shm_msgs_sent"));
  L["shm.ring_hw_bytes"] = static_cast<double>(r.shm_ring_hw);
}

double sample_pct(std::vector<std::uint32_t> v, double p) {
  std::sort(v.begin(), v.end());
  return pct(v, p);
}

/// Flight-recorder budget for the fully-sampled launch.
constexpr std::uint64_t kRingBytesMax = std::uint64_t{32} << 20;
constexpr double kRecordsPerOp = 12;  ///< generous upper bound across paths
constexpr std::size_t kRecordBytes = 40;  ///< one otrace ring slot

/// The --layers launches of one workload: 1-in-64 and 1-in-1 sampled runs,
/// plus the telemetry-off sibling where one was given.
void traced_layers(const options& o, const std::string& exe,
                   workload_result& r, double window) {
  auto& L = r.layers;
  L["net.codec_ns_per_frame"] = codec_ns_per_frame();
  L["shm.ring_ns_per_record"] = ring_ns_per_record();
  const double base = r.raw.lat_p50_us;
  const workload& w = *r.w;
  if (!w.transport || !aspen::telemetry::compiled_in()) return;

  // A traced launch that fails leaves its rows n/a and fails the run.
  auto failed = [&](const launch& l, const char* what) {
    if (l.ok) return false;
    ++r.traced_failed;
    std::fprintf(stderr, "aspen-bench: %s %s launch failed: %s\n", w.name,
                 what, l.error.c_str());
    return true;
  };
  const launch s64 = run_launch(o, w.j, exe, window, {.sample_n = 64});
  if (!failed(s64, "1-in-64 traced"))
    L["otrace.cost.1in64"] = s64.v.lat_p50_us / base;

  // Size the ring to hold the window; where the cap binds, shorten the
  // window instead so no record is lost.
  const double per_proc_rate =
      std::max(1.0, r.raw.ops_per_s * kRecordsPerOp);
  const double want = per_proc_rate * window * kRecordBytes;
  const auto ring = static_cast<std::uint64_t>(
      std::min<double>(static_cast<double>(kRingBytesMax),
                       want * 1.25 + 65536));
  const double win1 = std::min(
      window, 0.8 * static_cast<double>(ring) / kRecordBytes / per_proc_rate);
  launch s1 = run_launch(
      o, w.j, exe, std::max(win1, 0.02),
      {.sample_n = 1, .ring_bytes = ring, .spans = true, .dump = true});
  r.layer_info["trace_window_s"] = std::max(win1, 0.02);
  r.layer_info["trace_ring_bytes"] = static_cast<double>(ring);
  if (!failed(s1, "1-in-1 traced")) {
    L["otrace.cost.1in1"] = s1.v.lat_p50_us / base;
    L["otrace.dropped"] = static_cast<double>(
        s1.otrace_appended > s1.records.size()
            ? s1.otrace_appended - s1.records.size()
            : 0);
    L["core.inject_ns.p50"] = sample_pct(s1.inject, 0.50);
    L["core.inject_ns.p99"] = sample_pct(s1.inject, 0.99);
    L["core.wait_ns.p50"] = sample_pct(s1.wait, 0.50);
    L["core.wait_ns.p99"] = sample_pct(s1.wait, 0.99);
    std::size_t traces = 0;
    for (const edge_stats& e : fold_edges(std::move(s1.records), &traces)) {
      L["edge." + e.name + ".p50_ns"] = e.p50_ns;
      L["edge." + e.name + ".p99_ns"] = e.p99_ns;
    }
    L["otrace.traces"] = static_cast<double>(traces);
    // Every op of a transport workload is traced and spanned; a launch
    // that yields none measured nothing, so it fails rather than report
    // its rows as absent.
    if (traces == 0 || s1.inject.empty()) {
      ++r.traced_failed;
      std::fprintf(stderr, "aspen-bench: %s 1-in-1 traced launch recorded "
                   "no traces or spans\n", w.name);
    }
  }

  const std::string wn = w.name;
  if (!o.sibling.empty() && (wn == "rtt_shm" || wn == "gups_amo_tcp")) {
    const launch off = run_launch(o, w.j, o.sibling, window, {});
    if (!failed(off, "telemetry-off"))
      L["telemetry.cost"] = base / off.v.lat_p50_us;
  }
}

workload_result run_workload(const options& o, const std::string& exe,
                             const workload& w) {
  workload_result r;
  r.w = &w;
  const double window = o.seconds / o.launches;
  for (int i = 0; i < o.launches; ++i) {
    launch l = run_launch(o, w.j, exe, window, {});
    if (!l.ok)
      std::fprintf(stderr, "aspen-bench: %s launch %d failed: %s\n", w.name,
                   i, l.error.c_str());
    r.launches.push_back(std::move(l));
  }
  account(r);
  if (o.layers) {
    counter_layers(r);
    traced_layers(o, exe, r, window);
  }
  return r;
}

// ---------------------------------------------------------------------------
// --sweep: the ungated info section
// ---------------------------------------------------------------------------

struct sweep_row {
  std::string name;
  job j;
  launch l;
};

std::vector<sweep_row> run_sweep(const options& o, const std::string& exe,
                                 std::map<std::string, double>* ratios) {
  std::vector<sweep_row> rows;
  auto add = [&](std::string name, job j) {
    rows.push_back({std::move(name), std::move(j), {}});
  };
  for (const char* plane : {"poll", "uring"})
    for (int agg : {0, 1})
      for (int n : {2, 4}) {
        const std::string tag = std::string(plane) + ".agg" +
                                std::to_string(agg) + ".n" + std::to_string(n);
        std::vector<std::string> env = {
            "ASPEN_AGG=" + std::to_string(agg),
            std::string("ASPEN_NET_URING=") + (plane[0] == 'u' ? "1" : "0")};
        add("rtt_tcp." + tag,
            {.k = kind::rtt, .conduit = "tcp", .nranks = n, .env = env});
        add("gups_amo_tcp." + tag,
            {.k = kind::gups_amo, .conduit = "tcp", .nranks = n, .env = env});
      }
  for (int n : {2, 4})
    add("rtt_shm.n" + std::to_string(n),
        {.k = kind::rtt, .conduit = "shm", .nranks = n, .rpc = false});
  add("gups_amo_shm.agg1.n4", {.k = kind::gups_amo, .conduit = "shm",
                               .nranks = 4, .env = {"ASPEN_AGG=1"}});
  // Sizes across the ASPEN_NET_EAGER_MAX (8 KiB) eager/rendezvous crossover.
  for (std::size_t b : {8, 64, 512, 4096, 16384, 65536, 262144, 1048576})
    add("size_tcp." + std::to_string(b),
        {.k = kind::bulk, .conduit = "tcp", .nranks = 2, .bytes = b});

  for (sweep_row& row : rows) {
    row.l = run_launch(o, row.j, exe, 1.0, {});
    std::printf("  sweep %-28s %s\n", row.name.c_str(),
                row.l.ok ? "ok" : row.l.error.c_str());
  }
  const launch ratio = run_launch(
      o, {.k = kind::eager_ratio, .conduit = "smp", .nranks = 4}, exe, 0, {});
  if (ratio.ok) *ratios = ratio.info;
  return rows;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

/// Minimal streaming JSON writer (objects, arrays, numbers, strings).
class json_out {
 public:
  explicit json_out(std::ostream& os) : os_(os) {}
  json_out& open(char c) {
    sep();
    os_ << c;
    first_.push_back(true);
    return *this;
  }
  json_out& close(char c) {
    first_.pop_back();
    os_ << c;
    return *this;
  }
  json_out& key(const std::string& k) {
    sep();
    str(k);
    os_ << ':';
    pending_key_ = true;
    return *this;
  }
  json_out& num(double v) {
    sep();
    if (std::isfinite(v)) {
      char b[40];
      std::snprintf(b, sizeof b, "%.10g", v);
      os_ << b;
    } else {
      os_ << "null";
    }
    return *this;
  }
  json_out& num(std::uint64_t v) {
    sep();
    os_ << v;
    return *this;
  }
  json_out& boolean(bool v) {
    sep();
    os_ << (v ? "true" : "false");
    return *this;
  }
  json_out& text(const std::string& s) {
    sep();
    str(s);
    return *this;
  }

 private:
  void sep() {
    if (pending_key_) {
      pending_key_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) os_ << ',';
      first_.back() = false;
    }
  }
  void str(const std::string& s) {
    os_ << '"';
    for (char c : s) {
      if (c == '"' || c == '\\') os_ << '\\';
      if (static_cast<unsigned char>(c) < 0x20) {
        char b[8];
        std::snprintf(b, sizeof b, "\\u%04x", c);
        os_ << b;
      } else {
        os_ << c;
      }
    }
    os_ << '"';
  }

  std::ostream& os_;
  std::vector<bool> first_;
  bool pending_key_ = false;
};

std::string read_first_line(const char* path) {
  std::ifstream in(path);
  std::string s;
  std::getline(in, s);
  return s;
}

void write_summary(json_out& j, const summary& s) {
  j.open('{').key("median").num(s.median).key("q1").num(s.q1);
  j.key("q3").num(s.q3).key("values").open('[');
  for (double v : s.values) j.num(v);
  j.close(']').close('}');
}

bool is_bulk(const workload_result& r) { return r.w->j.k == kind::bulk; }

void print_workload(const workload_result& r, const options& o) {
  std::printf("\n== %s  (%d %s, %s; plane %s)  %d launch%s x %.3g s\n",
              r.w->name, r.w->j.nranks,
              r.w->j.conduit == "smp" ? "rank threads" : "procs",
              r.w->j.conduit.c_str(), r.plane.c_str(), o.launches,
              o.launches == 1 ? "" : "es", o.seconds / o.launches);
  std::printf("   %-16s %-8s %12s %12s   %12s %12s %12s\n", "metric", "unit",
              "run", "raw", "launch med", "q1", "q3");
  for (const metric_def& m : kMetrics) {
    if (std::strcmp(m.name, "bytes_per_s") == 0 && !is_bulk(r)) continue;
    const summary s = r.metric(m.field);
    std::printf("   %-16s %-8s %12.6g %12.6g   %12.6g %12.6g %12.6g\n",
                m.name, m.unit, r.run.*m.field, r.raw.*m.field, s.median,
                s.q1, s.q3);
  }
  std::printf("   %-16s %-8s %14.6g   (%llu failed / %llu attempted)\n",
              "error_rate", "fraction", r.error_rate(),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  std::printf("   latency samples  %llu, %llu beyond lat_p99_us; host step "
              "%.4g ns (run = raw x (%.4g / step)^%.2g)\n",
              static_cast<unsigned long long>(r.raw.lat_samples),
              static_cast<unsigned long long>(r.raw.lat_tail), r.host_step_ns,
              kNominalStepNs, r.w->beta);
  if (r.raw.lat_tail < 10 && !o.smoke)
    std::printf("   warning: fewer than 10 samples beyond lat_p99_us\n");
  if (!r.layers.empty()) {
    std::printf("   -- layers --\n");
    for (const auto& [k, v] : r.layers) {
      if (std::isnan(v))
        std::printf("   %-40s %14s\n", k.c_str(), "n/a");
      else
        std::printf("   %-40s %14.6g\n", k.c_str(), v);
    }
  }
}

void write_bench(const options& o, const std::vector<workload_result>& results,
                 const std::vector<sweep_row>& sweep,
                 const std::map<std::string, double>& ratios,
                 const std::string& load0) {
  std::ofstream f(o.out);
  json_out j(f);
  utsname u{};
  uname(&u);
  j.open('{').key("schema").text("aspen-bench/1");
  j.key("host").open('{');
  j.key("nproc").num(static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  j.key("kernel").text(u.release);
  j.key("compiler").text(ASPEN_BENCH_COMPILER);
  j.key("build_type").text(ASPEN_BENCH_BUILD_TYPE);
  j.key("telemetry").boolean(aspen::telemetry::compiled_in());
  j.key("loadavg_start").text(load0);
  j.key("loadavg_end").text(read_first_line("/proc/loadavg"));
  j.key("io_plane").open('{');
  for (const auto& r : results) j.key(r.w->name).text(r.plane);
  j.close('}').close('}');
  j.key("config").open('{');
  j.key("seed").num(o.seed);
  j.key("launches").num(static_cast<std::uint64_t>(o.launches));
  j.key("warmup_s").num(o.warmup).key("window_s").num(o.seconds / o.launches);
  j.key("nominal_step_ns").num(kNominalStepNs).close('}');

  j.key("workloads").open('{');
  for (const auto& r : results) {
    j.key(r.w->name).open('{');
    j.key("why").text(r.w->why);
    j.key("conduit").text(r.w->j.conduit);
    j.key("nranks").num(static_cast<std::uint64_t>(r.w->j.nranks));
    j.key("plane").text(r.plane);
    j.key("attempted").num(r.attempted).key("failed").num(r.failed);
    j.key("error_rate").num(r.error_rate());
    if (o.layers) j.key("traced_failed").num(r.traced_failed);
    j.key("metrics").open('{');
    for (const metric_def& m : kMetrics) {
      if (std::strcmp(m.name, "bytes_per_s") == 0 && !is_bulk(r)) continue;
      j.key(m.name).open('{').key("unit").text(m.unit);
      j.key("value").num(r.run.*m.field).key("raw").num(r.raw.*m.field);
      j.key("summary");
      write_summary(j, r.metric(m.field));
      j.close('}');
    }
    j.close('}');
    j.key("lat_samples").num(r.raw.lat_samples);
    j.key("lat_tail").num(r.raw.lat_tail);
    j.key("host_step_ns").num(r.host_step_ns).key("beta").num(r.w->beta);
    j.key("launches").open('[');
    for (const launch& l : r.launches) {
      j.open('{').key("ok").boolean(l.ok);
      if (!l.ok) j.key("error").text(l.error);
      j.key("ops").num(l.ops).key("failed").num(l.failed);
      j.key("window_s").num(l.window_s);
      j.key("host_step_ns").num(l.host_step_ns);
      for (const metric_def& m : kMetrics) j.key(m.name).num(l.v.*m.field);
      j.key("lat_samples").num(l.v.lat_samples);
      j.key("lat_tail").num(l.v.lat_tail);
      j.close('}');
    }
    j.close(']');
    j.key("counters").open('{');
    for (const auto& [k, v] : r.ctr) j.key(k).num(v);
    j.close('}').close('}');
  }
  j.close('}');

  if (o.layers) {
    j.key("layers").open('{');
    for (const auto& r : results) {
      j.key(r.w->name).open('{');
      for (const auto& [k, v] : r.layers) j.key(k).num(v);
      for (const auto& [k, v] : r.layer_info) j.key("info." + k).num(v);
      j.close('}');
    }
    j.close('}');
  }
  if (o.sweep) {
    j.key("info").open('{').key("matrix").open('[');
    for (const sweep_row& s : sweep) {
      j.open('{').key("job").text(s.name).key("ok").boolean(s.l.ok);
      j.key("plane").text(s.l.plane);
      j.key("ops_per_s").num(s.l.v.ops_per_s);
      j.key("bytes_per_s").num(s.l.v.bytes_per_s);
      j.key("lat_p50_us").num(s.l.v.lat_p50_us);
      j.key("lat_p99_us").num(s.l.v.lat_p99_us);
      j.key("failed").num(s.l.failed).close('}');
    }
    j.close(']').key("eager_over_defer").open('{');
    for (const auto& [k, v] : ratios) j.key(k).num(v);
    j.close('}').close('}');
  }
  j.close('}');
  f << '\n';
}

}  // namespace

}  // namespace aspen_bench

int main(int argc, char** argv) {
  using namespace aspen_bench;
  if (child_args a; decode_child_args(argc, argv, &a)) return run_child(a);

  options o = parse_options(argc, argv);
  const std::string exe = self_exe();
  if (exe.empty() || !fs::exists(runner_for(exe))) {
    std::fprintf(stderr, "aspen-bench: launcher not found at %s\n",
                 runner_for(exe).c_str());
    return 2;
  }
  // Launches run in a fresh directory of this run's own, so removing it
  // at exit can never take anything the caller put under --work.
  std::error_code ec;
  fs::create_directories(o.work, ec);
  std::string tmpl =
      (fs::absolute(o.work) / "aspen-bench.work.XXXXXX").string();
  if (::mkdtemp(tmpl.data()) == nullptr) {
    std::fprintf(stderr, "aspen-bench: cannot create a directory in %s: %s\n",
                 o.work.c_str(), std::strerror(errno));
    return 2;
  }
  o.run_dir = tmpl;
  // Jobs are reaped here even when their launcher dies first, and SIGCHLD
  // stays blocked so the waits can sleep in sigtimedwait.
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);
  sigset_t chld;
  sigemptyset(&chld);
  sigaddset(&chld, SIGCHLD);
  ::sigprocmask(SIG_BLOCK, &chld, nullptr);

  const std::string load0 = read_first_line("/proc/loadavg");
  std::vector<workload_result> results;
  for (const workload& w : workloads()) {
    if (!o.names.empty() &&
        std::find(o.names.begin(), o.names.end(), w.name) == o.names.end())
      continue;
    results.push_back(run_workload(o, exe, w));
    print_workload(results.back(), o);
  }
  std::vector<sweep_row> sweep;
  std::map<std::string, double> ratios;
  if (o.sweep) {
    std::printf("\n== sweep (ungated info)\n");
    sweep = run_sweep(o, exe, &ratios);
    for (const auto& [k, v] : ratios)
      std::printf("   eager/defer %-24s %8.3f\n", k.c_str(), v);
  }
  fs::remove_all(o.run_dir, ec);
  if (!o.out.empty()) write_bench(o, results, sweep, ratios, load0);

  bool clean = true;
  for (const auto& r : results)
    clean = clean && r.failed == 0 && r.traced_failed == 0;
  return clean ? 0 : 1;
}
