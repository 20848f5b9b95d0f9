#include "core/telemetry_lat.hpp"

#include <cinttypes>

#include "core/log.hpp"
#include "core/otrace.hpp"
#include "core/telemetry.hpp"

#if ASPEN_TELEMETRY_ENABLED
#include <signal.h>  // sigaction (POSIX; <csignal> need not declare it)

#include <cstdlib>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#endif

namespace aspen::telemetry {

namespace {

constexpr const char* kLatStreamNames[] = {
    "rma_put_eager",
    "rma_put_deferred",
    "rma_get_eager",
    "rma_get_deferred",
    "rpc_eager",
    "rpc_deferred",
    "amo_eager",
    "amo_deferred",
    "whenall_eager",
    "whenall_deferred",
    "wire_delivery",
    "progress_gap",
    "sendq_residency",
    "shm_delivery",
    "agg_batch_fill",
};
static_assert(std::size(kLatStreamNames) == kLatStreamCount,
              "latency stream name table out of sync with the enum");

constexpr const char* kOpClassNames[] = {
    "rma_put", "rma_get", "rpc", "amo", "when_all",
};
static_assert(std::size(kOpClassNames) == kOpClassCount,
              "op_class name table out of sync with the enum");

// Same serialization-key discipline as the counter names: the JSON
// reports key streams by name, so a duplicate or malformed entry would
// silently alias two histograms.
constexpr bool lat_names_well_formed() {
  for (std::size_t i = 0; i < kLatStreamCount; ++i) {
    const char* a = kLatStreamNames[i];
    if (a == nullptr || a[0] == '\0') return false;
    for (const char* p = a; *p != '\0'; ++p)
      if (!((*p >= 'a' && *p <= 'z') || (*p >= '0' && *p <= '9') ||
            *p == '_'))
        return false;
    for (std::size_t j = i + 1; j < kLatStreamCount; ++j) {
      const char* b = kLatStreamNames[j];
      std::size_t k = 0;
      while (a[k] != '\0' && a[k] == b[k]) ++k;
      if (a[k] == b[k]) return false;  // both '\0': identical strings
    }
  }
  return true;
}
static_assert(lat_names_well_formed(),
              "latency stream names must be unique, non-empty snake_case");

// The op-class x disposition grid must line up with the enum prefix:
// stream_of() is pure index arithmetic.
static_assert(stream_of(op_class::rma_put, disposition::eager) ==
              lat_stream::rma_put_eager);
static_assert(stream_of(op_class::when_all, disposition::deferred) ==
              lat_stream::whenall_deferred);
static_assert(2 * kOpClassCount ==
              static_cast<std::size_t>(lat_stream::wire_delivery));

}  // namespace

const char* to_string(lat_stream s) noexcept {
  return kLatStreamNames[static_cast<std::size_t>(s)];
}

const char* to_string(op_class c) noexcept {
  return kOpClassNames[static_cast<std::size_t>(c)];
}

namespace watchdog {

#if ASPEN_TELEMETRY_ENABLED

namespace {

struct pending_op {
  op_class cls;
  int rank;               ///< initiating rank (TLS rank at track time)
  std::uint64_t start_ns; ///< detail::trace_now_ns() at track time
};

struct wd_state {
  std::mutex mu;
  // Configuration (guarded by mu; read through detail::g_wd_mode on the
  // hot path).
  bool configured = false;
  std::uint64_t threshold_ns = 0;
  // Pending-op registry (guarded by mu). Ordered map: ids are issued
  // monotonically, so begin() per rank scan finds the oldest fast enough
  // for a throttled check.
  std::uint64_t next_id = 1;
  std::map<std::uint64_t, pending_op> pending;
  transport_probe probe;  ///< guarded by mu
  std::atomic<int> reports{0};
  std::atomic<bool> signal_installed{false};
  /// 0 healthy, 1 stall episode active, 2 recovered (health_state()).
  std::atomic<int> health{0};
};

/// Leaked like every telemetry registry: checks can run during static
/// destruction (a final progress drain in an atexit path).
wd_state& st() noexcept {
  static wd_state* s = new wd_state;
  return *s;
}

/// SIGUSR1 -> dump at the next check. sig_atomic_t, written only from the
/// handler and consumed with a plain read+clear in maybe_check.
volatile sig_atomic_t g_report_requested = 0;

struct wd_tls {
  int rank = 0;
  std::uint64_t last_progress_ns = 0;
  std::uint64_t next_check_ns = 0;
  bool in_stall = false;  ///< one report per stall episode
};

wd_tls& tls() noexcept {
  static thread_local wd_tls t;
  return t;
}

/// Mirror the configuration into detail::g_wd_mode (under mu).
void publish_mode_locked(const wd_state& s) {
  detail::g_wd_mode.store(
      s.threshold_ns != 0 ? detail::wd_mode::armed : detail::wd_mode::off,
      std::memory_order_release);
}

void ensure_configured_locked(wd_state& s) {
  if (s.configured) return;
  s.configured = true;
  const char* v = std::getenv("ASPEN_WATCHDOG_MS");
  if (v != nullptr && *v != '\0') {
    char* end = nullptr;
    const unsigned long long ms = std::strtoull(v, &end, 10);
    if (end != v && *end == '\0') {
      s.threshold_ns = static_cast<std::uint64_t>(ms) * 1'000'000u;
    } else {
      aspen::log(log_level::warn,
                 "watchdog: ignoring unparsable ASPEN_WATCHDOG_MS=\"%s\"", v);
    }
  }
  publish_mode_locked(s);
}

std::uint64_t threshold_ns_locked(wd_state& s) {
  ensure_configured_locked(s);
  return s.threshold_ns;
}

extern "C" void wd_sigusr1_handler(int) { g_report_requested = 1; }

/// Append `"key":value` (comma-led unless first in its object).
void json_u64(std::string& out, const char* key, std::uint64_t v) {
  if (out.back() != '{') out += ',';
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(v);
}

/// Write `rank`'s flight-recorder dump with its health object. Called with
/// `mu` NOT held (the transport probe takes the endpoint's peer locks).
void write_report(int rank, const char* reason, std::uint64_t now_ns,
                  std::uint64_t threshold_ns, std::size_t pending_count,
                  std::uint64_t oldest_age_ns, const char* oldest_cls,
                  std::uint64_t gap_ns,
                  const std::optional<transport_status>& ts) {
  std::string h = "{\"reason\":\"";
  h += reason;
  h += '"';
  json_u64(h, "threshold_ms", threshold_ns / 1'000'000u);
  json_u64(h, "detected_at_ns", now_ns);
  json_u64(h, "pending_ops", pending_count);
  json_u64(h, "oldest_op_age_ms", oldest_age_ns / 1'000'000u);
  h += ",\"oldest_op_class\":\"";
  h += oldest_cls == nullptr ? "none" : oldest_cls;
  h += '"';
  json_u64(h, "progress_gap_ms", gap_ns / 1'000'000u);
  if (ts) {
    h += ",\"transport\":{";
    json_u64(h, "sendq_bytes", ts->live.sendq_bytes);
    json_u64(h, "sendq_high_water", ts->live.sendq_high_water);
    json_u64(h, "staged_msgs", ts->live.staged_msgs);
    json_u64(h, "lpc_mailbox_depth", ts->live.lpc_mailbox_depth);
    json_u64(h, "wd_state", ts->live.wd_state);
    json_u64(h, "oldest_sendq_age_ms", ts->oldest_sendq_age_ns / 1'000'000u);
    json_u64(h, "shm_ring_depth_bytes", ts->shm_ring_depth_bytes);
    json_u64(h, "shm_ring_high_water", ts->shm_ring_high_water);
    json_u64(h, "frames_sent", ts->frames_sent);
    json_u64(h, "frames_delivered", ts->frames_delivered);
    h += '}';
  }
  h += '}';
  const std::string path = otrace::dump_now(rank, h);
  if (path.empty()) return;
  st().reports.fetch_add(1, std::memory_order_relaxed);
  aspen::log(log_level::error,
             "watchdog: rank %d %s (oldest op %" PRIu64 " ms, gap %" PRIu64
             " ms, %zu pending) -> %s",
             rank, reason, oldest_age_ns / 1'000'000u, gap_ns / 1'000'000u,
             pending_count, path.c_str());
}

void maybe_check(std::uint64_t now_ns, std::uint64_t prev_progress_ns) {
  wd_state& s = st();
  wd_tls& t = tls();
  // Time-throttle: at most one full scan per threshold/4 (>= 1ms).
  if (now_ns < t.next_check_ns && g_report_requested == 0) return;

  std::uint64_t threshold = 0;
  std::size_t pending_count = 0;
  std::uint64_t oldest_age = 0;
  const char* oldest_cls = nullptr;
  transport_probe probe;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    threshold = threshold_ns_locked(s);
    if (threshold == 0) return;
    for (const auto& [id, op] : s.pending) {
      if (op.rank != t.rank) continue;
      ++pending_count;
      const std::uint64_t age =
          now_ns > op.start_ns ? now_ns - op.start_ns : 0;
      if (age > oldest_age) {
        oldest_age = age;
        oldest_cls = to_string(op.cls);
      }
    }
    probe = s.probe;
  }
  std::uint64_t step = threshold / 4;
  if (step < 1'000'000u) step = 1'000'000u;
  t.next_check_ns = now_ns + step;

  install_signal_handler();

  const std::uint64_t gap =
      prev_progress_ns != 0 && now_ns > prev_progress_ns
          ? now_ns - prev_progress_ns
          : 0;
  const bool forced = g_report_requested != 0;
  if (forced) g_report_requested = 0;

  std::optional<transport_status> ts;
  // A progress gap is no stall reason of its own: an op pending through a
  // gap longer than the threshold is itself older than the threshold.
  const char* reason = oldest_age > threshold ? "oldest_op" : nullptr;
  if (probe) {
    ts = probe();
    if (reason == nullptr && ts->oldest_sendq_age_ns > threshold)
      reason = "sendq_stall";
  }

  if (reason == nullptr && !forced) {
    if (t.in_stall) s.health.store(2, std::memory_order_relaxed);
    t.in_stall = false;  // healthy: arm the next episode
    return;
  }
  if (forced) {
    write_report(t.rank, "sigusr1", now_ns, threshold, pending_count,
                 oldest_age, oldest_cls, gap, ts);
    return;
  }
  if (t.in_stall) return;  // already reported this episode
  t.in_stall = true;
  s.health.store(1, std::memory_order_relaxed);
  write_report(t.rank, reason, now_ns, threshold, pending_count, oldest_age,
               oldest_cls, gap, ts);
}

}  // namespace

void configure(std::uint64_t threshold_ms) noexcept {
  wd_state& s = st();
  std::lock_guard<std::mutex> lk(s.mu);
  s.configured = true;
  s.threshold_ns = threshold_ms * 1'000'000u;
  publish_mode_locked(s);
}

bool enabled() noexcept {
  const detail::wd_mode m = detail::g_wd_mode.load(std::memory_order_relaxed);
  if (m != detail::wd_mode::unconfigured) return m == detail::wd_mode::armed;
  // Parse the environment exactly once; every later call, armed or off,
  // is the one relaxed load above.
  wd_state& s = st();
  std::lock_guard<std::mutex> lk(s.mu);
  ensure_configured_locked(s);
  return detail::g_wd_mode.load(std::memory_order_relaxed) ==
         detail::wd_mode::armed;
}

std::uint64_t threshold_ms() noexcept {
  wd_state& s = st();
  std::lock_guard<std::mutex> lk(s.mu);
  return threshold_ns_locked(s) / 1'000'000u;
}

void set_thread_rank(int rank) noexcept {
  tls().rank = rank < 0 ? 0 : rank;
}

std::uint64_t track_op(op_class cls) noexcept {
  if (!enabled()) return 0;
  wd_state& s = st();
  const std::uint64_t now = detail::trace_now_ns();
  std::lock_guard<std::mutex> lk(s.mu);
  const std::uint64_t id = s.next_id++;
  s.pending.emplace(id, pending_op{cls, tls().rank, now});
  return id;
}

void complete_op(std::uint64_t id) noexcept {
  if (id == 0) return;
  wd_state& s = st();
  std::lock_guard<std::mutex> lk(s.mu);
  s.pending.erase(id);
}

void note_progress(std::uint64_t now_ns) noexcept {
  wd_tls& t = tls();
  const std::uint64_t prev = t.last_progress_ns;
  t.last_progress_ns = now_ns;
  if (!enabled()) return;
  maybe_check(now_ns, prev);
}

void poll_check() noexcept {
  if (detail::g_wd_mode.load(std::memory_order_relaxed) !=
      detail::wd_mode::armed)
    return;
  const std::uint64_t now = detail::trace_now_ns();
  maybe_check(now, tls().last_progress_ns);
}

void request_report() noexcept { g_report_requested = 1; }

void install_signal_handler() noexcept {
  wd_state& s = st();
  bool expected = false;
  if (!s.signal_installed.compare_exchange_strong(
          expected, true, std::memory_order_relaxed))
    return;
  struct sigaction sa{};
  sa.sa_handler = &wd_sigusr1_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  sigaction(SIGUSR1, &sa, nullptr);
}

void set_transport_probe(transport_probe probe) {
  wd_state& s = st();
  std::lock_guard<std::mutex> lk(s.mu);
  s.probe = std::move(probe);
}

int reports_written() noexcept {
  return st().reports.load(std::memory_order_relaxed);
}

int health_state() noexcept {
  return st().health.load(std::memory_order_relaxed);
}

#endif  // ASPEN_TELEMETRY_ENABLED

}  // namespace watchdog

}  // namespace aspen::telemetry
