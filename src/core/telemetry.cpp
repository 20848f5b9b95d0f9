#include "core/telemetry.hpp"

#include <cstdlib>
#include <mutex>
#include <sstream>
#include <vector>

#include "core/log.hpp"
#include "core/otrace.hpp"

namespace aspen::telemetry {

namespace {

constexpr const char* kCounterNames[] = {
    "cx_eager_taken",
    "cx_deferred_queued",
    "cx_remote_async",
    "ready_pool_hit",
    "ready_cell_alloc",
    "cellpool_recycled",
    "cellpool_fresh",
    "whenall_all_ready",
    "whenall_one_pending",
    "whenall_one_valued",
    "whenall_general",
    "rma_put_local",
    "rma_put_remote",
    "rma_get_local",
    "rma_get_remote",
    "rpc_roundtrip",
    "rpc_ff_sent",
    "amo_fetching",
    "amo_sideeffect",
    "amo_nonfetching",
    "am_sent",
    "am_executed",
    "progress_calls",
    "lpc_enqueued",
    "lpc_executed",
    "lpc_cross_thread",
    "persona_switches",
    "perturb_delayed",
    "perturb_reordered",
    "perturb_forced_async",
    "perturb_backpressure",
    "net_msgs_sent",
    "net_msgs_received",
    "net_eager_sent",
    "net_rdzv_sent",
    "net_bytes_sent",
    "net_bytes_received",
    "net_partial_writes",
    "net_short_reads",
    "net_telemetry_sent",
    "net_telemetry_received",
    "shm_msgs_sent",
    "shm_msgs_received",
    "shm_bytes_sent",
    "shm_bytes_received",
    "shm_bulk_staged",
    "shm_ring_full",
    "shm_peers_mapped",
    "agg_frames_coalesced",
    "agg_flush_bytes",
    "agg_flush_frames",
    "agg_flush_age",
    "agg_flush_forced",
    "net_sendq_parked",
    "net_idle_unwatched",
    "otrace_sampled",
};
static_assert(std::size(kCounterNames) == kCounterCount,
              "counter name table out of sync with the enum");

// Names are serialization keys (JSON sidecars, the sidecar reader's
// name->index lookup, and the wire-frame field space): a duplicate or
// malformed entry would silently alias two counters. Enforce uniqueness
// and snake_case shape at compile time.
constexpr bool counter_names_well_formed() {
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const char* a = kCounterNames[i];
    if (a == nullptr || a[0] == '\0') return false;
    for (const char* p = a; *p != '\0'; ++p)
      if (!((*p >= 'a' && *p <= 'z') || (*p >= '0' && *p <= '9') ||
            *p == '_'))
        return false;
    for (std::size_t j = i + 1; j < kCounterCount; ++j) {
      const char* b = kCounterNames[j];
      std::size_t k = 0;
      while (a[k] != '\0' && a[k] == b[k]) ++k;
      if (a[k] == b[k]) return false;  // both '\0': identical strings
    }
  }
  return true;
}
static_assert(counter_names_well_formed(),
              "counter names must be unique, non-empty snake_case");

}  // namespace

const char* to_string(counter c) noexcept {
  return kCounterNames[static_cast<std::size_t>(c)];
}

const char* artifact_base() noexcept {
  const char* v = std::getenv("ASPEN_TELEMETRY_TRACE");
  return v != nullptr && *v != '\0' ? v : "aspen";
}

void merge_into(snapshot& into, const snapshot& part) noexcept {
  for (std::size_t i = 0; i < kCounterCount; ++i)
    into.counters[i] += part.counters[i];
  for (std::size_t i = 0; i < kPqBatchBuckets; ++i)
    into.pq_fire_hist[i] += part.pq_fire_hist[i];
  into.pq_reserve_growths += part.pq_reserve_growths;
  into.pq_total_fired += part.pq_total_fired;
  if (part.pq_high_water > into.pq_high_water)
    into.pq_high_water = part.pq_high_water;
  if (part.lpc_mailbox_high_water > into.lpc_mailbox_high_water)
    into.lpc_mailbox_high_water = part.lpc_mailbox_high_water;
  for (std::size_t i = 0; i < kLatStreamCount; ++i)
    lat_merge(into.lat[i], part.lat[i]);
}

std::string snapshot::to_json() const {
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    \"" << kCounterNames[i]
       << "\": " << counters[i];
  }
  os << "\n  },\n  \"progress_queue\": {\n"
     << "    \"high_water\": " << pq_high_water << ",\n"
     << "    \"reserve_growths\": " << pq_reserve_growths << ",\n"
     << "    \"total_fired\": " << pq_total_fired << ",\n"
     << "    \"lpc_mailbox_high_water\": " << lpc_mailbox_high_water << ",\n"
     << "    \"fire_batch_hist_pow2\": [";
  for (std::size_t i = 0; i < kPqBatchBuckets; ++i)
    os << (i == 0 ? "" : ", ") << pq_fire_hist[i];
  os << "]\n  },\n  \"latency\": {";
  for (std::size_t s = 0; s < kLatStreamCount; ++s) {
    const lat_hist& h = lat[s];
    os << (s == 0 ? "\n" : ",\n") << "    \""
       << to_string(static_cast<lat_stream>(s))
       << "\": {\"buckets\": [";
    for (std::size_t i = 0; i < kLatBuckets; ++i)
      os << (i == 0 ? "" : ", ") << h.buckets[i];
    // buckets + max_ns are the mergeable (bit-identity) fields; count and
    // the percentiles are derived conveniences for human readers.
    os << "], \"max_ns\": " << h.max_ns << ", \"count\": " << h.total()
       << ", \"p50_ns\": " << h.percentile_ns(50.0)
       << ", \"p90_ns\": " << h.percentile_ns(90.0)
       << ", \"p99_ns\": " << h.percentile_ns(99.0) << "}";
  }
  os << "\n  },\n  \"derived\": {\n"
     << "    \"completions_eager\": " << get(counter::cx_eager_taken) << ",\n"
     << "    \"completions_deferred\": " << get(counter::cx_deferred_queued)
     << ",\n"
     << "    \"completions_remote\": " << get(counter::cx_remote_async)
     << ",\n"
     << "    \"completions_total\": " << completions_issued() << ",\n"
     << "    \"eager_bypass_ratio\": " << eager_bypass_ratio() << "\n"
     << "  },\n  \"enabled\": " << (compiled_in() ? "true" : "false")
     << "\n}";
  return os.str();
}

#if ASPEN_TELEMETRY_ENABLED

// ---------------------------------------------------------------------------
// Counter registry: live per-thread records + a retired aggregate
// ---------------------------------------------------------------------------

namespace {

struct registry {
  std::mutex mu;
  std::vector<const detail::record*> live;
  snapshot retired;  // merged totals of exited threads
};

/// Leaked on purpose: thread_local records (including the main thread's)
/// retire during static destruction, after function-local statics may
/// already be gone.
registry& reg() noexcept {
  static registry* r = new registry;
  return *r;
}

/// Merge one record's current values into `into` (sums add, high-water
/// maxes). Relaxed reads: counters are monotone and exactness across a
/// racing writer is not required mid-run; at retirement the writer is done.
void merge_record(snapshot& into, const detail::record& r) noexcept {
  for (std::size_t i = 0; i < kCounterCount; ++i)
    into.counters[i] += r.sums[i].v.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kPqBatchBuckets; ++i)
    into.pq_fire_hist[i] += r.pq_hist[i].v.load(std::memory_order_relaxed);
  const std::uint64_t hw = r.pq_high_water.v.load(std::memory_order_relaxed);
  if (hw > into.pq_high_water) into.pq_high_water = hw;
  into.pq_reserve_growths +=
      r.pq_reserve_growths.v.load(std::memory_order_relaxed);
  into.pq_total_fired += r.pq_total_fired.v.load(std::memory_order_relaxed);
  const std::uint64_t mhw =
      r.lpc_mailbox_high_water.v.load(std::memory_order_relaxed);
  if (mhw > into.lpc_mailbox_high_water) into.lpc_mailbox_high_water = mhw;
  for (std::size_t s = 0; s < kLatStreamCount; ++s) {
    const detail::lat_cell& c = r.lat[s];
    for (std::size_t i = 0; i < kLatBuckets; ++i)
      into.lat[s].buckets[i] +=
          c.buckets[i].load(std::memory_order_relaxed);
    const std::uint64_t mx = c.max_ns.load(std::memory_order_relaxed);
    if (mx > into.lat[s].max_ns) into.lat[s].max_ns = mx;
  }
}

}  // namespace

namespace detail {

record::record() {
  registry& g = reg();
  std::lock_guard<std::mutex> lk(g.mu);
  g.live.push_back(this);
}

record::~record() {
  registry& g = reg();
  std::lock_guard<std::mutex> lk(g.mu);
  merge_record(g.retired, *this);
  std::erase(g.live, this);
}

}  // namespace detail

snapshot local_snapshot() noexcept {
  snapshot s;
  merge_record(s, detail::tls_record());
  return s;
}

snapshot aggregate() noexcept {
  registry& g = reg();
  std::lock_guard<std::mutex> lk(g.mu);
  snapshot s = g.retired;
  for (const detail::record* r : g.live) merge_record(s, *r);
  return s;
}

// ---------------------------------------------------------------------------
// The latency clock and clock sync
// ---------------------------------------------------------------------------

namespace {

// Set once by the conduit::tcp bootstrap (rank 0 stores offset 0).
std::atomic<bool> g_clock_synced{false};
std::atomic<std::int64_t> g_clock_offset_ns{0};

std::uint64_t process_epoch_ns() noexcept {
  static const std::uint64_t t0 = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return t0;
}

}  // namespace

namespace detail {

std::uint64_t trace_now_ns() noexcept {
  // Pin the epoch before sampling: on the very first call the static t0 is
  // captured inside process_epoch_ns(), i.e. *after* any already-sampled
  // now, and the subtraction would wrap to ~2^64.
  const std::uint64_t t0 = process_epoch_ns();
  const auto now = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return now - t0;
}

}  // namespace detail

void set_thread_rank(int rank) noexcept {
  watchdog::set_thread_rank(rank);
  otrace::set_thread_rank(rank);
  log_set_rank(rank);
}

void set_clock_sync(std::int64_t offset_ns) noexcept {
  g_clock_offset_ns.store(offset_ns, std::memory_order_relaxed);
  g_clock_synced.store(true, std::memory_order_relaxed);
}

bool clock_synced() noexcept {
  return g_clock_synced.load(std::memory_order_relaxed);
}

std::int64_t clock_offset_ns() noexcept {
  return g_clock_offset_ns.load(std::memory_order_relaxed);
}

#else  // !ASPEN_TELEMETRY_ENABLED

snapshot local_snapshot() noexcept { return {}; }
snapshot aggregate() noexcept { return {}; }

void set_thread_rank(int rank) noexcept { log_set_rank(rank); }
void set_clock_sync(std::int64_t) noexcept {}
bool clock_synced() noexcept { return false; }
std::int64_t clock_offset_ns() noexcept { return 0; }

#endif  // ASPEN_TELEMETRY_ENABLED

}  // namespace aspen::telemetry
