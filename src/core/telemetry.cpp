#include "core/telemetry.hpp"

#include <cstdio>
#include <fstream>
#include <mutex>
#include <ostream>
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
    "agg_bytes_saved",
    "agg_store_buckets_shipped",
    "agg_store_elems",
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
// Trace buffers
// ---------------------------------------------------------------------------

namespace {

/// Per-thread event cap; beyond it events are counted as dropped rather
/// than growing without bound (a GUPS run can issue tens of millions of
/// operations).
constexpr std::size_t kTraceCapPerThread = std::size_t{1} << 20;

struct trace_buffer;

struct trace_registry {
  std::mutex mu;
  std::vector<trace_buffer*> live;
  std::vector<detail::trace_event> retired;
  std::uint64_t dropped = 0;
};

trace_registry& treg() noexcept {
  static trace_registry* r = new trace_registry;
  return *r;
}

struct trace_buffer {
  std::vector<detail::trace_event> events;
  std::uint64_t dropped = 0;
  std::uint32_t tid = 0;

  trace_buffer() {
    trace_registry& g = treg();
    std::lock_guard<std::mutex> lk(g.mu);
    g.live.push_back(this);
  }
  ~trace_buffer() {
    trace_registry& g = treg();
    std::lock_guard<std::mutex> lk(g.mu);
    g.retired.insert(g.retired.end(), events.begin(), events.end());
    g.dropped += dropped;
    std::erase(g.live, this);
  }
};

trace_buffer& tls_trace() noexcept {
  static thread_local trace_buffer b;
  return b;
}

std::atomic<bool> g_tracing{false};

// Set once by the conduit::tcp bootstrap (rank 0 stores offset 0). While
// unset, traces keep their original process-relative timestamps so
// single-process consumers see no change.
std::atomic<bool> g_clock_synced{false};
std::atomic<std::int64_t> g_clock_offset_ns{0};

std::uint64_t process_epoch_ns() noexcept {
  static const std::uint64_t t0 = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return t0;
}

void escape_json_string(std::ostream& os, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
}

/// Event timestamp in microseconds. With clock sync in effect the
/// process-relative tick is rebased to the absolute steady clock and
/// corrected by this rank's estimated offset from rank 0, so every rank of
/// one job lands on the same timeline. Absolute steady-clock microseconds
/// (~1e11) stay well inside double's 53-bit mantissa, preserving sub-us
/// precision.
double event_ts_us(std::uint64_t rel_ns) noexcept {
  if (!g_clock_synced.load(std::memory_order_relaxed))
    return static_cast<double>(rel_ns) / 1000.0;
  const std::int64_t abs_ns =
      static_cast<std::int64_t>(process_epoch_ns() + rel_ns) -
      g_clock_offset_ns.load(std::memory_order_relaxed);
  return static_cast<double>(abs_ns) / 1000.0;
}

void write_event(std::ostream& os, const detail::trace_event& e) {
  os << "{\"name\":\"";
  escape_json_string(os, e.name);
  os << "\",\"cat\":\"";
  escape_json_string(os, e.cat);
  os << "\",\"ph\":\"" << e.ph << "\",\"pid\":0,\"tid\":" << e.tid
     << ",\"ts\":" << event_ts_us(e.ts_ns);
  if (e.ph == 'X') {
    os << ",\"dur\":" << static_cast<double>(e.dur_ns) / 1000.0;
  } else {
    // Flow events bind on (name, cat, id); "bp":"e" lets the finish end
    // attach to the enclosing slice rather than requiring an exact match.
    char idbuf[24];
    std::snprintf(idbuf, sizeof idbuf, "0x%llx",
                  static_cast<unsigned long long>(e.id));
    os << ",\"id\":\"" << idbuf << "\"";
    if (e.ph == 'f') os << ",\"bp\":\"e\"";
  }
  os << "}";
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

void trace_emit(const char* name, const char* cat, std::uint64_t ts_ns,
                std::uint64_t dur_ns) noexcept {
  trace_buffer& b = tls_trace();
  if (b.events.size() >= kTraceCapPerThread) {
    ++b.dropped;
    return;
  }
  b.events.push_back({name, cat, b.tid, ts_ns, dur_ns, 'X', 0});
}

void trace_emit_flow(const char* name, const char* cat, bool begin,
                     std::uint64_t id) noexcept {
  trace_buffer& b = tls_trace();
  if (b.events.size() >= kTraceCapPerThread) {
    ++b.dropped;
    return;
  }
  b.events.push_back(
      {name, cat, b.tid, trace_now_ns(), 0, begin ? 's' : 'f', id});
}

}  // namespace detail

void enable_tracing(bool on) noexcept {
  if (on) process_epoch_ns();  // pin t=0 before the first span
  g_tracing.store(on, std::memory_order_relaxed);
}

bool tracing_enabled() noexcept {
  return g_tracing.load(std::memory_order_relaxed);
}

void set_thread_rank(int rank) noexcept {
  tls_trace().tid = rank < 0 ? 0 : static_cast<std::uint32_t>(rank);
  watchdog::set_thread_rank(rank);
  otrace::set_thread_rank(rank);
  log_set_rank(rank);
}

void set_clock_sync(std::int64_t offset_ns) noexcept {
  process_epoch_ns();  // pin the rebase epoch before any correction
  g_clock_offset_ns.store(offset_ns, std::memory_order_relaxed);
  g_clock_synced.store(true, std::memory_order_relaxed);
}

bool clock_synced() noexcept {
  return g_clock_synced.load(std::memory_order_relaxed);
}

std::int64_t clock_offset_ns() noexcept {
  return g_clock_offset_ns.load(std::memory_order_relaxed);
}

void clear_trace() noexcept {
  trace_registry& g = treg();
  std::lock_guard<std::mutex> lk(g.mu);
  g.retired.clear();
  g.dropped = 0;
  for (trace_buffer* b : g.live) {
    b->events.clear();
    b->dropped = 0;
  }
}

std::size_t trace_event_count() noexcept {
  trace_registry& g = treg();
  std::lock_guard<std::mutex> lk(g.mu);
  std::size_t n = g.retired.size();
  for (const trace_buffer* b : g.live) n += b->events.size();
  return n;
}

void write_trace(std::ostream& os) {
  trace_registry& g = treg();
  std::lock_guard<std::mutex> lk(g.mu);
  os << "{\"traceEvents\":[";
  bool first = true;
  std::uint64_t dropped = g.dropped;
  for (const detail::trace_event& e : g.retired) {
    if (!first) os << ",\n";
    first = false;
    write_event(os, e);
  }
  for (const trace_buffer* b : g.live) {
    dropped += b->dropped;
    for (const detail::trace_event& e : b->events) {
      if (!first) os << ",\n";
      first = false;
      write_event(os, e);
    }
  }
  os << "],\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_events\":"
     << dropped << ",\"clock_synced\":"
     << (clock_synced() ? "true" : "false")
     << ",\"clock_offset_ns\":" << clock_offset_ns() << "}}";
}

#else  // !ASPEN_TELEMETRY_ENABLED

snapshot local_snapshot() noexcept { return {}; }
snapshot aggregate() noexcept { return {}; }

void enable_tracing(bool) noexcept {}
bool tracing_enabled() noexcept { return false; }
void set_thread_rank(int rank) noexcept { log_set_rank(rank); }
void set_clock_sync(std::int64_t) noexcept {}
bool clock_synced() noexcept { return false; }
std::int64_t clock_offset_ns() noexcept { return 0; }
void clear_trace() noexcept {}
std::size_t trace_event_count() noexcept { return 0; }

void write_trace(std::ostream& os) {
  os << "{\"traceEvents\":[],\"displayTimeUnit\":\"ns\",\"otherData\":"
        "{\"dropped_events\":0,\"clock_synced\":false,"
        "\"clock_offset_ns\":0}}";
}

#endif  // ASPEN_TELEMETRY_ENABLED

bool write_trace_file(const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  write_trace(f);
  return static_cast<bool>(f);
}

}  // namespace aspen::telemetry
