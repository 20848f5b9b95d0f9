// aspen::telemetry — runtime counters, progress-queue depth tracking, and
// the latency clock for the completion subsystem.
//
// The paper's claim rests on *where* a completion notification fires —
// eagerly at the initiation site versus deferred through the progress
// engine — so this subsystem gives every notification path a first-class
// counter: eager completions taken vs. deferred, future-cell pool
// hits/misses, ready-future pool reuses, when_all collapse hits by case,
// local-bypass vs. remote-AM puts/gets, RPC round trips, and atomic-domain
// fetching vs. non-fetching traffic. A second group tracks the progress
// engine itself: per-fire() batch-size histogram (power-of-two buckets),
// queue high-water mark, and reserve-growth events.
//
// Architecture:
//   - counters live in a per-thread `record` of cache-line-padded relaxed
//     atomics (one rank == one thread in this runtime, so writes are
//     uncontended; padding keeps cross-thread snapshot reads from
//     false-sharing the writer);
//   - records register themselves in a process-global registry on first
//     use and merge into a retired aggregate at thread exit, so
//     telemetry::aggregate() works both during and after an spmd() run;
//   - telemetry::snapshot is a plain value type with operator- for
//     interval deltas, and to_json() for the benchmark sidecar files;
//   - the per-operation timeline is aspen::otrace (core/otrace.hpp): its
//     sampled stage records run from injection to eager or deferred
//     fulfillment, stamped on the clock this header keeps in sync.
//
// The whole subsystem sits behind the ASPEN_TELEMETRY CMake option. When
// the option is OFF every count()/note_*() call and op_scope compiles to
// nothing, `record` is an empty type (verified by a static_assert below),
// and snapshots read as all-zero.
//
// This header is deliberately dependency-free (no core/runtime includes)
// so every layer — gex substrate, progress engine, completion engine,
// apps — can include it without cycles.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

#if defined(ASPEN_TELEMETRY) && ASPEN_TELEMETRY
#define ASPEN_TELEMETRY_ENABLED 1
#else
#define ASPEN_TELEMETRY_ENABLED 0
#endif

#include "core/telemetry_lat.hpp"

namespace aspen::telemetry {

// ---------------------------------------------------------------------------
// Counter taxonomy
// ---------------------------------------------------------------------------

/// Every runtime counter. Completion items of kind future/promise/lpc are
/// counted exactly once among {cx_eager_taken, cx_deferred_queued,
/// cx_remote_async}; rpc_cx items surface as rpc_ff_sent instead (they are
/// dispatched to the target, never notified locally).
enum class counter : std::size_t {
  // Completion-path disposition (the paper's core distinction).
  cx_eager_taken,      ///< notification delivered eagerly at the initiation site
  cx_deferred_queued,  ///< notification enqueued on the progress queue
  cx_remote_async,     ///< notification wired to an in-flight remote op record

  // Future machinery.
  ready_pool_hit,    ///< ready future<> served from the pooled immortal cell
  ready_cell_alloc,  ///< ready future<> that had to allocate a cell (no pool)
  cellpool_recycled, ///< internal cell allocation served from the freelist
  cellpool_fresh,    ///< internal cell allocation that went to malloc

  // when_all collapse (paper §III-C) by case.
  whenall_all_ready,    ///< all inputs value-less and ready -> reuse input
  whenall_one_pending,  ///< all value-less, one pending -> return it
  whenall_one_valued,   ///< single valued input, rest ready -> return it
  whenall_general,      ///< general dependency-graph node built

  // RMA path selection.
  rma_put_local,   ///< put took the shared-memory bypass
  rma_put_remote,  ///< put took the active-message round trip
  rma_get_local,   ///< get took the shared-memory bypass
  rma_get_remote,  ///< get took the active-message round trip

  // RPC.
  rpc_roundtrip,  ///< rpc() request/reply pairs initiated
  rpc_ff_sent,    ///< rpc_ff / remote_cx::as_rpc dispatches

  // Atomic domain.
  amo_fetching,     ///< value-producing atomic (fetch_add, exchange, ...)
  amo_sideeffect,   ///< side-effect-only atomic (add, store, ...)
  amo_nonfetching,  ///< non-fetching *_into variant (paper §III-B)

  // Substrate.
  am_sent,      ///< active messages initiated by this rank
  am_executed,  ///< active messages executed by this rank's poll()

  // Progress engine.
  progress_calls,  ///< entries into aspen::progress()

  // Persona / cross-thread LPC subsystem (core/persona.hpp).
  lpc_enqueued,      ///< LPCs enqueued onto a persona mailbox
  lpc_executed,      ///< LPCs executed by a persona drain
  lpc_cross_thread,  ///< executed LPCs enqueued by a non-holding thread
  persona_switches,  ///< persona activations (scope pushes / acquisitions)

  // Perturbation conduit (gex/perturb.hpp) injected events.
  perturb_delayed,       ///< messages assigned a nonzero delivery hold
  perturb_reordered,     ///< deliveries emitted out of arrival order
  perturb_forced_async,  ///< RMA/atomics diverted to the AM path
  perturb_backpressure,  ///< sends that waited on a full inbox

  // Socket conduit (src/net/), conduit::tcp.
  net_msgs_sent,       ///< AMs shipped to a remote process
  net_msgs_received,   ///< AMs delivered from a remote process
  net_eager_sent,      ///< AMs sent in one eager frame (<= eager_max)
  net_rdzv_sent,       ///< AMs negotiated through rendezvous (RTS/CTS)
  net_bytes_sent,      ///< wire bytes written to sockets
  net_bytes_received,  ///< wire bytes read from sockets
  net_partial_writes,  ///< sends cut short by a full socket buffer
  net_short_reads,     ///< reads returning less than the requested length
  net_telemetry_sent,      ///< live-telemetry update frames shipped to rank 0
  net_telemetry_received,  ///< live-telemetry update frames rank 0 absorbed

  // Shared-memory conduit (src/shm/), conduit::shm. The shm_* counters are
  // the subset of net_* traffic that took the ring path instead of a
  // socket (net_msgs_sent still counts every cross-process AM).
  shm_msgs_sent,       ///< AMs pushed through a shared-memory ring
  shm_msgs_received,   ///< AMs popped from a shared-memory ring
  shm_bytes_sent,      ///< payload bytes pushed through the rings
  shm_bytes_received,  ///< payload bytes popped from the rings
  shm_bulk_staged,     ///< large payloads staged via the bulk ring
  shm_ring_full,       ///< pushes that fell back to the socket (ring full)
  shm_peers_mapped,    ///< peers whose segments were mapped at bootstrap

  // Small-message aggregation (docs/AGG.md): per-peer wire coalescing in
  // net::endpoint.
  agg_frames_coalesced,  ///< eager frames that shared a flush with others
  agg_flush_bytes,       ///< batch flushes triggered by the byte watermark
  agg_flush_frames,      ///< batch flushes triggered by the frame count
  agg_flush_age,         ///< batch flushes triggered by the age watermark
  agg_flush_forced,      ///< flushes forced by control traffic / idle / drain
  net_sendq_parked,      ///< sends parked on the ASPEN_NET_SENDQ_MAX bound

  // Socket data plane (net::io_backend).
  net_idle_unwatched,  ///< peers left unwatched by one capped idle poll

  // Operation tracing (aspen::otrace, docs/OTRACE.md).
  otrace_sampled,  ///< injected ops that drew a sampled trace id

  kCount,
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(counter::kCount);

/// Stable snake_case name of a counter (used as the JSON key).
[[nodiscard]] const char* to_string(counter c) noexcept;

/// Power-of-two buckets for the progress-queue fire() batch-size histogram:
/// bucket i counts fires of batch size in [2^i, 2^(i+1)).
inline constexpr std::size_t kPqBatchBuckets = 16;

[[nodiscard]] constexpr std::size_t pq_batch_bucket(std::size_t n) noexcept {
  const std::size_t b =
      n == 0 ? 0 : static_cast<std::size_t>(std::bit_width(n) - 1);
  return b < kPqBatchBuckets ? b : kPqBatchBuckets - 1;
}

// ---------------------------------------------------------------------------
// Snapshot — plain values, always available (all-zero when compiled out)
// ---------------------------------------------------------------------------

struct snapshot {
  std::array<std::uint64_t, kCounterCount> counters{};
  std::array<std::uint64_t, kPqBatchBuckets> pq_fire_hist{};
  std::uint64_t pq_high_water = 0;  ///< max pending depth seen (monotone)
  std::uint64_t pq_reserve_growths = 0;
  std::uint64_t pq_total_fired = 0;
  /// Max persona-mailbox depth observed at any enqueue (monotone max,
  /// like pq_high_water).
  std::uint64_t lpc_mailbox_high_water = 0;
  /// Latency histograms (telemetry_lat.hpp), one per stream. Buckets are
  /// monotone sums; each max_ns is a high-water mark.
  std::array<lat_hist, kLatStreamCount> lat{};

  bool operator==(const snapshot&) const = default;

  [[nodiscard]] std::uint64_t get(counter c) const noexcept {
    return counters[static_cast<std::size_t>(c)];
  }

  [[nodiscard]] const lat_hist& lat_of(lat_stream s) const noexcept {
    return lat[static_cast<std::size_t>(s)];
  }

  /// Disposition-wide issue->completion histogram: the op-class grid's
  /// eager (or deferred) streams folded together.
  [[nodiscard]] lat_hist lat_by_disposition(disposition d) const noexcept {
    lat_hist h{};
    for (std::size_t c = 0; c < kOpClassCount; ++c)
      lat_merge(h, lat_of(stream_of(static_cast<op_class>(c), d)));
    return h;
  }

  /// Completion items issued = eager + deferred + remote-async. The
  /// invariant the benchmark sidecars assert: every item lands in exactly
  /// one disposition bucket.
  [[nodiscard]] std::uint64_t completions_issued() const noexcept {
    return get(counter::cx_eager_taken) + get(counter::cx_deferred_queued) +
           get(counter::cx_remote_async);
  }

  /// Fraction of completion items that bypassed the progress queue.
  [[nodiscard]] double eager_bypass_ratio() const noexcept {
    const std::uint64_t total = completions_issued();
    return total == 0
               ? 0.0
               : static_cast<double>(get(counter::cx_eager_taken)) /
                     static_cast<double>(total);
  }

  /// Interval delta. Monotone sums subtract; pq_high_water (and every
  /// latency max_ns) is a running maximum for which a difference is
  /// meaningless, so the minuend's value is kept as-is.
  [[nodiscard]] snapshot operator-(const snapshot& rhs) const noexcept {
    snapshot d = *this;
    for (std::size_t i = 0; i < kCounterCount; ++i)
      d.counters[i] -= rhs.counters[i];
    for (std::size_t i = 0; i < kPqBatchBuckets; ++i)
      d.pq_fire_hist[i] -= rhs.pq_fire_hist[i];
    d.pq_reserve_growths -= rhs.pq_reserve_growths;
    d.pq_total_fired -= rhs.pq_total_fired;
    for (std::size_t i = 0; i < kLatStreamCount; ++i)
      lat_subtract(d.lat[i], rhs.lat[i]);
    return d;
  }

  /// Serialize as a JSON object (counters + progress-queue stats + derived
  /// consistency fields). Implemented in telemetry.cpp.
  [[nodiscard]] std::string to_json() const;
};

/// Merge `part` into `into` with cross-rank semantics: counters, the fire
/// histogram and the monotone progress-queue sums add; high-water marks
/// take the max (a depth in one process says nothing about another's).
/// This single definition backs both the post-hoc sidecar merge
/// (bench::merge_snapshots) and the live wire aggregation
/// (telemetry::live), so the two paths agree bit-for-bit by construction.
void merge_into(snapshot& into, const snapshot& part) noexcept;

// ---------------------------------------------------------------------------
// The per-thread record
// ---------------------------------------------------------------------------

namespace detail {

#if ASPEN_TELEMETRY_ENABLED

/// One cache line per counter: the writer (the owning rank thread) never
/// false-shares with concurrent aggregate() readers.
struct alignas(64) padded_u64 {
  std::atomic<std::uint64_t> v{0};
};

/// Per-stream latency storage. Unpadded (13 streams x 65 words would be
/// 54 KiB/thread padded): buckets on one stream are written by the owning
/// thread only, and a reader tearing across bucket lines still sees each
/// monotone word exactly.
struct lat_cell {
  std::array<std::atomic<std::uint64_t>, kLatBuckets> buckets{};
  std::atomic<std::uint64_t> max_ns{0};
};

struct record {
  std::array<padded_u64, kCounterCount> sums{};
  std::array<padded_u64, kPqBatchBuckets> pq_hist{};
  padded_u64 pq_high_water{};
  padded_u64 pq_reserve_growths{};
  padded_u64 pq_total_fired{};
  padded_u64 lpc_mailbox_high_water{};
  std::array<lat_cell, kLatStreamCount> lat{};

  record();   // registers with the process-global registry
  ~record();  // merges into the retired aggregate and deregisters

  void add(counter c, std::uint64_t n) noexcept {
    sums[static_cast<std::size_t>(c)].v.fetch_add(n,
                                                  std::memory_order_relaxed);
  }
  /// Single-writer monotone max (only the owning thread stores).
  void raise_high_water(std::uint64_t depth) noexcept {
    if (depth > pq_high_water.v.load(std::memory_order_relaxed))
      pq_high_water.v.store(depth, std::memory_order_relaxed);
  }
  /// Mailbox depths are observed by producers on many threads, so unlike
  /// the progress-queue max this one needs a CAS-free racy max: a stale
  /// overwrite can only lose to a concurrent *larger* depth, which the
  /// next enqueue at that depth restores.
  void raise_lpc_mailbox_high_water(std::uint64_t depth) noexcept {
    std::uint64_t cur = lpc_mailbox_high_water.v.load(std::memory_order_relaxed);
    while (depth > cur &&
           !lpc_mailbox_high_water.v.compare_exchange_weak(
               cur, depth, std::memory_order_relaxed)) {
    }
  }
  /// One latency sample. Single-writer (the owning thread), so the max is
  /// a plain load/store like raise_high_water.
  void note_lat(lat_stream s, std::uint64_t ns) noexcept {
    lat_cell& c = lat[static_cast<std::size_t>(s)];
    c.buckets[lat_bucket(ns)].fetch_add(1, std::memory_order_relaxed);
    if (ns > c.max_ns.load(std::memory_order_relaxed))
      c.max_ns.store(ns, std::memory_order_relaxed);
  }
};

[[nodiscard]] inline record& tls_record() noexcept {
  static thread_local record r;
  return r;
}

#else  // !ASPEN_TELEMETRY_ENABLED

/// Compiled-out configuration: the record carries no state at all. The
/// static_assert below is the "size check" proving instrumentation really
/// vanished from every translation unit.
struct record {};

#endif

static_assert(ASPEN_TELEMETRY_ENABLED || std::is_empty_v<record>,
              "with ASPEN_TELEMETRY off the counter record must be stateless");

}  // namespace detail

// ---------------------------------------------------------------------------
// Counting API (no-ops when compiled out)
// ---------------------------------------------------------------------------

inline void count(counter c, std::uint64_t n = 1) noexcept {
#if ASPEN_TELEMETRY_ENABLED
  detail::tls_record().add(c, n);
#else
  (void)c;
  (void)n;
#endif
}

/// Record a progress-queue fire() of `batch` notifications.
inline void note_pq_fire(std::size_t batch) noexcept {
#if ASPEN_TELEMETRY_ENABLED
  detail::record& r = detail::tls_record();
  r.pq_hist[pq_batch_bucket(batch)].v.fetch_add(1, std::memory_order_relaxed);
  r.pq_total_fired.v.fetch_add(batch, std::memory_order_relaxed);
#else
  (void)batch;
#endif
}

/// Record the pending depth after a push (tracks the high-water mark).
inline void note_pq_depth(std::size_t depth) noexcept {
#if ASPEN_TELEMETRY_ENABLED
  detail::tls_record().raise_high_water(depth);
#else
  (void)depth;
#endif
}

/// Record the depth of a persona LPC mailbox after an enqueue (tracks the
/// high-water mark; callable from any producer thread).
inline void note_lpc_mailbox_depth(std::size_t depth) noexcept {
#if ASPEN_TELEMETRY_ENABLED
  detail::tls_record().raise_lpc_mailbox_high_water(depth);
#else
  (void)depth;
#endif
}

/// Record one capacity growth of a progress-queue vector.
inline void note_pq_reserve_growth() noexcept {
#if ASPEN_TELEMETRY_ENABLED
  detail::tls_record().pq_reserve_growths.v.fetch_add(
      1, std::memory_order_relaxed);
#endif
}

/// Record one latency sample (nanoseconds) on `s`.
inline void note_latency(lat_stream s, std::uint64_t ns) noexcept {
#if ASPEN_TELEMETRY_ENABLED
  detail::tls_record().note_lat(s, ns);
#else
  (void)s;
  (void)ns;
#endif
}

/// Snapshot of the calling thread's record only.
[[nodiscard]] snapshot local_snapshot() noexcept;

/// Process-wide snapshot: retired (exited) threads' totals plus every live
/// thread's current values. Sums add across threads; pq_high_water is the
/// max. Safe to call after spmd() returns.
[[nodiscard]] snapshot aggregate() noexcept;

// ---------------------------------------------------------------------------
// Thread rank, clock sync, and the diagnostic-file base
// ---------------------------------------------------------------------------

/// Tag the calling thread with its rank: forwarded to the watchdog, otrace
/// and the log prefix. Called by the spmd launcher.
void set_thread_rank(int rank) noexcept;

/// Record this process's steady-clock offset relative to the job's rank 0
/// (local_now_ns - rank0_now_ns, estimated by the conduit::tcp bootstrap's
/// RTT-midpoint probes). otrace subtracts it from every stage timestamp, so
/// the per-rank exports of one job merge onto a single shared timeline.
void set_clock_sync(std::int64_t offset_ns) noexcept;
[[nodiscard]] bool clock_synced() noexcept;
[[nodiscard]] std::int64_t clock_offset_ns() noexcept;

/// The base path of every per-rank diagnostic file (otrace exports and
/// dumps, watchdog health reports): ASPEN_TELEMETRY_TRACE, else "aspen".
/// otrace::configure and watchdog::configure override it in-process.
[[nodiscard]] const char* artifact_base() noexcept;

namespace detail {

#if ASPEN_TELEMETRY_ENABLED
[[nodiscard]] std::uint64_t trace_now_ns() noexcept;

/// The op currently being issued on this thread (op_scope below). The
/// completion engine (cx_state.hpp) reads it at every disposition site to
/// attribute the notification's issue->completion latency to the right
/// lat_stream without threading a class/timestamp parameter through every
/// handle_sync/handle_async overload.
struct op_ctx {
  std::uint64_t issue_ns = 0;
  op_class cls = op_class::rma_put;
  bool active = false;
};

[[nodiscard]] inline op_ctx& tls_op() noexcept {
  static thread_local op_ctx o;
  return o;
}
#endif

}  // namespace detail

/// The latency clock (process-relative steady ns), or 0 when telemetry is
/// compiled out. Payload stamps (e.g. the rpc request's issue timestamp)
/// use this so wire layouts stay identical across build configurations.
[[nodiscard]] inline std::uint64_t lat_now_ns() noexcept {
#if ASPEN_TELEMETRY_ENABLED
  return detail::trace_now_ns();
#else
  return 0;
#endif
}

#if ASPEN_TELEMETRY_ENABLED

/// RAII op-issue marker: communication entry points (rput/rget/atomics)
/// construct one, and every completion notification the op spawns records
/// now - issue_ns on the stream for (cls, disposition). Nests (saves and
/// restores the previous context) so an op issued from inside another op's
/// inline completion attributes correctly.
class op_scope {
 public:
  explicit op_scope(op_class cls) noexcept : saved_(detail::tls_op()) {
    detail::tls_op() = {detail::trace_now_ns(), cls, true};
  }
  ~op_scope() { detail::tls_op() = saved_; }
  op_scope(const op_scope&) = delete;
  op_scope& operator=(const op_scope&) = delete;

 private:
  detail::op_ctx saved_;
};

/// Snapshot of the issuing op's context, captured into deferred-completion
/// closures and op_records at injection time and consumed when the
/// notification finally fires (possibly on another thread — the record
/// written is the firing thread's, which aggregate() sums anyway).
struct op_capture {
  std::uint64_t issue_ns = 0;
  op_class cls = op_class::rma_put;
  bool active = false;

  op_capture() noexcept {
    const detail::op_ctx& o = detail::tls_op();
    issue_ns = o.issue_ns;
    cls = o.cls;
    active = o.active;
  }

  void complete_deferred() const noexcept {
    if (active)
      note_latency(stream_of(cls, disposition::deferred),
                   detail::trace_now_ns() - issue_ns);
  }

  /// Register the captured op with the stall watchdog (0 when untracked:
  /// watchdog disabled, or no op_scope was active at capture).
  [[nodiscard]] std::uint64_t track() const noexcept {
    return active ? watchdog::track_op(cls) : 0;
  }
};

/// Record an eager (inline) completion of the op being issued, if any.
inline void note_op_eager() noexcept {
  const detail::op_ctx& o = detail::tls_op();
  if (o.active)
    note_latency(stream_of(o.cls, disposition::eager),
                 detail::trace_now_ns() - o.issue_ns);
}

/// Record a deferred completion of the op being issued, if any (the
/// enqueue-time variant; closures that fire later use op_capture).
inline void note_op_deferred_now() noexcept {
  const detail::op_ctx& o = detail::tls_op();
  if (o.active)
    note_latency(stream_of(o.cls, disposition::deferred),
                 detail::trace_now_ns() - o.issue_ns);
}

/// Progress-engine heartbeat: records the inter-arrival gap since this
/// thread's previous progress() entry (the starvation signal) and feeds
/// the stall watchdog.
inline void note_progress_tick() noexcept {
  const std::uint64_t now = detail::trace_now_ns();
  static thread_local std::uint64_t last = 0;
  if (last != 0 && now > last)
    note_latency(lat_stream::progress_gap, now - last);
  last = now;
  watchdog::note_progress(now);
}

#else  // !ASPEN_TELEMETRY_ENABLED

class op_scope {
 public:
  explicit op_scope(op_class) noexcept {}
  op_scope(const op_scope&) = delete;
  op_scope& operator=(const op_scope&) = delete;
};

static_assert(sizeof(op_scope) == 1,
              "with ASPEN_TELEMETRY off op scopes must carry no state");

struct op_capture {
  op_capture() noexcept = default;
  void complete_deferred() const noexcept {}
  [[nodiscard]] std::uint64_t track() const noexcept { return 0; }
};

inline void note_op_eager() noexcept {}
inline void note_op_deferred_now() noexcept {}
inline void note_progress_tick() noexcept {}

#endif

/// Is the subsystem compiled in? (Runtime-queryable mirror of the macro.)
[[nodiscard]] constexpr bool compiled_in() noexcept {
  return ASPEN_TELEMETRY_ENABLED != 0;
}

}  // namespace aspen::telemetry
