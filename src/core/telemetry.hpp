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
//   - counters live in a per-thread `record` of cache-line-padded atomic
//     words. Only the owning thread writes its record, so an update is a
//     relaxed load plus a relaxed store (no lock-prefixed add, no CAS);
//     concurrent snapshot readers still see whole monotone words, and the
//     padding keeps them from false-sharing the writer;
//   - records register themselves in a process-global registry on first
//     use and merge into a retired aggregate at thread exit, so
//     telemetry::aggregate() works both during and after an spmd() run;
//   - telemetry::snapshot is a plain value type with operator- for
//     interval deltas, merge_into() for cross-rank folds, and to_json()
//     for the figure drivers' report files;
//   - one per-op context: op_scope fills a thread-local op record {issue
//     time, otrace id, op word (class, timed bit)} at every rput, rget and
//     atomic (rpc and rpc_ff open it without a class). The latency streams
//     are sampled: a per-thread countdown times one op in kLatSamplePeriod
//     (odd), and only a timed op reads the clock, at issue and at
//     completion. The completion engine reads the record at each eager
//     site (fulfill_eager) and copies it into deferred closures and remote
//     op records (op_capture), so one call per notification records both
//     its latency sample (timed ops) and its otrace fulfill stage (sampled
//     ops) on one clock read. aspen::otrace (core/otrace.hpp) keeps the
//     sampler and the flight-recorder ring; its current trace id is the
//     record's field, and op_scope calls the sampler only while an inline
//     mirror of its rate says tracing may be armed.
//
// The whole subsystem sits behind the ASPEN_TELEMETRY CMake option. When
// the option is OFF every count()/note_*() call, op_scope, op_capture and
// fulfill_eager compiles to nothing, `record` is an empty type and op_scope
// has size 1 (verified by static_asserts below), and snapshots read as
// all-zero.
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
  net_msgs_staged,     ///< of those, AMs that arrived behind a seq gap and
                       ///< waited in the staged map
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
  shm_wakeups,         ///< ring pushes that found the consumer parked and
                       ///< wrote its doorbell eventfd

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
  /// invariant the figure drivers' reports assert: every item lands in
  /// exactly one disposition bucket.
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
/// histogram, the monotone progress-queue sums and the latency buckets
/// add; high-water marks and latency max_ns take the max (a depth in one
/// process says nothing about another's). The live wire aggregation
/// (telemetry::live) folds with this one definition.
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

/// Every record word has one writer, the thread that owns the record, so
/// an update is a relaxed load plus a relaxed store: no lock-prefixed add,
/// no CAS loop. Concurrent readers (aggregate()) still see whole monotone
/// words.
inline void bump(std::atomic<std::uint64_t>& w, std::uint64_t n) noexcept {
  w.store(w.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}
inline void raise(std::atomic<std::uint64_t>& w, std::uint64_t v) noexcept {
  if (v > w.load(std::memory_order_relaxed))
    w.store(v, std::memory_order_relaxed);
}

/// Per-stream latency storage. Unpadded (13 streams x 65 words would be
/// 54 KiB/thread padded): buckets on one stream are written by the owning
/// thread only, and a reader tearing across bucket lines still sees each
/// monotone word exactly.
struct lat_cell {
  std::array<std::atomic<std::uint64_t>, kLatBuckets> buckets{};
  std::atomic<std::uint64_t> max_ns{0};
};

/// A thread's counters. Only the owning thread writes it: every count and
/// note_* call below goes through tls_record(), including a persona
/// mailbox's depth, which its producer records in its own record.
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
    bump(sums[static_cast<std::size_t>(c)].v, n);
  }
  void note_lat(lat_stream s, std::uint64_t ns) noexcept {
    lat_cell& c = lat[static_cast<std::size_t>(s)];
    bump(c.buckets[lat_bucket(ns)], 1);
    raise(c.max_ns, ns);
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
  detail::bump(r.pq_hist[pq_batch_bucket(batch)].v, 1);
  detail::bump(r.pq_total_fired.v, batch);
#else
  (void)batch;
#endif
}

/// Record the pending depth after a push (tracks the high-water mark).
inline void note_pq_depth(std::size_t depth) noexcept {
#if ASPEN_TELEMETRY_ENABLED
  detail::raise(detail::tls_record().pq_high_water.v, depth);
#else
  (void)depth;
#endif
}

/// Record the depth of a persona LPC mailbox after an enqueue (tracks the
/// high-water mark). Callable from any producer thread: each producer
/// raises its own record's mark, and aggregate() takes the max.
inline void note_lpc_mailbox_depth(std::size_t depth) noexcept {
#if ASPEN_TELEMETRY_ENABLED
  detail::raise(detail::tls_record().lpc_mailbox_high_water.v, depth);
#else
  (void)depth;
#endif
}

/// Record one capacity growth of a progress-queue vector.
inline void note_pq_reserve_growth() noexcept {
#if ASPEN_TELEMETRY_ENABLED
  detail::bump(detail::tls_record().pq_reserve_growths.v, 1);
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

/// The base path of every per-rank diagnostic file (otrace's region-exit
/// export and its flight-recorder dump, which the watchdog writes too):
/// ASPEN_TELEMETRY_TRACE, else "aspen". otrace::configure overrides it
/// in-process.
[[nodiscard]] const char* artifact_base() noexcept;

// ---------------------------------------------------------------------------
// The per-op record: one context for the latency streams and otrace
// ---------------------------------------------------------------------------

/// The latency streams' sampling period: of any kLatSamplePeriod
/// consecutive sample-eligible ops on one thread (rput, rget, the atomics,
/// rpc, when_all), exactly one is timed and records its issue->completion
/// sample, so a histogram's total counts samples, not ops. The progress
/// tick samples one pair of consecutive ticks per period. A fixed
/// constant, not a knob. Odd on purpose: an even period aliases with an
/// op mix that alternates two kinds (eager/deferred, local/remote) and
/// would put every sample on one of them.
inline constexpr std::uint32_t kLatSamplePeriod = 61;
static_assert(kLatSamplePeriod % 2 == 1,
              "an even sampling period aliases with alternating op mixes");

#if ASPEN_TELEMETRY_ENABLED

namespace detail {

/// The one clock of the op record, the latency streams, the watchdog and
/// otrace's stage records: absolute steady-clock nanoseconds.
[[nodiscard]] inline std::uint64_t trace_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The op being issued on this thread (op_scope below). The completion
/// engine (cx_state.hpp) reads it at every disposition site, so a
/// notification's latency sample and otrace record need no class, time or
/// id parameter threaded through every handle_sync/handle_async overload.
/// otrace::current() is its `trace` field.
struct op_ctx {
  std::uint64_t issue_ns = 0;  ///< issue time, valid while timed()
  std::uint64_t trace = 0;     ///< otrace id (0 = unsampled)
  /// The op of the open classed op_scope: 0 when none is open, else
  /// kOpActive | [kOpTimed] | class. A whole word like the other two
  /// fields, so the scope's save, restore and op_capture's copy move
  /// whole words and a read right after a write always store-forwards.
  std::uint64_t op = 0;

  static constexpr std::uint64_t kOpActive = std::uint64_t{1} << 8;
  static constexpr std::uint64_t kOpTimed = std::uint64_t{1} << 9;
  static_assert(kOpClassCount <= 0xff, "the class must fit the low byte");

  [[nodiscard]] static constexpr std::uint64_t word(op_class c,
                                                    bool timed) noexcept {
    return kOpActive | (timed ? kOpTimed : 0) | static_cast<std::uint64_t>(c);
  }
  [[nodiscard]] bool active() const noexcept { return op != 0; }
  /// Drawn for a latency sample.
  [[nodiscard]] bool timed() const noexcept { return (op & kOpTimed) != 0; }
  [[nodiscard]] op_class cls() const noexcept {
    return static_cast<op_class>(op & 0xff);
  }
};

/// Everything the per-op instrumentation keeps per thread: the op record
/// and the two sampling countdowns. Constant-initialized and trivially
/// destructible, so an access is a plain TLS load with no init guard.
struct thread_ctx {
  op_ctx op;
  std::uint32_t op_countdown = 1;    ///< ops until the next timed one
  std::uint32_t tick_countdown = 1;  ///< ticks until the next gap pair
  std::uint64_t tick_open_ns = 0;    ///< first tick of an open pair (0 none)
};

[[nodiscard]] inline thread_ctx& tls_ctx() noexcept {
  static thread_local thread_ctx t;
  return t;
}

[[nodiscard]] inline op_ctx& tls_op() noexcept { return tls_ctx().op; }

/// Draw the thread's 1-in-kLatSamplePeriod latency countdown: true for the
/// one op of each period that is timed.
[[nodiscard]] inline bool draw_timed() noexcept {
  thread_ctx& t = tls_ctx();
  if (--t.op_countdown != 0) return false;
  t.op_countdown = kLatSamplePeriod;
  return true;
}

/// otrace's sampling mirror: otrace.cpp stores sample_n here once it is
/// configured; all ones before that, so the first op calls out and the
/// environment is parsed. op_scope calls trace_begin only while it is
/// nonzero, so with sampling off an op pays one relaxed load.
inline std::atomic<std::uint32_t> g_trace_gate{~std::uint32_t{0}};

/// otrace's side of the record, defined in otrace.cpp next to its sampler
/// and ring. trace_begin draws the sample decision and, on a hit, appends
/// the inject record stamped `issue_ns` (0: read the clock) and returns
/// the new trace id; 0 when unsampled. trace_fulfill appends the
/// fulfill_eager or fulfill_deferred record of `id` stamped `now_ns`.
[[nodiscard]] std::uint64_t trace_begin(std::uint64_t issue_ns) noexcept;
void trace_fulfill(std::uint64_t id, disposition d,
                   std::uint64_t now_ns) noexcept;

/// Draw otrace's sample decision for `o` unless a trace is already active
/// or the gate says sampling is off.
inline void begin_trace(op_ctx& o, std::uint64_t issue_ns) noexcept {
  if (g_trace_gate.load(std::memory_order_relaxed) != 0 && o.trace == 0)
    o.trace = trace_begin(issue_ns);
}

/// A notification of `o` fired: one clock read serves its latency sample
/// (timed ops only) and its otrace record (sampled ops only).
inline void note_fulfilled(const op_ctx& o, disposition d) noexcept {
  if (!o.timed() && o.trace == 0) return;
  const std::uint64_t now = trace_now_ns();
  if (o.timed()) note_latency(stream_of(o.cls(), d), now - o.issue_ns);
  if (o.trace != 0) trace_fulfill(o.trace, d, now);
}

}  // namespace detail

/// The issue stamp of an op timed outside op_scope: rpc's echoed request
/// stamp and when_all's. Draws the same countdown as op_scope and returns
/// the clock for a timed op, else 0, which note_latency_since skips. The
/// rpc request always carries the word (0 when compiled out), so its
/// layout is build-independent.
[[nodiscard]] inline std::uint64_t sampled_issue_ns() noexcept {
  return detail::draw_timed() ? detail::trace_now_ns() : 0;
}

/// Record now - `issue_ns` on `s` unless the op was untimed (`issue_ns`
/// 0).
inline void note_latency_since(lat_stream s, std::uint64_t issue_ns) noexcept {
  if (issue_ns != 0) note_latency(s, detail::trace_now_ns() - issue_ns);
}

/// RAII op-issue marker: the one per-op context. Nests (saves and restores
/// the enclosing record), and draws a sample decision only when no trace
/// is active, so an op issued from inside a sampled op's handler or
/// completion stays on the enclosing trace.
class op_scope {
 public:
  /// rput, rget and the atomics: draws the latency countdown and, for a
  /// timed op, stamps the issue time once. Every notification of a timed
  /// op records now - issue_ns on the stream for (cls, disposition), and a
  /// sampled op's inject record reuses the stamp.
  explicit op_scope(op_class cls) noexcept : saved_(detail::tls_op()) {
    detail::op_ctx& o = detail::tls_op();
    const bool timed = detail::draw_timed();
    o.op = detail::op_ctx::word(cls, timed);
    if (timed) o.issue_ns = detail::trace_now_ns();
    detail::begin_trace(o, timed ? o.issue_ns : 0);
  }
  /// rpc and rpc_ff: no latency stream through this record (rpc echoes
  /// its own sampled_issue_ns stamp), so no draw and no clock read unless
  /// traced.
  op_scope() noexcept : saved_(detail::tls_op()) {
    detail::begin_trace(detail::tls_op(), 0);
  }
  ~op_scope() { detail::tls_op() = saved_; }
  op_scope(const op_scope&) = delete;
  op_scope& operator=(const op_scope&) = delete;

 private:
  detail::op_ctx saved_;
};

/// The issuing op's record, captured into deferred-completion closures and
/// op_records at injection and consumed when the notification finally
/// fires (possibly on another thread — the record written is the firing
/// thread's, which aggregate() sums anyway).
struct op_capture : detail::op_ctx {
  op_capture() noexcept : detail::op_ctx(detail::tls_op()) {}

  /// The deferred notification fires: latency sample (timed ops) and
  /// fulfill_deferred (sampled ops).
  void fulfill_deferred() const noexcept {
    detail::note_fulfilled(*this, disposition::deferred);
  }

  /// Register the captured op with the stall watchdog (0 when untracked:
  /// watchdog disabled, or no classed op_scope was active at capture).
  [[nodiscard]] std::uint64_t track() const noexcept {
    return active() ? watchdog::track_op(cls()) : 0;
  }
};

/// An eager (inline) completion of the op being issued: counts
/// cx_eager_taken, records its latency sample and its fulfill_eager.
inline void fulfill_eager() noexcept {
  count(counter::cx_eager_taken);
  detail::note_fulfilled(detail::tls_op(), disposition::eager);
}

/// Progress-engine heartbeat. The progress_gap stream (the starvation
/// signal) records the gap of one pair of consecutive ticks per
/// kLatSamplePeriod, so an unsampled tick reads no clock; while the stall
/// watchdog may be armed every tick reads it and feeds the watchdog.
inline void note_progress_tick() noexcept {
  detail::thread_ctx& t = detail::tls_ctx();
  std::uint64_t now = 0;
  if (t.tick_open_ns != 0) {  // second tick of a sampled pair
    now = detail::trace_now_ns();
    if (now > t.tick_open_ns)
      note_latency(lat_stream::progress_gap, now - t.tick_open_ns);
    t.tick_open_ns = 0;
  } else if (--t.tick_countdown == 0) {  // first tick of a sampled pair
    t.tick_countdown = kLatSamplePeriod;
    now = detail::trace_now_ns();
    t.tick_open_ns = now;
  }
  if (watchdog::may_be_armed())
    watchdog::note_progress(now != 0 ? now : detail::trace_now_ns());
}

#else  // !ASPEN_TELEMETRY_ENABLED

[[nodiscard]] inline std::uint64_t sampled_issue_ns() noexcept { return 0; }
inline void note_latency_since(lat_stream, std::uint64_t) noexcept {}

/// User-provided constructors: an unused scope local never warns.
class op_scope {
 public:
  explicit op_scope(op_class) noexcept {}
  op_scope() noexcept {}
  op_scope(const op_scope&) = delete;
  op_scope& operator=(const op_scope&) = delete;
};

static_assert(sizeof(op_scope) == 1,
              "with ASPEN_TELEMETRY off op scopes must carry no state");

struct op_capture {
  static constexpr std::uint64_t trace = 0;
  void fulfill_deferred() const noexcept {}
  [[nodiscard]] std::uint64_t track() const noexcept { return 0; }
};

inline void fulfill_eager() noexcept {}
inline void note_progress_tick() noexcept {}

#endif

/// Is the subsystem compiled in? (Runtime-queryable mirror of the macro.)
[[nodiscard]] constexpr bool compiled_in() noexcept {
  return ASPEN_TELEMETRY_ENABLED != 0;
}

}  // namespace aspen::telemetry
