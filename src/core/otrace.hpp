// aspen::otrace — sampled per-operation distributed tracing plus an
// always-on flight recorder.
//
// The counter plane says how many completions took each path and the
// latency plane says how long each path took in aggregate; neither can
// answer "why was *this* operation slow". otrace closes that gap: at
// injection each RMA/RPC/AMO draws a deterministic per-rank sample decision
// (ASPEN_TRACE_SAMPLE=N samples 1-in-N; "1/N" is accepted too; 0/unset is
// off). A sampled op gets a 64-bit trace id
//
//   id = (rank << 48) | local_seq
//
// carried across its entire causal chain: the AM record (wire protocol v6:
// an optional trace word after the record header, present only when
// sampled) in eager frames, shm ring records and aggregation batches, the
// RTS->CTS->DATA rendezvous legs (in the RTS record, then keyed by the
// message seq), remote handler execution (reply AMs inherit the
// id through the execute() scope), and the final cx_state fulfillment —
// eager-inline or deferred through an op_record, including the cross-persona
// LPC hop.
//
// The draw happens in telemetry::op_scope, the one per-op context: the
// thread's current trace id is the `trace` field of the same thread-local
// op record that carries the op's class and, for an op timed by the
// latency streams' sampler, its issue time (telemetry.hpp). current(),
// set_current() and scope read and write that field, a sampled op's inject
// record reuses the issue stamp when the op is timed, and a completion's
// fulfill_eager / fulfill_deferred record shares one clock read with its
// latency sample (telemetry::fulfill_eager, op_capture::fulfill_deferred).
// The scope gates the draw inline on telemetry::detail::g_trace_gate, a
// relaxed mirror of sample_n() that configuration keeps current (all ones
// until the first parse): with sampling off an op makes no call, and with
// it armed the decision stream is exactly the one begin_op() draws.
//
// Every hop appends one fixed-size stage record to a process-global
// lock-free ring (ASPEN_TRACE_RING_BYTES, default 1 MiB). The ring is the
// flight recorder: it is never drained during the run, so at any instant it
// holds the most recent stage records — a black box. Two files per rank
// read it, under <base> = telemetry::artifact_base() (ASPEN_TELEMETRY_TRACE,
// default "aspen"):
//   - the dump, "<base>.rank<R>.flight.json": one file per stall or signal.
//     A watchdog trip or SIGUSR1 writes a "health" object followed by the
//     ring's records (records empty while sampling is off); SIGUSR2 and the
//     SIGSEGV/SIGABRT hooks write the records alone from an
//     async-signal-safe writer (open/write only);
//   - the export, "<base>.rank<R>.otrace.json": at region exit the
//     conduit::tcp endpoint writes the same records as Perfetto spans with
//     flow events chaining every cross-rank hop (merge the per-rank files
//     with bench::merge_rank_otraces).
// The names differ so a region-exit export never overwrites a dump taken
// mid-region. Timestamps are absolute steady-clock nanoseconds corrected by
// the bootstrap clock-sync offset (telemetry::set_clock_sync), so all ranks
// of one job land on a single monotone timeline.
//
// otrace is the runtime's only timeline: an op's interval is the edge from
// its inject record to its fulfill_eager or fulfill_deferred record.
//
// With ASPEN_TELEMETRY compiled out the whole subsystem compiles to
// nothing: ids are always 0, scopes and notes are empty inlines, and the
// ring is never allocated. Records then simply omit the trace word, which
// every decoder accepts, so ON and OFF builds interoperate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/telemetry.hpp"

namespace aspen::otrace {

// ---------------------------------------------------------------------------
// Stage taxonomy — one record per hop of a sampled op's causal chain
// ---------------------------------------------------------------------------

enum class stage : std::uint16_t {
  inject = 1,        ///< op sampled at its injection site (rma/rpc/amo entry)
  am_send,           ///< AM handed to the substrate's send path
  wire_eager,        ///< eager frame queued onto a peer socket
  wire_rts,          ///< rendezvous RTS queued (initiator)
  wire_cts,          ///< RTS processed, CTS queued (target)
  wire_data,         ///< CTS processed, DATA queued (initiator)
  shm_push,          ///< record pushed onto a shared-memory ring
  agg_stage,         ///< frame staged into an aggregation batch
  wire_deliver,      ///< staged AM released in-order to the substrate
  handler_run,       ///< AM handler executed on the target
  lpc_hop,           ///< completion routed cross-persona via LPC
  fulfill_eager,     ///< completion delivered inline at the injection site
  fulfill_deferred,  ///< completion fired through the progress engine
};

/// Stable snake_case stage name (Perfetto slice name / JSON key).
[[nodiscard]] const char* to_string(stage s) noexcept;

/// One decoded flight-recorder record (test/export view of a ring slot).
struct record_view {
  std::uint64_t trace = 0;  ///< trace id, (rank << 48) | seq
  std::uint64_t t_ns = 0;   ///< absolute steady ns, rank-0-normalized
  std::uint64_t aux = 0;    ///< stage-specific (wire edge id; see below)
  stage st = stage::inject;
  std::int16_t rank = -1;   ///< recording rank
  std::uint16_t tag = 0;    ///< recording thread tag (persona/thread)
};

/// The per-rank flight-recorder dump: "<base>.rank<R>.flight.json".
[[nodiscard]] std::string dump_path(const std::string& base, int rank);

/// The per-rank region-exit Perfetto export: "<base>.rank<R>.otrace.json".
[[nodiscard]] std::string export_path(const std::string& base, int rank);

/// Salts XORed onto a rendezvous message's wire edge id so the RTS, CTS and
/// DATA legs bind as three distinct Perfetto flows even though RTS and DATA
/// share one (src, dst, seq). Senders record aux = edge id pre-salted for
/// the *delivery*-bearing stages (wire_eager/shm_push/agg_stage/
/// wire_deliver use aux as-is); the exporter applies the rts/cts salts to
/// the mid-chain stages on both ends.
inline constexpr std::uint64_t kEdgeSaltData = 0x9E3779B97F4A7C15ull;
inline constexpr std::uint64_t kEdgeSaltRts = 0xC2B2AE3D27D4EB4Full;
inline constexpr std::uint64_t kEdgeSaltCts = 0x165667B19E3779F9ull;

#if ASPEN_TELEMETRY_ENABLED

// ---------------------------------------------------------------------------
// Configuration and sampling
// ---------------------------------------------------------------------------

/// Explicit (re)configuration — overrides ASPEN_TRACE_SAMPLE /
/// ASPEN_TRACE_RING_BYTES / the dump and export base; sample_n == 0
/// disables sampling (the base still names watchdog dumps). Used by tests;
/// the environment is parsed lazily on first use otherwise.
void configure(std::uint32_t sample_n, std::uint64_t ring_bytes,
               const char* base) noexcept;

/// sample_n() != 0.
[[nodiscard]] bool enabled() noexcept;
[[nodiscard]] std::uint32_t sample_n() noexcept;

/// Ring capacity in records (rounded down to a power of two).
[[nodiscard]] std::uint64_t ring_capacity() noexcept;

/// The configured dump and export base name (telemetry::artifact_base()
/// unless configure() named one). Stable storage once configured.
[[nodiscard]] const char* dump_base() noexcept;

/// Tag the calling thread with its rank (forwarded from
/// telemetry::set_thread_rank). Seeds this thread's decision stream: the
/// sequence of sample decisions drawn after set_thread_rank(r) is a pure
/// function of r, so runs replay identically.
void set_thread_rank(int rank) noexcept;

/// Reset the calling thread's decision stream to its seed (tests).
void reset_sampling() noexcept;

/// Draw the injection-site sample decision. Returns a fresh trace id, or 0
/// when unsampled/disabled. Counts counter::otrace_sampled on a hit.
[[nodiscard]] std::uint64_t begin_op() noexcept;

// ---------------------------------------------------------------------------
// The current trace and stage recording (the flight recorder ring)
// ---------------------------------------------------------------------------

/// The trace id active on this thread (0 none): the op record's field.
[[nodiscard]] inline std::uint64_t current() noexcept {
  return telemetry::detail::tls_op().trace;
}
inline void set_current(std::uint64_t id) noexcept {
  telemetry::detail::tls_op().trace = id;
}

/// Append a stage record for an explicit trace id (no-op when 0). Used
/// where the id was captured earlier — op_records, wire decode paths.
void note_id(std::uint64_t id, stage st, std::uint64_t aux = 0) noexcept;

/// Append a stage record for the active trace (no-op when none).
inline void note(stage st, std::uint64_t aux = 0) noexcept {
  if (const std::uint64_t id = current(); id != 0) note_id(id, st, aux);
}

/// RAII: set the active trace id, restore the previous on exit. Used by
/// am_message::execute so every AM handler (and any reply it sends) runs
/// under its message's trace.
class scope {
 public:
  explicit scope(std::uint64_t id) noexcept : saved_(current()) {
    set_current(id);
  }
  ~scope() { set_current(saved_); }
  scope(const scope&) = delete;
  scope& operator=(const scope&) = delete;

 private:
  std::uint64_t saved_;
};

// ---------------------------------------------------------------------------
// Dump / export
// ---------------------------------------------------------------------------

/// Install the SIGUSR2 dump handler plus SIGSEGV/SIGABRT black-box hooks
/// (crash handlers chain to the previous disposition). Idempotent; no-op
/// while disabled.
void install_crash_handlers() noexcept;

/// Write dump_path(dump_base(), rank) from a safe (non-signal) context:
/// `health_json`, a JSON object, as the "health" member, then the ring's
/// records (none while sampling is off). The watchdog's stall report.
/// Returns the path written, or "" if it cannot be opened.
std::string dump_now(int rank, const std::string& health_json);

/// Async-signal-safe dump (open/write only) of the ring alone, for the
/// first rank this process saw; the SIGUSR2/SIGSEGV/SIGABRT handler body.
/// Writes nothing while sampling is off. Exposed for tests.
void dump_signal_safe() noexcept;

/// Export the ring as a Perfetto Trace Event JSON file: one 'X' slice per
/// stage record (pid = recording rank, tid = thread tag) plus 's'/'f' flow
/// events binding every cross-rank hop. Returns false if the file cannot
/// be opened. Called by the endpoint at region exit.
bool export_json(const std::string& path, int rank);

/// Decode every committed ring slot, oldest first (tests and the
/// exporters).
[[nodiscard]] std::vector<record_view> snapshot_records();

/// Discard all recorded stages (tests; between spmd regions).
void clear() noexcept;

/// Total records appended so far (dropped-by-wraparound = total - capacity
/// when total exceeds ring_capacity()).
[[nodiscard]] std::uint64_t records_appended() noexcept;

#else  // !ASPEN_TELEMETRY_ENABLED — otrace compiles out entirely.

inline void configure(std::uint32_t, std::uint64_t, const char*) noexcept {}
[[nodiscard]] inline bool enabled() noexcept { return false; }
[[nodiscard]] inline std::uint32_t sample_n() noexcept { return 0; }
[[nodiscard]] inline std::uint64_t ring_capacity() noexcept { return 0; }
[[nodiscard]] inline const char* dump_base() noexcept { return "aspen"; }
inline void set_thread_rank(int) noexcept {}
inline void reset_sampling() noexcept {}
[[nodiscard]] inline std::uint64_t begin_op() noexcept { return 0; }
[[nodiscard]] inline std::uint64_t current() noexcept { return 0; }
inline void set_current(std::uint64_t) noexcept {}

class scope {
 public:
  explicit scope(std::uint64_t) noexcept {}
  scope(const scope&) = delete;
  scope& operator=(const scope&) = delete;
};
static_assert(sizeof(scope) == 1,
              "with ASPEN_TELEMETRY off otrace scopes must carry no state");

inline void note(stage, std::uint64_t = 0) noexcept {}
inline void note_id(std::uint64_t, stage, std::uint64_t = 0) noexcept {}
inline void install_crash_handlers() noexcept {}
inline std::string dump_now(int, const std::string&) { return {}; }
inline void dump_signal_safe() noexcept {}
inline bool export_json(const std::string&, int) { return false; }
[[nodiscard]] inline std::vector<record_view> snapshot_records() {
  return {};
}
inline void clear() noexcept {}
[[nodiscard]] inline std::uint64_t records_appended() noexcept { return 0; }

#endif  // ASPEN_TELEMETRY_ENABLED

}  // namespace aspen::otrace
