// Benchmark-side helpers for aspen::telemetry: a human-readable counter
// table and the JSON sidecar files the figure drivers emit next to their
// console output.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/telemetry.hpp"

namespace aspen::bench {

/// Print the non-zero counters, the completion-disposition breakdown and
/// the progress-queue stats as an aligned table. Prints a one-line notice
/// instead when the build has ASPEN_TELEMETRY off.
void print_telemetry_summary(std::ostream& os,
                             const telemetry::snapshot& snap);

/// Write `{"bench": <name>, "telemetry": <snapshot JSON>}` to `path`.
/// Returns false (without throwing) if the file cannot be opened.
bool write_telemetry_sidecar(const std::string& path,
                             const std::string& bench_name,
                             const telemetry::snapshot& snap);

/// `{"eager": {"count": N, "p50_ns": N, "p99_ns": N, "max_ns": N},
/// "deferred": {...}}` — the op-class latency grid folded per disposition
/// (telemetry::snapshot::lat_by_disposition). Embedded in every sidecar and
/// printed by the figure drivers: the paper's headline contrast as numbers.
[[nodiscard]] std::string disposition_latency_json(
    const telemetry::snapshot& snap);

/// telemetry::aggregate(), re-read until two consecutive folds agree: a
/// tear-free snapshot while other threads are still ticking counters.
/// Single-threaded callers pay one extra fold; callers racing injector
/// threads (the --threads benches) get logically-consistent totals.
[[nodiscard]] telemetry::snapshot stable_aggregate();

// ---------------------------------------------------------------------------
// Cross-process aggregation (conduit::tcp jobs).
//
// Under `aspen-run` every rank is its own process, so there is no shared
// telemetry registry to aggregate() over: each rank writes its own sidecar
// (`rank_sidecar_path`) and the driver — the launcher's parent or rank 0 —
// reads them back and merges. Counters and monotone sums add across ranks;
// high-water marks take the max (a queue depth in one process says nothing
// about another's).
// ---------------------------------------------------------------------------

/// "<base>.rank<r>.telemetry.json" — the per-rank sidecar naming scheme.
[[nodiscard]] std::string rank_sidecar_path(const std::string& base, int rank);

/// Parse a sidecar written by write_telemetry_sidecar back into a snapshot.
/// Tolerant of unknown counter names (skipped) so sidecars from slightly
/// older builds still merge. Either out-param may be null. Returns false on
/// open failure or if the file does not look like a telemetry sidecar.
bool read_telemetry_sidecar(const std::string& path, std::string* bench_name,
                            telemetry::snapshot* out);

/// Merge per-rank snapshots of one job: counters, the progress-queue sums
/// and the fire histogram add; high-water marks take the elementwise max.
[[nodiscard]] telemetry::snapshot merge_snapshots(
    const std::vector<telemetry::snapshot>& parts);

/// Read and merge `rank_sidecar_path(base, r)` for r in [0, nranks) into
/// `*out`. Returns the number of sidecars successfully read; missing or
/// malformed files are skipped (a crashed rank should not hide the rest).
int merge_rank_sidecars(const std::string& base, int nranks,
                        telemetry::snapshot* out);

// ---------------------------------------------------------------------------
// Live aggregation (no sidecars) and multi-rank timelines.
//
// With ASPEN_TELEMETRY_INTERVAL_MS set, every non-zero rank streams counter
// deltas to rank 0 over the wire (frame_kind::telemetry) and rank 0 holds
// the job-wide merge in memory — telemetry::live::job_snapshot(). These
// helpers render that aggregate and stitch the per-rank otrace exports
// written at region exit while ASPEN_TRACE_SAMPLE is set.
// ---------------------------------------------------------------------------

/// Print rank 0's live job-wide aggregate: the merged counter table plus a
/// per-rank breakdown (update counts and transport gauges). Call on rank 0
/// after a region ends; prints a notice when live telemetry is disabled.
void print_live_telemetry_report(std::ostream& os);

/// Stitch the per-rank otrace exports `otrace::dump_path(base, r)` for r
/// in [0, nranks) (region-exit Perfetto fragments with 's'/'f' flow events
/// per wire hop) into one Perfetto-loadable JSON at `out_path`. Records keep
/// their offset-corrected timestamps, so stages and flow arrows from
/// different ranks land on one aligned time axis. Returns the number of
/// rank files merged (missing files are skipped), or -1 if `out_path`
/// cannot be written.
int merge_rank_otraces(const std::string& base, int nranks,
                       const std::string& out_path);

}  // namespace aspen::bench
