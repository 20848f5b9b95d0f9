// aspen::telemetry::live — the wire-native telemetry plane for
// multi-process (conduit::tcp) jobs.
//
// Under `aspen-run` every rank is its own process, so telemetry::aggregate()
// only sees one rank. This header is the one path by which counters leave
// a process: non-zero ranks periodically ship a sparse delta-encoded
// snapshot of their process totals (plus instantaneous transport gauges,
// live::gauges in telemetry_lat.hpp) to rank 0 inside a `telemetry` wire
// frame, and rank 0 folds them into a job-wide aggregate queryable at any
// time via job_snapshot().
//
// Delta/merge semantics are chosen so the live aggregate is *bit-identical*
// to telemetry::merge_into over every rank's frozen region-exit totals:
//   - each rank's update carries aggregate() - <previously shipped>, so the
//     sum of a rank's deltas is exactly its absolute process totals;
//   - high-water fields are not differenced (snapshot::operator- keeps the
//     minuend); they travel as absolutes and merge by max (the collector
//     folds with telemetry::merge_into);
//   - at region exit every rank flushes one final frame whose capture
//     freezes its shipped total (shipped_total()); the frozen totals are
//     what bit-identity tests compare against, so counters ticked *after*
//     the capture (e.g. the bytes of the final frame itself) stay out of
//     the comparison on both sides.
//
// The plane is off by default and costs nothing when disabled: no frames
// are emitted unless ASPEN_TELEMETRY_INTERVAL_MS is a positive integer
// (asserted by the net_telemetry_sent/received counters staying zero).
// With ASPEN_TELEMETRY compiled out the codec still exists (it ships
// all-zero snapshots), so OFF builds run unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/telemetry.hpp"

namespace aspen::telemetry::live {

/// Flat field space of the update codec: every counter, every
/// progress-queue histogram bucket, the four scalar snapshot fields
/// (pq_high_water, pq_reserve_growths, pq_total_fired,
/// lpc_mailbox_high_water), then per latency stream its 64 buckets
/// followed by max_ns. Latency buckets delta-encode like counters;
/// each max_ns travels absolute and merges by max, exactly like
/// pq_high_water — so the sparse nonzero encoding stays correct for both.
inline constexpr std::size_t kLatFieldBase =
    kCounterCount + kPqBatchBuckets + 4;
inline constexpr std::size_t kFieldCount =
    kLatFieldBase + kLatStreamCount * (kLatBuckets + 1);

// ---------------------------------------------------------------------------
// Wire codec (the `telemetry` frame payload)
// ---------------------------------------------------------------------------

/// Append the update payload to `out`: a varint count of non-zero fields,
/// that many (varint index, varint value) pairs with strictly increasing
/// indexes, then the five gauge varints.
void encode_update(const snapshot& delta, const gauges& g,
                   std::vector<std::byte>& out);

/// Decode an update payload. Strict: rejects unknown/non-increasing field
/// indexes, truncation, and trailing bytes. Either out-param may be null.
[[nodiscard]] bool decode_update(const void* data, std::size_t len,
                                 snapshot* delta, gauges* g);

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// ASPEN_TELEMETRY_INTERVAL_MS, parsed once and clamped to [0, 3600000].
/// 0 (or unset/unparsable) disables the telemetry plane entirely.
[[nodiscard]] std::uint32_t interval_ms() noexcept;

/// interval_ms() != 0.
[[nodiscard]] bool enabled() noexcept;

// ---------------------------------------------------------------------------
// Producer side (every rank; conduit::tcp pushes these over the wire)
// ---------------------------------------------------------------------------

/// aggregate() minus the previously shipped total; advances the shipped
/// total to the current aggregate. The first call ships absolute totals.
[[nodiscard]] snapshot take_update_delta();

/// aggregate() captured as the new shipped total, returned whole. Rank 0
/// uses this to freeze its own contribution at region exit.
[[nodiscard]] snapshot capture_total();

/// The cumulative totals as of the last take_update_delta()/capture_total()
/// — after the region-exit final flush, this rank's frozen final. Tests
/// compare the job aggregate against these, never against a fresh
/// aggregate(), to keep the bit-identity contract.
[[nodiscard]] snapshot shipped_total();

// ---------------------------------------------------------------------------
// Collector side (rank 0)
// ---------------------------------------------------------------------------

/// (Re)initialize the collector for an `nranks`-rank job. Idempotent per
/// size; called by the endpoint constructor on rank 0.
void collector_reset(int nranks);

/// Fold one received update into `rank`'s slot (merge_into for the delta,
/// overwrite for the gauges). `final_flush` marks a region-exit frame and
/// advances the epoch's final count.
void collector_accumulate(int rank, const snapshot& delta, const gauges& g,
                          bool final_flush);

/// Overwrite rank 0's own slot with its frozen total (absolute, not a
/// delta) and current gauges.
void collector_note_local(const snapshot& total, const gauges& g);

/// Final-flush frames seen in the current region epoch.
[[nodiscard]] int collector_finals();

/// Reset the final count for the next region (per-stream FIFO ordering
/// guarantees no region N+1 final can arrive before every region N final
/// was consumed).
void collector_begin_epoch();

/// The job-wide aggregate: merge_into over every rank's accumulated total.
/// Non-zero ranks' slots refresh with each received update; rank 0's own
/// slot refreshes at region boundaries (collector_note_local).
[[nodiscard]] snapshot job_snapshot();

/// Per-rank breakdown accessors (rank 0 only; zeros for unknown ranks).
[[nodiscard]] snapshot rank_snapshot(int rank);
[[nodiscard]] gauges rank_gauges(int rank);
[[nodiscard]] std::uint64_t rank_updates(int rank);

}  // namespace aspen::telemetry::live
