// Environment-driven sizing for the figure-reproduction benchmarks, so the
// default `for b in build/bench/*; do $b; done` sweep finishes quickly while
// paper-scale runs remain one environment variable away.
//
//   ASPEN_BENCH_OPS     per-operation microbenchmark iteration count
//                       (paper: 10'000'000; default here: 1'000'000)
//   ASPEN_BENCH_RANKS   rank count for GUPS/matching (paper: 16;
//                       default: min(16, hardware_concurrency))
//   ASPEN_BENCH_SAMPLES measurement repetitions   (paper: 20; default: 5)
//   ASPEN_BENCH_KEEP    samples kept (best)       (paper: 10; default: 3)
//   ASPEN_BENCH_SCALE   workload scale multiplier for GUPS/matching
//                       (default 1; paper-comparable ~8-16)
//   ASPEN_BENCH_PERTURB non-zero adds a perturbed-conduit pass to the
//                       off-node benchmark (default 0)
//   ASPEN_BENCH_THREADS injector threads per rank for the multithreaded
//                       phases (run_workers; default 1 = classic
//                       single-threaded injection). Benchmarks that take a
//                       --threads N argument let it override this.
//
// Perturbed-conduit runs additionally honor the ASPEN_PERTURB_* family
// (read by gex::perturb::apply_env unless a program opts out via
// perturb_config::honor_env = false; see docs/PERTURB.md):
//   ASPEN_PERTURB_MODE             forced-sync | forced-async | delay-reorder
//                                  (preset applied first; knobs below win)
//   ASPEN_PERTURB_SEED             base seed, decimal or 0x-hex (replayable)
//   ASPEN_PERTURB_DELAY_PCT        % of messages assigned a delivery hold
//   ASPEN_PERTURB_MAX_HOLD         max polls a held message waits (>= 1)
//   ASPEN_PERTURB_REORDER          non-zero randomizes cross-source delivery
//   ASPEN_PERTURB_FORCED_ASYNC_PCT % of shareable-target RMA/atomics diverted
//                                  down the AM path
//   ASPEN_PERTURB_BACKPRESSURE     non-zero bounds inboxes at
//                                  config::am_inbox_capacity
//   ASPEN_PERTURB_SWEEP_SEEDS      seeds per mode in test_perturb_sweep
//                                  (test harness only; default 4)
//
// conduit::tcp (real-process) runs honor the ASPEN_NET_* family, read by
// net::apply_env unless net_config::honor_env is cleared (see docs/NET.md).
// ASPEN_NET_RANK / ASPEN_NET_NRANKS / ASPEN_NET_RDZV_PORT are reserved:
// they are the bootstrap contract set by `aspen-run` for its children and
// must never be set by hand.
//   ASPEN_NET_EAGER_MAX    largest AM payload sent inline in one eager
//                          frame; larger payloads use the RTS/CTS/DATA
//                          rendezvous (default 8 KiB; decimal or 0x-hex;
//                          clamped so the frame, its record of up to 40
//                          bytes included, fits ASPEN_NET_MAX_FRAME)
//   ASPEN_NET_MAX_FRAME    hard per-frame payload ceiling; a peer
//                          announcing more is a protocol violation
//                          (default 64 MiB)
//   ASPEN_NET_SEGMENT_BASE fixed virtual address where every rank process
//                          maps the segment arena (default 0x2a5e00000000)
//
// conduit::shm (same-host shared-memory fabric; see docs/SHM.md). The
// ASPEN_SHM_* family is read by the same net::apply_env pass:
//   ASPEN_SHM              zero disables the fabric entirely: conduit::shm
//                          jobs run pure-tcp with identical results — the
//                          degraded/fallback mode (default 1)
//   ASPEN_SHM_EAGER_MAX    largest AM payload carried inline in a msg-ring
//                          record; 0/unset inherits ASPEN_NET_EAGER_MAX,
//                          clamped to a quarter of the msg ring
//   ASPEN_SHM_RING_BYTES   per-directed-pair msg ring capacity, rounded to
//                          a power of two in [4 KiB, 256 MiB]
//                          (default 1 MiB)
//   ASPEN_SHM_BULK_BYTES   per-directed-pair bulk ring capacity, same
//                          rounding; payloads up to half of it stage
//                          through the bulk ring, larger ones fall back to
//                          the socket rendezvous (default 8 MiB)
//
// Wire aggregation fabric (see docs/AGG.md). Read by the same
// net::apply_env pass at every region entry:
//   ASPEN_AGG              non-zero arms per-peer coalescing: eager records
//                          batch per peer and ship as one socket frame (or
//                          one ring record on shm), flushed on the
//                          watermarks below (default 0 = off)
//   ASPEN_AGG_BYTES        byte watermark: flush once the open batch would
//                          exceed this many bytes; clamped so one maximal
//                          record always fits and a batch never exceeds
//                          ASPEN_NET_MAX_FRAME (default 64 KiB)
//   ASPEN_AGG_FRAMES       frame-count watermark: flush after this many
//                          coalesced frames (default 128, min 1)
//   ASPEN_AGG_FLUSH_US     age watermark in microseconds — the wall-clock
//                          backstop behind the progress-tick watermark (a
//                          batch that gains no frame across a pump tick
//                          flushes immediately; one an injector thread is
//                          still filling waits at most this long)
//                          (default 100)
//   ASPEN_NET_SENDQ_MAX    non-zero bounds each peer's send queue at this
//                          many bytes: injectors whose target queue is over
//                          the bound park in bounded flush-and-retry spins
//                          (counted by net_sendq_parked) instead of growing
//                          the queue without limit (default 0 = unbounded)
//
// Live cross-process telemetry (see docs/TELEMETRY.md):
//   ASPEN_TELEMETRY_INTERVAL_MS  non-zero ranks push delta-encoded counter
//                          updates to rank 0 every this-many ms, plus one
//                          final flush at region exit; rank 0 then serves
//                          the job-wide aggregate with no sidecar files
//                          (unset/0 = off; clamped to 1 h)
//   ASPEN_TELEMETRY_TRACE  base path <base> of every per-rank diagnostic
//                          file: otrace exports and dumps
//                          (<base>.rank<R>.otrace.json) and watchdog
//                          health reports (default "aspen")
//
// Stall watchdog and the aspen-top monitor (see docs/TELEMETRY.md):
//   ASPEN_WATCHDOG_MS      non-zero arms the stall watchdog: a rank whose
//                          oldest pending remote op, progress gap (with
//                          work pending), or send-queue drain exceeds this
//                          many ms dumps <base>.rank<R>.health.json once
//                          per stall episode (<base> from
//                          ASPEN_TELEMETRY_TRACE); SIGUSR1 forces a dump
//                          (unset/0 = off)
//   ASPEN_TOP_INTERVAL_MS  aspen-top refresh interval when --interval is
//                          not given (default 500, clamped to 1 min)
//   ASPEN_RUN              aspen-top: path to the aspen-run launcher
//                          (default: aspen-run next to the aspen-top binary)
//
// Operation tracing and the flight recorder (see docs/OTRACE.md):
//   ASPEN_TRACE_SAMPLE     "N" or "1/N": one injected op in N draws a
//                          job-unique trace id carried across the wire;
//                          every hop it touches lands in the flight
//                          recorder and the region-exit Perfetto export
//                          (unset/0 = off, the default; 1 = every op)
//   ASPEN_TRACE_RING_BYTES per-rank flight-recorder ring size in bytes,
//                          rounded down to a power-of-two slot count
//                          (default 1 MiB, clamped to [4 KiB, 1 GiB])
//   ASPEN_LOG              runtime diagnostic verbosity: error, warn,
//                          info (default), debug, or 0-3 — every line
//                          goes to stderr as "aspen[r<rank>] <level>: ..."
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace aspen::bench {

struct options {
  std::size_t micro_ops = 1'000'000;
  int ranks = 16;
  std::size_t samples = 5;
  std::size_t keep = 3;
  double scale = 1.0;
  /// Injector threads per rank (>= 1). Multithreaded phases spawn
  /// `threads - 1` workers via aspen::run_workers per rank.
  int threads = 1;

  /// Read the ASPEN_BENCH_* environment, clamping ranks to hardware.
  [[nodiscard]] static options from_env();

  /// One-line description for figure headers.
  [[nodiscard]] std::string describe() const;
};

/// Parse helpers (exposed for tests).
[[nodiscard]] std::size_t env_size_t(const char* name, std::size_t dflt);
[[nodiscard]] double env_double(const char* name, double dflt);

}  // namespace aspen::bench
