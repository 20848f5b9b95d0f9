// aspen-bench — declarations shared by the parent process (main.cpp), the
// rank-side workloads (workloads.cpp) and the per-layer folding (layers.cpp).
//
// The parent re-executes its own binary as the ranks of each job ("child
// mode"); every rank writes one plain-text result file that the parent
// parses. Nothing here is part of the library's API.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

#include "core/otrace.hpp"

namespace aspen_bench {

/// What a job's ranks do inside their timed window.
enum class kind {
  rtt,          ///< rank 0: one op in flight, round robin of small ops
  gups_amo,     ///< every rank: batches of bit_xor(as_promise) + wait
  gups_rpc,     ///< every rank: batches of rpc_ff XOR updates + rpc fence
  bulk,         ///< rank 0: `inflight` alternating rput/rget of `bytes`
  match,        ///< every rank: back-to-back solve_distributed
  eager_ratio,  ///< in-process eager/defer ratios (the --sweep info rows)
};

[[nodiscard]] const char* to_string(kind k) noexcept;
[[nodiscard]] bool parse_kind(const std::string& s, kind* out) noexcept;

/// One job shape: which ranks run what, on which conduit.
struct job {
  kind k = kind::rtt;
  std::string conduit = "tcp";  ///< tcp | shm | smp
  int nranks = 2;
  std::size_t bytes = 8;     ///< bulk transfer size
  int inflight = 1;          ///< bulk ops kept in flight
  bool rpc = true;           ///< rtt round robin includes rpc(x)->x+1
  /// Extra environment of the job's processes ("NAME=value"); existing
  /// library knobs only (ASPEN_AGG, ASPEN_NET_URING, ASPEN_TRACE_*).
  std::vector<std::string> env;
};

/// Everything a rank process needs, passed on its command line.
struct child_args {
  job j;
  std::uint64_t seed = 1;
  double warmup_s = 1.0;
  double window_s = 4.0;
  std::uint64_t t0_ns = 0;  ///< CLOCK_MONOTONIC stamp taken before fork
  std::string out_dir;      ///< where rank<r>.txt is written
  bool spans = false;       ///< record bench-side inject/wait spans
  bool otrace_dump = false; ///< write rank<r>.otrace (binary record_view)
};

[[nodiscard]] std::vector<std::string> encode_child_args(const child_args& a);
[[nodiscard]] bool decode_child_args(int argc, char** argv, child_args* out);

/// Run this process's rank(s) of the job. Returns the process exit code.
int run_child(const child_args& a);

[[nodiscard]] inline std::uint64_t mono_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// ---------------------------------------------------------------------------
// Per-layer folding (layers.cpp)
// ---------------------------------------------------------------------------

/// p50/p99 of one stage edge across the traced window.
struct edge_stats {
  std::string name;  ///< "<from>.<to>" otrace stage names
  double p50_ns = 0;
  double p99_ns = 0;
};

/// Group every rank's records by trace id, order each trace by its
/// clock-normalized timestamps, and fold adjacent stage pairs into edges.
/// Edges present in fewer than 1% of traces are dropped.
[[nodiscard]] std::vector<edge_stats> fold_edges(
    std::vector<aspen::otrace::record_view> records, std::size_t* traces);

/// ns per 16-byte eager AM through encode_frame + decoder feed/try_next.
[[nodiscard]] double codec_ns_per_frame();
/// ns per 16-byte record through spsc_ring try_push + pop_front.
[[nodiscard]] double ring_ns_per_record();

}  // namespace aspen_bench
