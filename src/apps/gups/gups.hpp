// GUPS — the HPC Challenge RandomAccess benchmark, in the six variants the
// paper evaluates (§IV-B):
//
//   raw_cpp              single-node only: pure C++ table updates, UPC++
//                        machinery factored entirely out of the loop (the
//                        paper's upper bound);
//   manual_localization  per-update is_local() check + downcast, RMA only
//                        for genuinely remote targets (§II-C);
//   rma_promises         straight RMA ignoring locality; batch of gets
//                        tracked by a promise, then a batch of puts;
//   rma_futures          same, tracking each batch by conjoining futures;
//   amo_promises         remote atomic bit_xor updates tracked by a promise;
//   amo_futures          remote atomic bit_xor updates, conjoined futures.
//
// The update rule is HPCC's: table[ran & (N-1)] ^= ran over the standard
// LCG-over-GF(2) random stream, rank r taking the values that follow
// position r * updates_per_rank. XOR is self-inverse, so running one update
// phase twice restores the identity table, and table::count_errors checks
// this:
//
//   - Every entry that only one rank updates comes back exactly, in every
//     variant. In the pure-RMA variants, duplicates within one batch all
//     read the same old value and the last put wins, so the batch XORs that
//     entry with one value, and the second run cancels it. This needs one
//     rank's puts to land in issue order, which holds on smp, where an RMA
//     to another rank is a direct store.
//   - The unsynchronized variants (raw C++, manual localization, pure RMA)
//     may lose updates, but only on entries that two or more ranks update.
//     How many depends on how the ranks' update phases overlap.
//   - The AMO and rpc_ff variants are exact on every entry.
//
// The stream's early values are sparse (few set bits), so on small tables
// the entries that several ranks share receive most of the updates. With 4
// ranks, 2^14 entries and 4096 updates per rank, 800 shared entries take
// 8,968 of the 16,384 updates, and rank 0 alone hits entry 0 836 times.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/aspen.hpp"

namespace aspen::apps::gups {

inline constexpr std::uint64_t kPoly = 7;
inline constexpr std::int64_t kPeriod = 1317624576693539401LL;

/// Advance the HPCC random stream by one step.
[[nodiscard]] constexpr std::uint64_t next_random(std::uint64_t r) noexcept {
  return (r << 1) ^ (static_cast<std::int64_t>(r) < 0 ? kPoly : 0ULL);
}

/// The HPCC_starts function: value of the pseudo-random sequence at
/// position n (so each rank can jump to its own slice of the stream).
[[nodiscard]] std::uint64_t starts(std::int64_t n) noexcept;

enum class variant {
  raw_cpp,
  manual_localization,
  rma_promises,
  rma_futures,
  amo_promises,
  amo_futures,
  /// Extension beyond the paper's figures: updates shipped as
  /// fire-and-forget RPCs to the owning rank (the style of the upstream
  /// UPC++ GUPS repository's RPC version), with counter-based quiescence.
  rpc_ff,
};

[[nodiscard]] std::string_view to_string(variant v) noexcept;

/// The paper's six variants, in its presentation order.
[[nodiscard]] const std::vector<variant>& all_variants();

/// all_variants() plus the extension variants (rpc_ff).
[[nodiscard]] const std::vector<variant>& extended_variants();

struct params {
  /// Global table entries = 2^table_bits (must be >= log2(ranks); the table
  /// is split evenly, so 2^table_bits % ranks == 0 is required, i.e. ranks
  /// must be a power of two or divide the table size).
  unsigned table_bits = 20;
  /// Updates performed by each rank.
  std::uint64_t updates_per_rank = 1u << 18;
  /// In-flight operations per batch (the benchmark's look-ahead window).
  std::uint64_t batch = 512;
};

struct result {
  double seconds = 0.0;          // max across ranks, timed region only
  std::uint64_t updates = 0;     // total updates issued
  [[nodiscard]] double gups() const noexcept {
    return seconds > 0.0 ? static_cast<double>(updates) / seconds / 1e9 : 0.0;
  }
  [[nodiscard]] double mups() const noexcept {
    return seconds > 0.0 ? static_cast<double>(updates) / seconds / 1e6 : 0.0;
  }
};

/// The distributed update table. All member functions are collective unless
/// stated otherwise.
class table {
 public:
  explicit table(const params& p);
  ~table();

  table(const table&) = delete;
  table& operator=(const table&) = delete;

  /// Global pointer to entry `idx` (non-collective).
  [[nodiscard]] global_ptr<std::uint64_t> locate(std::uint64_t idx) const noexcept {
    const std::uint64_t owner = idx >> local_bits_;
    const std::uint64_t off = idx & (per_rank_ - 1);
    return slices_[owner] + static_cast<std::ptrdiff_t>(off);
  }

  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] std::uint64_t index_mask() const noexcept { return size_ - 1; }
  [[nodiscard]] std::uint64_t* local_slice() noexcept {
    return slices_[static_cast<std::size_t>(rank_me())].local();
  }
  [[nodiscard]] std::uint64_t per_rank() const noexcept { return per_rank_; }
  [[nodiscard]] const std::vector<global_ptr<std::uint64_t>>& slices()
      const noexcept {
    return slices_;
  }

  /// Reset every entry i to the value i (collective).
  void fill_identity();

  /// Count entries whose value differs from the identity fill (collective;
  /// result valid on all ranks): HPCC-style verification after running a
  /// variant twice. That leaves every entry that only one rank updates at
  /// identity, so for the unsynchronized variants the count holds only
  /// updates lost on entries that two or more ranks update. For the AMO and
  /// rpc_ff variants it is 0.
  [[nodiscard]] std::uint64_t count_errors();

 private:
  std::uint64_t size_ = 0;
  std::uint64_t per_rank_ = 0;
  unsigned local_bits_ = 0;
  std::vector<global_ptr<std::uint64_t>> slices_;
};

/// Run one variant's timed update phase (collective). The atomic domain for
/// the AMO variants is constructed outside the timed region.
[[nodiscard]] result run_variant(variant v, table& t, const params& p);

}  // namespace aspen::apps::gups
