// GUPS application tests: random-stream conformance, table partitioning,
// and update-correctness of every benchmark variant.
#include <gtest/gtest.h>

#include <bit>

#include "apps/gups/gups.hpp"

namespace g = aspen::apps::gups;

namespace {

TEST(GupsStream, NextRandomMatchesHpccRecurrence) {
  // r' = (r << 1) ^ (POLY if the top bit was set)
  EXPECT_EQ(g::next_random(1), 2u);
  EXPECT_EQ(g::next_random(0x8000000000000000ull), 7u);
  EXPECT_EQ(g::next_random(0xC000000000000000ull),
            (0xC000000000000000ull << 1) ^ 7u);
}

TEST(GupsStream, StartsAtZeroIsOne) { EXPECT_EQ(g::starts(0), 1u); }

TEST(GupsStream, StartsMatchesSequentialAdvance) {
  // starts(n) must equal n applications of next_random from starts(0).
  std::uint64_t r = g::starts(0);
  for (int n = 1; n <= 200; ++n) {
    r = g::next_random(r);
    ASSERT_EQ(g::starts(n), r) << "position " << n;
  }
}

TEST(GupsStream, StartsJumpsAgree) {
  std::uint64_t r = g::starts(1000);
  for (int i = 0; i < 500; ++i) r = g::next_random(r);
  EXPECT_EQ(g::starts(1500), r);
}

TEST(GupsTable, LocatePartitionsEvenly) {
  aspen::spmd(4, [] {
    g::params p;
    p.table_bits = 12;
    g::table t(p);
    EXPECT_EQ(t.size(), 4096u);
    EXPECT_EQ(t.per_rank(), 1024u);
    for (std::uint64_t idx : {0ull, 1023ull, 1024ull, 4095ull}) {
      auto gp = t.locate(idx);
      EXPECT_EQ(gp.where(), static_cast<int>(idx / 1024));
      EXPECT_EQ(*gp.local(), idx);  // identity fill
    }
  });
}

TEST(GupsTable, CountErrorsDetectsCorruption) {
  aspen::spmd(2, [] {
    g::params p;
    p.table_bits = 10;
    g::table t(p);
    EXPECT_EQ(t.count_errors(), 0u);
    if (aspen::rank_me() == 0) {
      t.local_slice()[3] ^= 0xDEADBEEF;
      t.local_slice()[7] ^= 0xDEADBEEF;
    }
    EXPECT_EQ(t.count_errors(), 2u);
    t.fill_identity();
    EXPECT_EQ(t.count_errors(), 0u);
  });
}

class GupsVariant : public ::testing::TestWithParam<g::variant> {};

// Which ranks update each table entry: bit r of entry idx is set when rank
// r's share of the HPCC stream touches idx. Replays the stream as every
// variant draws it (rank r starts at position r * updates_per_rank and
// advances once before each update) through the rule idx = ran & mask.
std::vector<unsigned> updaters(const g::table& t, const g::params& p) {
  std::vector<unsigned> who(t.size(), 0);
  for (int r = 0; r < aspen::rank_n(); ++r) {
    std::uint64_t ran = g::starts(static_cast<std::int64_t>(
        p.updates_per_rank * static_cast<std::uint64_t>(r)));
    for (std::uint64_t u = 0; u < p.updates_per_rank; ++u) {
      ran = g::next_random(ran);
      who[ran & t.index_mask()] |= 1u << r;
    }
  }
  return who;
}

// HPCC-style verification: XOR updates are self-inverse, so running the
// same update phase twice restores the identity table. Every variant must
// restore exactly each entry that at most one rank updates (see gups.hpp
// for why same-batch duplicates cancel). The unsynchronized variants (raw
// C++, manual localization, pure RMA) may lose updates only on the
// contended entries, those that two or more ranks update; how many they
// lose there depends on how the ranks' update phases overlap, so that count
// is not checked. The atomic and rpc variants must restore the whole table.
TEST_P(GupsVariant, DoubleRunRestoresIdentity) {
  const g::variant v = GetParam();
  aspen::spmd(4, [v] {
    g::params p;
    p.table_bits = 14;
    p.updates_per_rank = 1 << 12;
    p.batch = 128;
    g::table t(p);
    const std::vector<unsigned> who = updaters(t, p);
    // Keep the exact check from going empty: every rank must be the sole
    // updater of some entry in every owner's slice, so it covers each
    // rank's local path and each of its remote paths.
    if (aspen::rank_me() == 0) {
      const auto n = static_cast<std::size_t>(aspen::rank_n());
      std::vector<std::uint64_t> sole(n * n, 0);  // [updater * n + owner]
      for (std::uint64_t idx = 0; idx < t.size(); ++idx)
        if (std::popcount(who[idx]) == 1)
          ++sole[static_cast<std::size_t>(std::countr_zero(who[idx])) * n +
                 idx / t.per_rank()];
      for (std::size_t r = 0; r < n; ++r)
        for (std::size_t o = 0; o < n; ++o)
          EXPECT_GT(sole[r * n + o], 0u)
              << "rank " << r << " is the sole updater of no entry owned by "
              << "rank " << o;
    }
    (void)g::run_variant(v, t, p);
    (void)g::run_variant(v, t, p);
    const std::uint64_t errors = t.count_errors();
    const std::uint64_t* mine = t.local_slice();
    const std::uint64_t base =
        t.per_rank() * static_cast<std::uint64_t>(aspen::rank_me());
    std::uint64_t uncontended_errors = 0;
    for (std::uint64_t i = 0; i < t.per_rank(); ++i)
      if (std::popcount(who[base + i]) < 2 && mine[i] != base + i)
        ++uncontended_errors;
    EXPECT_EQ(aspen::allreduce_sum(uncontended_errors), 0u);
    // Atomic variants are exact; the rpc variant is too (each update is
    // applied by the owner, serialized through its progress engine).
    const bool exact = v == g::variant::amo_promises ||
                       v == g::variant::amo_futures ||
                       v == g::variant::rpc_ff;
    if (exact) {
      EXPECT_EQ(errors, 0u);
    }
  });
}

// Single-rank runs have no concurrency, so every variant must be exact.
TEST_P(GupsVariant, SingleRankIsExact) {
  const g::variant v = GetParam();
  aspen::spmd(1, [v] {
    g::params p;
    p.table_bits = 12;
    p.updates_per_rank = 1 << 12;
    p.batch = 64;
    g::table t(p);
    (void)g::run_variant(v, t, p);
    (void)g::run_variant(v, t, p);
    EXPECT_EQ(t.count_errors(), 0u);
  });
}

// The immediately-applied variants (raw C++, manual localization, atomics)
// perform each XOR against the current table value, so on one rank they all
// produce the identical final table. The batched pure-RMA variants are
// excluded: a batch reads before it writes, so two same-batch updates to one
// index legitimately lose an update (the benchmark's documented relaxation).
TEST(GupsVariants, ImmediateVariantsProduceSameTableSingleRank) {
  aspen::spmd(1, [] {
    g::params p;
    p.table_bits = 12;
    p.updates_per_rank = 1 << 11;
    p.batch = 64;
    std::vector<std::uint64_t> reference;
    for (g::variant v :
         {g::variant::raw_cpp, g::variant::manual_localization,
          g::variant::amo_promises, g::variant::amo_futures}) {
      g::table t(p);
      (void)g::run_variant(v, t, p);
      std::vector<std::uint64_t> snapshot(t.local_slice(),
                                          t.local_slice() + t.per_rank());
      if (reference.empty()) {
        reference = snapshot;
      } else {
        EXPECT_EQ(snapshot, reference) << g::to_string(v);
      }
    }
  });
}

TEST(GupsResult, RatesComputedFromTime) {
  g::result r;
  r.seconds = 2.0;
  r.updates = 4'000'000'000ull;
  EXPECT_DOUBLE_EQ(r.gups(), 2.0);
  EXPECT_DOUBLE_EQ(r.mups(), 2000.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, GupsVariant, ::testing::ValuesIn(g::extended_variants()),
    [](const ::testing::TestParamInfo<g::variant>& info) {
      std::string name{g::to_string(info.param)};
      for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

}  // namespace
