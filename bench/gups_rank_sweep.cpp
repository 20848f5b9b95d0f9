// Supplementary sweep — GUPS vs process count (paper §IV-B ran 1, 2, 4, 8,
// 16 processes and reported that "results for other process counts show the
// same trends" as the 16-process figures). This bench substantiates that
// claim on the reproduction: for each power-of-two rank count it reports
// the pure-RMA-with-promises eager/defer speedup and the RMA-with-futures
// speedup, which must stay >1 across the sweep.
#include <cstdio>
#include <iostream>

#include "apps/gups/gups.hpp"
#include "benchutil/options.hpp"
#include "benchutil/stats.hpp"
#include "benchutil/table.hpp"

namespace {
using namespace aspen;
namespace g = aspen::apps::gups;
}  // namespace

int main() {
  const auto opt = aspen::bench::options::from_env();
  aspen::bench::print_figure_header(
      std::cout, "S-IV.B (sweep)",
      "GUPS eager-vs-defer speedup across process counts",
      opt.describe());

  aspen::bench::table t({"ranks", "RMA+promise defer (MUPS)",
                         "RMA+promise eager (MUPS)", "speedup",
                         "RMA+future eager/defer"});

  for (int ranks = 1; ranks <= opt.ranks; ranks *= 2) {
    g::params p;
    p.table_bits = 18;
    p.updates_per_rank = static_cast<std::uint64_t>(
        65'536 * std::max(1.0, opt.scale));
    p.batch = 512;

    double mups_defer = 0, mups_eager = 0, fut_ratio = 0;
    // One spmd per rank count (table construction is collective).
    aspen::spmd(ranks, [&] {
      g::table tbl(p);
      auto mups = [&](emulated_version ver, g::variant var) {
        set_version_config(version_config::make(ver));
        barrier();
        std::vector<double> samples;
        for (std::size_t s = 0; s < opt.samples; ++s)
          samples.push_back(g::run_variant(var, tbl, p).seconds);
        const double secs =
            aspen::bench::summarize_best(std::move(samples), opt.keep).mean;
        return static_cast<double>(p.updates_per_rank) *
               static_cast<double>(rank_n()) / secs / 1e6;
      };
      const double pd =
          mups(emulated_version::v2021_3_6_defer, g::variant::rma_promises);
      const double pe =
          mups(emulated_version::v2021_3_6_eager, g::variant::rma_promises);
      const double fd =
          mups(emulated_version::v2021_3_6_defer, g::variant::rma_futures);
      const double fe =
          mups(emulated_version::v2021_3_6_eager, g::variant::rma_futures);
      if (rank_me() == 0) {
        mups_defer = pd;
        mups_eager = pe;
        fut_ratio = fe / fd;
      }
      barrier();
    });

    char c0[16], c1[32], c2[32];
    std::snprintf(c0, sizeof(c0), "%d", ranks);
    std::snprintf(c1, sizeof(c1), "%.2f", mups_defer);
    std::snprintf(c2, sizeof(c2), "%.2f", mups_eager);
    t.add_row({c0, c1, c2,
               aspen::bench::format_speedup(mups_eager / mups_defer),
               aspen::bench::format_speedup(fut_ratio)});
  }

  t.print(std::cout);
  std::cout << "paper claim: the eager advantage holds at every process "
               "count (\"same trends\").\n";
  return 0;
}
