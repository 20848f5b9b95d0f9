// Figures 2, 3, 4 — communication-operation microbenchmarks (paper §IV-A).
//
// Per-operation latency of single 64-bit RMA/atomic transfers, synchronized
// with futures, across the three emulated library versions:
//
//   for (...) { rput(0, gp, operation_cx::as_future()).wait(); }
//
// The paper runs this on Intel Skylake (Fig. 2), IBM POWER9 (Fig. 3) and
// Marvell ThunderX2 (Fig. 4); this reproduction runs on the host CPU and
// compares the same version-to-version ratios (see EXPERIMENTS.md).
//
// Two ranks; rank 0 measures operations targeting rank 1's segment, i.e.
// on-node *co-located* memory — the shared-memory-bypass path the paper
// optimizes. Expected shape: eager >> defer for puts/gets (the paper sees
// 46-95% speedup), a smaller gain for value-producing fetch-add, and
// non-fetching fetch-add clearly faster than fetching under eager.
#include <cstdio>
#include <iostream>
#include <string>

#include "apps/gups/gups.hpp"  // reuse nothing; keeps include check honest
#include "benchutil/options.hpp"
#include "benchutil/stats.hpp"
#include "benchutil/table.hpp"
#include "benchutil/telemetry_report.hpp"
#include "benchutil/timer.hpp"
#include "core/aspen.hpp"
#include "core/otrace.hpp"

namespace {

using namespace aspen;

constexpr emulated_version kVersions[] = {
    emulated_version::v2021_3_0,
    emulated_version::v2021_3_6_defer,
    emulated_version::v2021_3_6_eager,
};

struct op_row {
  const char* name;
  // Returns seconds for `n` operation+wait iterations; negative if the
  // operation does not exist in the active version.
  double (*run)(global_ptr<std::uint64_t>, atomic_domain<std::uint64_t>&,
                std::size_t);
};

double run_rput(global_ptr<std::uint64_t> gp, atomic_domain<std::uint64_t>&,
                std::size_t n) {
  bench::stopwatch sw;
  for (std::size_t i = 0; i < n; ++i)
    rput(std::uint64_t{0}, gp, operation_cx::as_future()).wait();
  return sw.seconds();
}

double run_rget(global_ptr<std::uint64_t> gp, atomic_domain<std::uint64_t>&,
                std::size_t n) {
  std::uint64_t acc = 0;
  bench::stopwatch sw;
  for (std::size_t i = 0; i < n; ++i)
    acc ^= rget(gp, operation_cx::as_future()).wait();
  const double s = sw.seconds();
  bench::do_not_optimize(acc);
  return s;
}

double run_fadd(global_ptr<std::uint64_t> gp,
                atomic_domain<std::uint64_t>& ad, std::size_t n) {
  std::uint64_t acc = 0;
  bench::stopwatch sw;
  for (std::size_t i = 0; i < n; ++i)
    acc ^= ad.fetch_add(gp, 1, operation_cx::as_future()).wait();
  const double s = sw.seconds();
  bench::do_not_optimize(acc);
  return s;
}

double run_fadd_nv(global_ptr<std::uint64_t> gp,
                   atomic_domain<std::uint64_t>& ad, std::size_t n) {
  if (!current_version().nonfetching_atomics) return -1.0;
  std::uint64_t out = 0;
  bench::stopwatch sw;
  for (std::size_t i = 0; i < n; ++i)
    ad.fetch_add_into(gp, 1, &out, operation_cx::as_future()).wait();
  const double s = sw.seconds();
  bench::do_not_optimize(out);
  return s;
}

constexpr op_row kOps[] = {
    {"rput (64-bit)", &run_rput},
    {"rget (64-bit)", &run_rget},
    {"AMO fetch-add (value)", &run_fadd},
    {"AMO fetch-add (non-value)", &run_fadd_nv},
};

}  // namespace

int main() {
  const auto opt = aspen::bench::options::from_env();
  aspen::bench::print_figure_header(
      std::cout, "Fig 2-4",
      "microbenchmark latency of on-node (co-located) operations, "
      "future-based completion",
      opt.describe());

  // results[op][version] = ns/op mean; -1 = not available.
  double results[std::size(kOps)][std::size(kVersions)];

  const auto tele_before = aspen::telemetry::aggregate();
  aspen::spmd(2, [&] {
    atomic_domain<std::uint64_t> ad(
        {gex::amo_op::fadd, gex::amo_op::load, gex::amo_op::add});
    // Rank 1 owns the target word; rank 0 measures.
    global_ptr<std::uint64_t> gp;
    if (rank_me() == 1) gp = new_<std::uint64_t>(0);
    gp = broadcast(gp, 1);

    for (std::size_t vi = 0; vi < std::size(kVersions); ++vi) {
      set_version_config(version_config::make(kVersions[vi]));
      barrier();
      for (std::size_t oi = 0; oi < std::size(kOps); ++oi) {
        if (rank_me() == 0) {
          // Warmup, then the paper's sample protocol.
          if (kOps[oi].run(gp, ad, std::min<std::size_t>(opt.micro_ops, 10'000)) < 0) {
            results[oi][vi] = -1.0;
          } else {
            auto s = aspen::bench::measure(
                [&] { return kOps[oi].run(gp, ad, opt.micro_ops); },
                opt.samples, opt.keep);
            results[oi][vi] =
                s.mean / static_cast<double>(opt.micro_ops) * 1e9;
          }
        }
        barrier();
      }
    }
    barrier();
    if (rank_me() == 1) delete_(gp);
  });

  aspen::bench::table t({"operation", "2021.3.0 (ns)", "3.6 defer (ns)",
                         "3.6 eager (ns)", "eager vs defer", "eager vs .3.0"});
  for (std::size_t oi = 0; oi < std::size(kOps); ++oi) {
    auto cell = [&](double v) {
      if (v < 0) return std::string("n/a");
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.1f", v);
      return std::string(buf);
    };
    std::vector<std::string> row{std::string(kOps[oi].name),
                                 cell(results[oi][0]), cell(results[oi][1]),
                                 cell(results[oi][2])};
    row.push_back(results[oi][1] > 0 && results[oi][2] > 0
                      ? aspen::bench::format_speedup(results[oi][1] /
                                                     results[oi][2])
                      : "n/a");
    row.push_back(results[oi][0] > 0 && results[oi][2] > 0
                      ? aspen::bench::format_speedup(results[oi][0] /
                                                     results[oi][2])
                      : "n/a");
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  std::cout << "paper expectation: eager/defer speedup 46-95% on puts/gets, "
               "15-52% on value fetch-add;\n"
               "non-value fetch-add faster than value under eager "
               "(66-90%).\n";

  // Telemetry sidecar: counters for the whole measured run.
  const auto tele = aspen::telemetry::aggregate() - tele_before;
  aspen::bench::print_telemetry_summary(std::cout, tele);
  if (aspen::telemetry::compiled_in())
    std::cout << "issue->completion latency by disposition: "
              << aspen::bench::disposition_latency_json(tele) << "\n";
  if (aspen::telemetry::compiled_in() &&
      aspen::bench::write_telemetry_sidecar("fig2_4_micro.telemetry.json",
                                            "fig2_4_micro", tele))
    std::cout << "telemetry sidecar: fig2_4_micro.telemetry.json\n";

  // Trace phase: a short re-run per operation with every op sampled, so
  // the otrace export stays small enough to open in Perfetto.
  if (aspen::telemetry::compiled_in()) {
    aspen::otrace::configure(1, 1 << 20, "fig2_4_micro");
    aspen::otrace::clear();
    aspen::spmd(2, [] {
      atomic_domain<std::uint64_t> ad(
          {gex::amo_op::fadd, gex::amo_op::load, gex::amo_op::add});
      global_ptr<std::uint64_t> gp;
      if (rank_me() == 1) gp = new_<std::uint64_t>(0);
      gp = broadcast(gp, 1);
      set_version_config(
          version_config::make(emulated_version::v2021_3_6_eager));
      barrier();
      if (rank_me() == 0) {
        for (std::size_t oi = 0; oi < std::size(kOps); ++oi)
          kOps[oi].run(gp, ad, 200);
      }
      barrier();
      if (rank_me() == 1) delete_(gp);
    });
    const std::string path = aspen::otrace::export_path("fig2_4_micro", 0);
    const bool written = aspen::otrace::export_json(path, 0);
    aspen::otrace::configure(0, 1 << 20, nullptr);
    if (written)
      std::cout << "otrace (" << aspen::otrace::records_appended()
                << " records): " << path << "\n";
  }
  return 0;
}
