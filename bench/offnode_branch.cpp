// Off-node RMA study (paper §IV-A, omitted from the paper for space).
//
// Claim under test: deploying eager completion lengthens the code path of
// *off-node* RMA by exactly one locality branch, with no statistically
// significant latency impact; off-node atomics are unchanged.
//
// Reproduction: the loopback conduit with a split locality model places
// ranks 0 and 1 on different pseudo-nodes, so every transfer takes the full
// active-message round trip. We compare the three library versions on this
// path — defer and eager must be statistically indistinguishable (the
// operations never complete synchronously, so eager mode only adds the
// branch).
#include <cstdio>
#include <iostream>
#include <string>

#include "benchutil/options.hpp"
#include "benchutil/stats.hpp"
#include "benchutil/table.hpp"
#include "benchutil/timer.hpp"
#include "core/aspen.hpp"
#include "gex/perturb.hpp"

namespace {

using namespace aspen;

constexpr emulated_version kVersions[] = {
    emulated_version::v2021_3_0,
    emulated_version::v2021_3_6_defer,
    emulated_version::v2021_3_6_eager,
};

struct pass_result {
  double rput_ns[std::size(kVersions)] = {0, 0, 0};
  double rget_ns[std::size(kVersions)] = {0, 0, 0};
  double amo_ns[std::size(kVersions)] = {0, 0, 0};
};

pass_result run_pass(const gex::config& gcfg, const aspen::bench::options& opt,
                     std::size_t ops) {
  pass_result res;
  double* rput_ns = res.rput_ns;
  double* rget_ns = res.rget_ns;
  double* amo_ns = res.amo_ns;

  aspen::spmd(2, gcfg, [&] {
    atomic_domain<std::uint64_t> ad({gex::amo_op::fadd});
    global_ptr<std::uint64_t> gp;
    if (rank_me() == 1) gp = new_<std::uint64_t>(0);
    gp = broadcast(gp, 1);
    // Sanity: the target really is treated as remote here.
    if (rank_me() == 0 && gp.is_local())
      std::cerr << "WARNING: target unexpectedly local; split locality "
                   "model not in effect\n";

    for (std::size_t vi = 0; vi < std::size(kVersions); ++vi) {
      set_version_config(version_config::make(kVersions[vi]));
      barrier();
      if (rank_me() == 0) {
        auto time_loop = [&](auto&& op) {
          return aspen::bench::measure(
              [&] {
                bench::stopwatch sw;
                for (std::size_t i = 0; i < ops; ++i) op();
                return sw.seconds();
              },
              opt.samples, opt.keep)
                     .mean /
                 static_cast<double>(ops) * 1e9;
        };
        rput_ns[vi] = time_loop([&] {
          rput(std::uint64_t{1}, gp, operation_cx::as_future()).wait();
        });
        rget_ns[vi] = time_loop(
            [&] { (void)rget(gp, operation_cx::as_future()).wait(); });
        amo_ns[vi] = time_loop(
            [&] { (void)ad.fetch_add(gp, 1, operation_cx::as_future()).wait(); });
      }
      barrier();
    }
    barrier();
    if (rank_me() == 1) delete_(gp);
  });
  return res;
}

void print_pass(const char* label, const pass_result& res) {
  aspen::bench::table t({std::string("operation (") + label + ")",
                         "2021.3.0 (ns)", "3.6 defer (ns)", "3.6 eager (ns)",
                         "eager vs defer"});
  auto add = [&](const char* name, const double* v) {
    auto cell = [](double x) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.0f", x);
      return std::string(buf);
    };
    t.add_row({name, cell(v[0]), cell(v[1]), cell(v[2]),
               aspen::bench::format_speedup(v[1] / v[2])});
  };
  add("rput (64-bit)", res.rput_ns);
  add("rget (64-bit)", res.rget_ns);
  add("AMO fetch-add", res.amo_ns);
  t.print(std::cout);
}

}  // namespace

int main() {
  auto opt = aspen::bench::options::from_env();
  // Off-node latency is dominated by the AM round trip; fewer iterations
  // suffice for stable means.
  const std::size_t ops = std::max<std::size_t>(2'000, opt.micro_ops / 100);

  aspen::bench::print_figure_header(
      std::cout, "S-IV.A (off-node)",
      "off-node RMA/AMO latency: the eager-capable code path must not slow "
      "remote operations",
      opt.describe());

  gex::config gcfg;
  gcfg.transport = gex::conduit::loopback;
  gcfg.locality.node_size = 1;  // every rank is its own pseudo-node

  print_pass("off-node", run_pass(gcfg, opt, ops));
  std::cout << "paper expectation: eager vs defer ~1.00x on all off-node "
               "rows (the extra branch is noise).\n";

  if (aspen::bench::env_size_t("ASPEN_BENCH_PERTURB", 0) != 0) {
    // Optional extra column set: the same study under the perturbed conduit
    // with randomized delivery delays and cross-source reordering. Absolute
    // latencies inflate (each AM waits out its hold), but eager vs defer
    // must remain indistinguishable — the eager branch never triggers on
    // this all-remote path. ASPEN_PERTURB_* env overrides apply (seeded,
    // replayable); fewer iterations since every op spans several polls.
    gex::config pcfg;
    pcfg.transport = gex::conduit::perturbed;
    pcfg.locality.node_size = 1;
    pcfg.perturb =
        gex::perturb::preset(gex::perturb::mode::delay_reorder, pcfg.perturb.seed);
    std::cout << "\nperturbed conduit (delay-reorder, seed "
              << pcfg.perturb.seed << "):\n";
    print_pass("off-node, perturbed",
               run_pass(pcfg, opt, std::max<std::size_t>(500, ops / 10)));
    std::cout << "expectation: higher absolute latency, eager vs defer still "
                 "~1.00x under injected delay.\n";
  }
  return 0;
}
