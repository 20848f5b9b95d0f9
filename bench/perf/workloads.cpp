// aspen-bench rank side: the workloads, driven only through the public API
// (rput/rget, atomic_domain, rpc/rpc_ff, barrier/collectives,
// apps::matching). Every rank runs the same launch protocol:
//
//   barrier                    -> rank 0 stamps setup time (fork -> here)
//   build inputs from --seed   (splitmix64 per rank)
//   warm-up loop               (verified, not counted)
//   barrier                    -> window opens on every rank together
//   timed loop                 (closed loop: one request completes before
//                               the next is issued, per issuing context)
//   barrier, launch-wide checks, write rank<r>.txt
//
// A request is one op (rtt), one 512-update batch (GUPS), one transfer
// (bulk) or one solve (match). Its latency runs from issue to completion.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "apps/gups/gups.hpp"
#include "apps/matching/generators.hpp"
#include "apps/matching/matcher.hpp"
#include "apps/matching/verify.hpp"
#include "benchutil/timer.hpp"
#include "common.hpp"
#include "core/aspen.hpp"
#include "core/telemetry.hpp"
#include "net/endpoint.hpp"

namespace aspen_bench {

namespace {

using namespace aspen;
namespace gups = aspen::apps::gups;
namespace mt = aspen::apps::matching;
using mt::splitmix64;

constexpr std::uint64_t kBatch = 512;  ///< GUPS updates per request
/// GUPS table of 2^22 entries (32 MiB): well beyond L2, as in HPCC.
constexpr unsigned kTableBits = 22;

std::uint64_t secs_to_ns(double s) {
  return static_cast<std::uint64_t>(s * 1e9);
}

/// The input stream of one rank: a pure function of (seed, rank, salt).
splitmix64 stream_for(std::uint64_t seed, int rank, std::uint64_t salt) {
  splitmix64 mix(seed ^ (salt << 56));
  (void)mix.next();
  return splitmix64(mix.next() + static_cast<std::uint64_t>(rank + 1) *
                                     0xD1B54A32D192ED03ull);
}

/// Uniform reservoir of latency samples (ns). Keeps every sample until
/// kCap, then replaces uniformly so percentiles stay unbiased on windows
/// with millions of requests.
class sampler {
 public:
  static constexpr std::size_t kCap = std::size_t{1} << 18;

  explicit sampler(std::uint64_t seed) : rng_(seed) {}

  void add(std::uint64_t ns) {
    const auto v = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(ns, 0xFFFFFFFFull));
    ++seen_;
    if (v_.size() < kCap) {
      v_.push_back(v);
    } else if (const std::uint64_t j = rng_.next() % seen_; j < kCap) {
      v_[j] = v;
    }
  }

  void write(std::FILE* f, const char* key) const {
    std::fprintf(f, "%s %zu", key, v_.size());
    for (std::uint32_t v : v_) std::fprintf(f, " %u", v);
    std::fputc('\n', f);
  }

 private:
  std::vector<std::uint32_t> v_;
  std::uint64_t seen_ = 0;
  splitmix64 rng_;
};

struct cpu_ns {
  std::uint64_t user = 0;
  std::uint64_t sys = 0;
};

cpu_ns thread_cpu() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(tv.tv_usec) * 1000ull;
  };
  return {ns(ru.ru_utime), ns(ru.ru_stime)};
}

/// What one rank reports for its launch.
struct rank_out {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;  ///< window requests that failed verification
  std::uint64_t useful_bytes = 0;
  bool check = true;  ///< launch-wide checks (checksums, warm-up, drain)
  std::uint64_t window_ns = 0;
  sampler lat, inject, wait;
  telemetry::snapshot ctr{};
  cpu_ns cpu{};
  std::uint64_t otrace_appended = 0;
  std::vector<otrace::record_view> records;
  std::vector<std::pair<std::string, double>> info;

  explicit rank_out(std::uint64_t seed)
      : lat(seed ^ 1), inject(seed ^ 2), wait(seed ^ 3) {}

  /// Account one completed request of `count` ops. `injected` is the end
  /// of its injection calls (0 when spans are off). A failed check outside
  /// the window fails the whole launch.
  void note(bool timed, bool ok, std::uint64_t issue, std::uint64_t injected,
            std::uint64_t done, std::uint64_t count, std::uint64_t bytes) {
    if (!ok) {
      if (timed)
        failed += count;
      else
        check = false;
    }
    if (!timed || count == 0) return;
    ops += count;
    useful_bytes += bytes;
    lat.add(done - issue);
    if (injected != 0) {
      inject.add((injected - issue) / count);
      wait.add(done - injected);
    }
  }
};

/// The launch protocol from warm-up to the closing barrier. `step(now,
/// timed)` completes one request issued at `now` and returns the time it
/// completed; `drain()` settles any requests still in flight after each
/// loop. Inactive ranks only service progress inside the barriers. With
/// `collective`, rank 0 decides every iteration so collective steps stay
/// matched across ranks.
template <typename Step, typename Drain>
void run_window(const child_args& a, rank_out& out, bool active,
                bool collective, Step&& step, Drain&& drain) {
  auto keep_going = [&](std::uint64_t now, std::uint64_t end) {
    return collective ? broadcast(now < end, 0) : now < end;
  };
  if (active) {
    const std::uint64_t end = mono_ns() + secs_to_ns(a.warmup_s);
    std::uint64_t now = mono_ns();
    while (keep_going(now, end)) now = step(now, false);
    drain();
  }
  if (a.otrace_dump) otrace::clear();  // keep the window's records only
  barrier();
  const telemetry::snapshot snap0 = telemetry::local_snapshot();
  const cpu_ns cpu0 = thread_cpu();
  const std::uint64_t t0 = mono_ns();
  auto close = [&] {
    out.ctr = telemetry::local_snapshot() - snap0;
    const cpu_ns cpu1 = thread_cpu();
    out.cpu = {cpu1.user - cpu0.user, cpu1.sys - cpu0.sys};
  };
  if (active) {
    const std::uint64_t end = t0 + secs_to_ns(a.window_s);
    std::uint64_t now = t0;
    while (keep_going(now, end)) now = step(now, true);
    out.window_ns = now - t0;
    close();
    drain();
    barrier();
  } else {
    barrier();
    out.window_ns = mono_ns() - t0;
    close();
  }
  out.otrace_appended = otrace::records_appended();
}

void no_drain() {}

std::uint64_t stamp(bool on) { return on ? mono_ns() : 0; }

// ---------------------------------------------------------------------------
// rtt: rank 0 keeps one op in flight against rank 1
// ---------------------------------------------------------------------------

void run_rtt(const child_args& a, rank_out& out) {
  atomic_domain<std::uint64_t> ad({gex::amo_op::fadd});
  global_ptr<std::uint64_t> cell, counter;
  if (rank_me() == 1) {
    cell = new_<std::uint64_t>(0);
    counter = new_<std::uint64_t>(0);
  }
  cell = broadcast(cell, 1);
  counter = broadcast(counter, 1);

  splitmix64 rng = stream_for(a.seed, rank_me(), 1);
  std::uint64_t last_put = 0, expect_count = 0, i = 0;
  const std::uint64_t nops = a.j.rpc ? 4 : 3;
  run_window(
      a, out, rank_me() == 0, false,
      [&](std::uint64_t issue, bool timed) {
        std::uint64_t injected = 0;
        bool ok = true;
        switch (i++ % nops) {
          case 0: {
            const std::uint64_t v = rng.next();
            auto f = rput(v, cell);
            injected = stamp(a.spans);
            f.wait();
            last_put = v;
            break;
          }
          case 1: {
            auto f = rget(cell);
            injected = stamp(a.spans);
            ok = f.wait() == last_put;
            break;
          }
          case 2: {
            const std::uint64_t d = rng.next() >> 40;
            auto f = ad.fetch_add(counter, d);
            injected = stamp(a.spans);
            ok = f.wait() == expect_count;
            expect_count += d;
            break;
          }
          default: {
            const std::uint64_t x = rng.next() >> 1;
            auto f = rpc(1, [](std::uint64_t v) { return v + 1; }, x);
            injected = stamp(a.spans);
            ok = f.wait() == x + 1;
            break;
          }
        }
        const std::uint64_t done = mono_ns();
        out.note(timed, ok, issue, injected, done, 1, sizeof(std::uint64_t));
        return done;
      },
      no_drain);
  barrier();
  if (rank_me() == 1) {
    delete_(cell);
    delete_(counter);
  }
}

// ---------------------------------------------------------------------------
// bulk: rank 0 keeps `inflight` transfers in flight, each slot alternating
// rput of a seeded payload and an rget that must read it back
// ---------------------------------------------------------------------------

void run_bulk(const child_args& a, rank_out& out) {
  const std::size_t words = std::max<std::size_t>(1, a.j.bytes / 8);
  const auto k = static_cast<std::size_t>(std::max(1, a.j.inflight));
  global_ptr<std::uint64_t> slots;
  if (rank_me() == 1) slots = new_array<std::uint64_t>(k * words);
  slots = broadcast(slots, 1);

  constexpr std::size_t kPool = 8;
  splitmix64 rng = stream_for(a.seed, rank_me(), 3);
  std::vector<std::vector<std::uint64_t>> pool;
  std::vector<std::vector<std::uint64_t>> got(k);
  if (rank_me() == 0) {
    pool.resize(kPool, std::vector<std::uint64_t>(words));
    for (auto& p : pool)
      for (auto& w : p) w = rng.next();
    for (auto& g : got) g.resize(words);
  }

  struct slot_state {
    future<> f;
    std::uint64_t issue = 0;
    std::uint64_t injected = 0;
    std::size_t payload = 0;
    bool is_get = false;
  };
  std::vector<slot_state> st(k);
  bool primed = false;
  std::size_t cursor = 0;
  auto issue_op = [&](std::size_t s, std::uint64_t now) {
    slot_state& x = st[s];
    x.issue = now;
    const auto dst = slots + static_cast<std::ptrdiff_t>(s * words);
    if (x.is_get) {
      x.f = rget(dst, got[s].data(), words);
    } else {
      x.payload = static_cast<std::size_t>(rng.next() % kPool);
      x.f = rput(pool[x.payload].data(), dst, words);
    }
    x.injected = stamp(a.spans);
  };
  // Completes slot s's op; returns whether its data checked out.
  auto complete = [&](std::size_t s) {
    slot_state& x = st[s];
    x.f.wait();
    const bool ok =
        !x.is_get || std::memcmp(got[s].data(), pool[x.payload].data(),
                                 words * sizeof(std::uint64_t)) == 0;
    x.is_get = !x.is_get;
    return ok;
  };
  run_window(
      a, out, rank_me() == 0, false,
      [&](std::uint64_t now, bool timed) {
        if (!primed) {
          for (std::size_t s = 0; s < k; ++s) issue_op(s, now);
          primed = true;
          cursor = 0;
        }
        const std::size_t s = cursor;
        cursor = (cursor + 1) % k;
        const bool ok = complete(s);
        const std::uint64_t done = mono_ns();
        out.note(timed, ok, st[s].issue, st[s].injected, done, 1,
                 words * sizeof(std::uint64_t));
        issue_op(s, done);
        return done;
      },
      [&] {
        if (!primed) return;
        for (std::size_t n = 0; n < k; ++n) {
          if (!complete(cursor)) out.check = false;
          cursor = (cursor + 1) % k;
        }
        primed = false;
      });
  barrier();
  if (rank_me() == 1) deallocate(slots);
}

// ---------------------------------------------------------------------------
// GUPS: XOR updates into a 2^22-entry table, verified by a GF(2)-linear
// checksum replayed from each rank's issued count
// ---------------------------------------------------------------------------

/// Two rotations of the value keyed by the index: linear over XOR, so the
/// final table's checksum equals the identity fill's XOR every update's.
struct checksum {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  void add(std::uint64_t idx, std::uint64_t v) noexcept {
    a ^= std::rotl(v, static_cast<int>(idx & 63));
    b ^= std::rotl(v, static_cast<int>((idx >> 6) & 63));
  }
};

checksum xor_all(checksum c) {
  return allreduce(c, [](checksum x, checksum y) {
    return checksum{x.a ^ y.a, x.b ^ y.b};
  });
}

/// Collective: compare the table against identity XOR the replay of every
/// rank's first `issued` draws of its update stream.
bool verify_table(gups::table& t, const child_args& a, std::uint64_t issued) {
  barrier();
  const std::uint64_t base =
      t.per_rank() * static_cast<std::uint64_t>(rank_me());
  checksum have, want;
  const std::uint64_t* mine = t.local_slice();
  for (std::uint64_t i = 0; i < t.per_rank(); ++i) {
    have.add(base + i, mine[i]);
    want.add(base + i, base + i);
  }
  splitmix64 replay = stream_for(a.seed, rank_me(), 2);
  for (std::uint64_t u = 0; u < issued; ++u) {
    const std::uint64_t r = replay.next();
    want.add(r & t.index_mask(), r);
  }
  have = xor_all(have);
  want = xor_all(want);
  return have.a == want.a && have.b == want.b;
}

void run_gups_amo(const child_args& a, rank_out& out) {
  gups::params p;
  p.table_bits = kTableBits;
  gups::table t(p);
  atomic_domain<std::uint64_t> ad({gex::amo_op::bxor});
  splitmix64 rng = stream_for(a.seed, rank_me(), 2);
  const std::uint64_t mask = t.index_mask();
  std::uint64_t issued = 0;
  run_window(
      a, out, true, false,
      [&](std::uint64_t issue, bool timed) {
        promise<> pr;
        for (std::uint64_t i = 0; i < kBatch; ++i) {
          const std::uint64_t r = rng.next();
          ad.bit_xor(t.locate(r & mask), r, operation_cx::as_promise(pr));
        }
        const std::uint64_t injected = stamp(a.spans);
        pr.finalize().wait();
        issued += kBatch;
        const std::uint64_t done = mono_ns();
        out.note(timed, true, issue, injected, done, kBatch,
                 kBatch * sizeof(std::uint64_t));
        return done;
      },
      no_drain);
  if (!verify_table(t, a, issued)) out.check = false;
}

thread_local std::uint64_t t_rpc_applied = 0;

void run_gups_rpc(const child_args& a, rank_out& out) {
  gups::params p;
  p.table_bits = kTableBits;
  gups::table t(p);
  t_rpc_applied = 0;
  barrier();
  splitmix64 rng = stream_for(a.seed, rank_me(), 2);
  const std::uint64_t mask = t.index_mask();
  const int me = rank_me();
  std::uint64_t issued = 0;
  run_window(
      a, out, true, false,
      [&](std::uint64_t issue, bool timed) {
        for (std::uint64_t i = 0; i < kBatch; ++i) {
          const std::uint64_t r = rng.next();
          const auto dest = t.locate(r & mask);
          if (dest.where() == me) {
            *dest.local() ^= r;
            ++t_rpc_applied;
          } else {
            rpc_ff(dest.where(),
                   [](global_ptr<std::uint64_t> gp, std::uint64_t v) {
                     *gp.local() ^= v;
                     ++t_rpc_applied;
                   },
                   dest, r);
          }
          if ((i & 255) == 255) (void)progress();
        }
        const std::uint64_t injected = stamp(a.spans);
        // Fence: AMs are delivered in order per peer, so one rpc round trip
        // to every peer completes after all of this batch's updates ran.
        future<> fence = make_future();
        for (int peer = 0; peer < rank_n(); ++peer)
          if (peer != me) fence = when_all(fence, rpc(peer, [] {}));
        fence.wait();
        issued += kBatch;
        const std::uint64_t done = mono_ns();
        out.note(timed, true, issue, injected, done, kBatch,
                 kBatch * sizeof(std::uint64_t));
        return done;
      },
      no_drain);
  // Count-based quiescence: every issued update has been applied once.
  const std::uint64_t total = allreduce_sum(issued);
  std::uint64_t applied = 0;
  while ((applied = allreduce_sum(t_rpc_applied)) < total) (void)progress();
  if (applied != total || !verify_table(t, a, issued)) out.check = false;
}

// ---------------------------------------------------------------------------
// match: back-to-back distributed solves of a seeded power-law graph
// ---------------------------------------------------------------------------

/// The youtube analogue of the Fig. 8 inputs, sized so a run's windows hold
/// well over the 1000 solves a p99 with 10 samples beyond it needs.
mt::csr_graph match_graph(std::uint64_t seed) {
  return mt::gen_powerlaw(6'000, 3, seed);
}

void run_match(const child_args& a, rank_out& out) {
  // Every rank builds the identical graph; rank 0 also the reference.
  const mt::csr_graph g = match_graph(a.seed);
  std::vector<mt::vid> reference;
  if (rank_me() == 0) reference = mt::solve_sequential(g);
  const mt::dist_graph d = mt::dist_graph::build(g);
  run_window(
      a, out, true, true,
      [&](std::uint64_t issue, bool timed) {
        mt::solve_stats stats;
        const std::vector<mt::vid> local = mt::solve_distributed(d, stats);
        const std::uint64_t done = mono_ns();
        const std::vector<mt::vid> full = mt::gather_mates(d, local);
        const bool mine = rank_me() == 0;
        out.note(timed, !mine || mt::same_matching(full, reference), issue,
                 0, done, mine ? 1 : 0, 0);
        return mono_ns();
      },
      no_drain);
}

// ---------------------------------------------------------------------------
// eager_ratio: the in-process eager/defer ratios behind Figs. 2-8
// ---------------------------------------------------------------------------

template <typename Fn>
double best_seconds(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) best = std::min(best, fn());
  return best;
}

void run_eager_ratio(const child_args& a, rank_out& out) {
  const emulated_version kDefer = emulated_version::v2021_3_6_defer;
  const emulated_version kEager = emulated_version::v2021_3_6_eager;
  auto under = [](emulated_version v) {
    set_version_config(version_config::make(v));
    barrier();
  };
  const bool root = rank_me() == 0;

  // Figs. 2-4: rank 0 issues future-synchronized ops on rank 1's segment.
  {
    atomic_domain<std::uint64_t> ad({gex::amo_op::fadd});
    global_ptr<std::uint64_t> gp;
    if (rank_me() == 1) gp = new_<std::uint64_t>(0);
    gp = broadcast(gp, 1);
    constexpr std::size_t kOps = 200'000;
    auto per_op = [&](emulated_version v, auto&& op) {
      under(v);
      double ns = 0;
      if (root) {
        ns = best_seconds(3, [&] {
               const std::uint64_t t = mono_ns();
               for (std::size_t i = 0; i < kOps; ++i) op();
               return static_cast<double>(mono_ns() - t);
             }) /
             kOps;
      }
      barrier();
      return ns;
    };
    std::uint64_t sink = 0;
    auto put = [&] { rput(std::uint64_t{1}, gp).wait(); };
    auto get = [&] { sink ^= rget(gp).wait(); };
    auto fadd = [&] { sink ^= ad.fetch_add(gp, 1).wait(); };
    auto ratio = [&](const char* name, auto&& op) {
      const double defer = per_op(kDefer, op);
      const double eager = per_op(kEager, op);
      if (root) out.info.push_back({name, defer / eager});
    };
    ratio("fig2_4.rput", put);
    ratio("fig2_4.rget", get);
    ratio("fig2_4.fetch_add", fadd);
    aspen::bench::do_not_optimize(sink);
    barrier();
    if (rank_me() == 1) delete_(gp);
  }

  // Figs. 5-7: GUPS variants, eager MUPS over defer MUPS.
  {
    gups::params p;
    p.table_bits = 18;
    p.updates_per_rank = std::uint64_t{1} << 16;
    const gups::variant vs[] = {
        gups::variant::rma_promises, gups::variant::rma_futures,
        gups::variant::amo_promises, gups::variant::amo_futures};
    const char* names[] = {"fig5_7.rma_promises", "fig5_7.rma_futures",
                           "fig5_7.amo_promises", "fig5_7.amo_futures"};
    gups::table t(p);
    for (std::size_t i = 0; i < std::size(vs); ++i) {
      auto secs = [&](emulated_version v) {
        under(v);
        return best_seconds(
            3, [&] { return gups::run_variant(vs[i], t, p).seconds; });
      };
      const double defer = secs(kDefer);
      const double eager = secs(kEager);
      if (root) out.info.push_back({names[i], defer / eager});
    }
  }

  // Fig. 8: matching solve time, defer over eager.
  {
    const mt::dist_graph d = mt::dist_graph::build(match_graph(a.seed));
    auto secs = [&](emulated_version v) {
      under(v);
      return best_seconds(5, [&] {
        mt::solve_stats s;
        (void)mt::solve_distributed(d, s);
        return s.seconds;
      });
    };
    const double defer = secs(kDefer);
    const double eager = secs(kEager);
    if (root) out.info.push_back({"fig8.match", defer / eager});
  }
  set_version_config(version_config::current_default());
  barrier();
}

// ---------------------------------------------------------------------------
// Result files
// ---------------------------------------------------------------------------

/// Peak resident set of this process's own address space (VmHWM, KiB).
/// Unlike the rusage of a forked child, it excludes the pages the child
/// held before exec, i.e. the parent aspen-bench's image.
std::uint64_t peak_rss_kib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) break;
  std::fclose(f);
  return kib;
}

bool write_result(const child_args& a, int rank, const rank_out& o,
                  std::uint64_t setup_ns) {
  const std::string base = a.out_dir + "/rank" + std::to_string(rank);
  if (a.otrace_dump) {
    std::FILE* f = std::fopen((base + ".otrace").c_str(), "wb");
    if (f == nullptr) return false;
    const std::size_t n = std::fwrite(o.records.data(), sizeof(o.records[0]),
                                      o.records.size(), f);
    if (std::fclose(f) != 0 || n != o.records.size()) return false;
  }
  std::FILE* f = std::fopen((base + ".txt").c_str(), "w");
  if (f == nullptr) return false;
  const net::endpoint* ep = a.j.conduit == "smp" ? nullptr
                                                 : net::endpoint::instance();
  std::fprintf(f, "setup_ns %llu\n", static_cast<unsigned long long>(setup_ns));
  auto u = [&](const char* k, std::uint64_t v) {
    std::fprintf(f, "%s %llu\n", k, static_cast<unsigned long long>(v));
  };
  u("window_ns", o.window_ns);
  u("ops", o.ops);
  u("failed", o.failed);
  u("useful_bytes", o.useful_bytes);
  u("check", o.check ? 1 : 0);
  std::fprintf(f, "plane %s\n", ep != nullptr ? ep->data_plane() : "smp");
  u("sendq_hw", ep != nullptr ? ep->sendq_high_water() : 0);
  u("shm_ring_hw", ep != nullptr ? ep->shm_ring_high_water() : 0);
  u("cpu_user_ns", o.cpu.user);
  u("cpu_sys_ns", o.cpu.sys);
  u("rss_kib", peak_rss_kib());
  u("otrace_appended", o.otrace_appended);
  u("otrace_records", o.records.size());
  for (std::size_t c = 0; c < telemetry::kCounterCount; ++c)
    if (o.ctr.counters[c] != 0)
      std::fprintf(f, "ctr %s %llu\n",
                   telemetry::to_string(static_cast<telemetry::counter>(c)),
                   static_cast<unsigned long long>(o.ctr.counters[c]));
  for (const auto& [k, v] : o.info)
    std::fprintf(f, "info %s %.17g\n", k.c_str(), v);
  o.lat.write(f, "lat");
  o.inject.write(f, "inject");
  o.wait.write(f, "wait");
  std::fputs("end\n", f);
  return std::fclose(f) == 0;
}

}  // namespace

const char* to_string(kind k) noexcept {
  switch (k) {
    case kind::rtt: return "rtt";
    case kind::gups_amo: return "gups_amo";
    case kind::gups_rpc: return "gups_rpc";
    case kind::bulk: return "bulk";
    case kind::match: return "match";
    case kind::eager_ratio: return "eager_ratio";
  }
  return "?";
}

bool parse_kind(const std::string& s, kind* out) noexcept {
  for (kind k : {kind::rtt, kind::gups_amo, kind::gups_rpc, kind::bulk,
                 kind::match, kind::eager_ratio})
    if (s == to_string(k)) {
      *out = k;
      return true;
    }
  return false;
}

std::vector<std::string> encode_child_args(const child_args& a) {
  auto d = [](double v) {
    char b[64];
    std::snprintf(b, sizeof b, "%.17g", v);
    return std::string(b);
  };
  return {"--child",
          std::string("kind=") + to_string(a.j.k),
          "conduit=" + a.j.conduit,
          "nranks=" + std::to_string(a.j.nranks),
          "bytes=" + std::to_string(a.j.bytes),
          "inflight=" + std::to_string(a.j.inflight),
          "rpc=" + std::to_string(a.j.rpc ? 1 : 0),
          "seed=" + std::to_string(a.seed),
          "warmup=" + d(a.warmup_s),
          "window=" + d(a.window_s),
          "t0=" + std::to_string(a.t0_ns),
          "out=" + a.out_dir,
          "spans=" + std::to_string(a.spans ? 1 : 0),
          "otrace=" + std::to_string(a.otrace_dump ? 1 : 0)};
}

bool decode_child_args(int argc, char** argv, child_args* out) {
  if (argc < 2 || std::strcmp(argv[1], "--child") != 0) return false;
  child_args a;
  for (int i = 2; i < argc; ++i) {
    const std::string kv = argv[i];
    const std::size_t eq = kv.find('=');
    if (eq == std::string::npos) return false;
    const std::string k = kv.substr(0, eq), v = kv.substr(eq + 1);
    const char* s = v.c_str();
    if (k == "kind") {
      if (!parse_kind(v, &a.j.k)) return false;
    } else if (k == "conduit") {
      a.j.conduit = v;
    } else if (k == "nranks") {
      a.j.nranks = std::atoi(s);
    } else if (k == "bytes") {
      a.j.bytes = std::strtoull(s, nullptr, 10);
    } else if (k == "inflight") {
      a.j.inflight = std::atoi(s);
    } else if (k == "rpc") {
      a.j.rpc = std::atoi(s) != 0;
    } else if (k == "seed") {
      a.seed = std::strtoull(s, nullptr, 10);
    } else if (k == "warmup") {
      a.warmup_s = std::strtod(s, nullptr);
    } else if (k == "window") {
      a.window_s = std::strtod(s, nullptr);
    } else if (k == "t0") {
      a.t0_ns = std::strtoull(s, nullptr, 10);
    } else if (k == "out") {
      a.out_dir = v;
    } else if (k == "spans") {
      a.spans = std::atoi(s) != 0;
    } else if (k == "otrace") {
      a.otrace_dump = std::atoi(s) != 0;
    } else {
      return false;
    }
  }
  *out = a;
  return true;
}

int run_child(const child_args& a) {
  gex::config g;
  if (a.j.conduit == "tcp")
    g.transport = gex::conduit::tcp;
  else if (a.j.conduit == "shm")
    g.transport = gex::conduit::shm;
  else
    g.transport = gex::conduit::smp;

  std::atomic<int> rc{0};
  aspen::spmd(a.j.nranks, g, [&] {
    barrier();
    const std::uint64_t setup_ns = rank_me() == 0 ? mono_ns() - a.t0_ns : 0;
    rank_out out(a.seed * 0x9E3779B97F4A7C15ull +
                 static_cast<unsigned>(rank_me()));
    switch (a.j.k) {
      case kind::rtt: run_rtt(a, out); break;
      case kind::bulk: run_bulk(a, out); break;
      case kind::gups_amo: run_gups_amo(a, out); break;
      case kind::gups_rpc: run_gups_rpc(a, out); break;
      case kind::match: run_match(a, out); break;
      case kind::eager_ratio: run_eager_ratio(a, out); break;
    }
    barrier();
    if (a.otrace_dump) {
      // Take the window's records before region exit, and leave the ring
      // empty so the endpoint's region-exit export writes nothing big.
      out.records = otrace::snapshot_records();
      otrace::clear();
    }
    if (!write_result(a, rank_me(), out, setup_ns)) rc = 1;
  });
  return rc.load();
}

}  // namespace aspen_bench
