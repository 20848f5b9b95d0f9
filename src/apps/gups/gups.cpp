#include "apps/gups/gups.hpp"

#include <stdexcept>

#include "benchutil/timer.hpp"

namespace aspen::apps::gups {

std::uint64_t starts(std::int64_t n) noexcept {
  while (n < 0) n += kPeriod;
  while (n > kPeriod) n -= kPeriod;
  if (n == 0) return 1;

  std::uint64_t m2[64];
  std::uint64_t temp = 1;
  for (auto& m : m2) {
    m = temp;
    temp = next_random(next_random(temp));
  }

  int i = 62;
  for (; i >= 0; --i)
    if ((n >> i) & 1) break;

  std::uint64_t ran = 2;
  while (i > 0) {
    temp = 0;
    for (int j = 0; j < 64; ++j)
      if ((ran >> j) & 1) temp ^= m2[j];
    ran = temp;
    --i;
    if ((n >> i) & 1) ran = next_random(ran);
  }
  return ran;
}

std::string_view to_string(variant v) noexcept {
  switch (v) {
    case variant::raw_cpp:
      return "raw C++";
    case variant::manual_localization:
      return "manual localization";
    case variant::rma_promises:
      return "pure RMA w/promises";
    case variant::rma_futures:
      return "pure RMA w/futures";
    case variant::amo_promises:
      return "atomics w/promises";
    case variant::amo_futures:
      return "atomics w/futures";
    case variant::rpc_ff:
      return "rpc fire-and-forget";
  }
  return "?";
}

const std::vector<variant>& all_variants() {
  static const std::vector<variant> v{
      variant::raw_cpp,          variant::manual_localization,
      variant::rma_promises,     variant::rma_futures,
      variant::amo_promises,     variant::amo_futures,
  };
  return v;
}

const std::vector<variant>& extended_variants() {
  static const std::vector<variant> v = [] {
    std::vector<variant> out = all_variants();
    out.push_back(variant::rpc_ff);
    return out;
  }();
  return v;
}

// ---------------------------------------------------------------------------
// table
// ---------------------------------------------------------------------------

table::table(const params& p) {
  const auto nranks = static_cast<std::uint64_t>(rank_n());
  size_ = std::uint64_t{1} << p.table_bits;
  if (size_ % nranks != 0)
    throw std::invalid_argument("gups: rank count must divide table size");
  per_rank_ = size_ / nranks;
  if ((per_rank_ & (per_rank_ - 1)) != 0)
    throw std::invalid_argument(
        "gups: per-rank slice must be a power of two (use a power-of-two "
        "rank count)");
  local_bits_ = 0;
  while ((std::uint64_t{1} << local_bits_) < per_rank_) ++local_bits_;

  auto mine = new_array<std::uint64_t>(per_rank_);
  // Gather every rank's slice pointer: rank r broadcasts in turn. (Setup
  // path, not timed.)
  slices_.resize(static_cast<std::size_t>(rank_n()));
  for (int r = 0; r < rank_n(); ++r)
    slices_[static_cast<std::size_t>(r)] = broadcast(mine, r);
  fill_identity();
}

table::~table() {
  barrier();
  deallocate(slices_[static_cast<std::size_t>(rank_me())]);
  barrier();
}

void table::fill_identity() {
  std::uint64_t* mine = local_slice();
  const std::uint64_t base =
      per_rank_ * static_cast<std::uint64_t>(rank_me());
  for (std::uint64_t i = 0; i < per_rank_; ++i) mine[i] = base + i;
  barrier();
}

std::uint64_t table::count_errors() {
  barrier();
  std::uint64_t* mine = local_slice();
  const std::uint64_t base =
      per_rank_ * static_cast<std::uint64_t>(rank_me());
  std::uint64_t local_errors = 0;
  for (std::uint64_t i = 0; i < per_rank_; ++i)
    if (mine[i] != base + i) ++local_errors;
  return allreduce_sum(local_errors);
}

// ---------------------------------------------------------------------------
// variants
// ---------------------------------------------------------------------------

namespace {

/// Per-rank slice of the HPCC random stream.
struct stream {
  std::uint64_t ran;
  explicit stream(const params& p)
      : ran(starts(static_cast<std::int64_t>(
            p.updates_per_rank * static_cast<std::uint64_t>(rank_me())))) {}
  std::uint64_t operator()() noexcept { return ran = next_random(ran); }
};

void run_raw_cpp(table& t, const params& p) {
  // Locality checks, downcasts and all library calls factored out of the
  // loop: precompute the raw base pointer of every slice.
  std::vector<std::uint64_t*> bases;
  bases.reserve(t.slices().size());
  for (const auto& gp : t.slices()) bases.push_back(gp.raw());
  const std::uint64_t mask = t.index_mask();
  const std::uint64_t per = t.per_rank();
  stream s(p);
  for (std::uint64_t u = 0; u < p.updates_per_rank; ++u) {
    const std::uint64_t ran = s();
    const std::uint64_t idx = ran & mask;
    bases[idx / per][idx % per] ^= ran;
  }
}

void run_manual_localization(table& t, const params& p) {
  const std::uint64_t mask = t.index_mask();
  stream s(p);
  promise<> pr;  // tracks the (rare) genuinely remote updates
  for (std::uint64_t u = 0; u < p.updates_per_rank; ++u) {
    const std::uint64_t ran = s();
    global_ptr<std::uint64_t> dest = t.locate(ran & mask);
    if (dest.is_local()) {
      *dest.local() ^= ran;
    } else {
      // Remote fallback: unsynchronized read-modify-write via RMA, as in
      // the original benchmark (lost updates permitted).
      std::uint64_t v = rget(dest).wait();
      rput(v ^ ran, dest, operation_cx::as_promise(pr));
    }
  }
  pr.finalize().wait();
}

void run_rma_promises(table& t, const params& p) {
  const std::uint64_t mask = t.index_mask();
  const std::uint64_t batch = p.batch;
  stream s(p);
  std::vector<std::uint64_t> rans(batch), vals(batch);
  std::vector<global_ptr<std::uint64_t>> dests(batch);
  for (std::uint64_t done = 0; done < p.updates_per_rank; done += batch) {
    const std::uint64_t n = std::min(batch, p.updates_per_rank - done);
    promise<> pg;
    for (std::uint64_t i = 0; i < n; ++i) {
      rans[i] = s();
      dests[i] = t.locate(rans[i] & mask);
      rget(dests[i], &vals[i], 1, operation_cx::as_promise(pg));
    }
    pg.finalize().wait();
    promise<> pp;
    for (std::uint64_t i = 0; i < n; ++i)
      rput(vals[i] ^ rans[i], dests[i], operation_cx::as_promise(pp));
    pp.finalize().wait();
  }
}

void run_rma_futures(table& t, const params& p) {
  const std::uint64_t mask = t.index_mask();
  const std::uint64_t batch = p.batch;
  stream s(p);
  std::vector<std::uint64_t> rans(batch), vals(batch);
  std::vector<global_ptr<std::uint64_t>> dests(batch);
  for (std::uint64_t done = 0; done < p.updates_per_rank; done += batch) {
    const std::uint64_t n = std::min(batch, p.updates_per_rank - done);
    future<> fg = make_future();
    for (std::uint64_t i = 0; i < n; ++i) {
      rans[i] = s();
      dests[i] = t.locate(rans[i] & mask);
      fg = when_all(fg, rget(dests[i], &vals[i], 1));
    }
    fg.wait();
    future<> fp = make_future();
    for (std::uint64_t i = 0; i < n; ++i)
      fp = when_all(fp, rput(vals[i] ^ rans[i], dests[i]));
    fp.wait();
  }
}

void run_amo_promises(atomic_domain<std::uint64_t>& ad, table& t,
                      const params& p) {
  const std::uint64_t mask = t.index_mask();
  const std::uint64_t batch = p.batch;
  stream s(p);
  for (std::uint64_t done = 0; done < p.updates_per_rank; done += batch) {
    const std::uint64_t n = std::min(batch, p.updates_per_rank - done);
    promise<> pr;
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t ran = s();
      ad.bit_xor(t.locate(ran & mask), ran, operation_cx::as_promise(pr));
    }
    pr.finalize().wait();
  }
}

void run_amo_futures(atomic_domain<std::uint64_t>& ad, table& t,
                     const params& p) {
  const std::uint64_t mask = t.index_mask();
  const std::uint64_t batch = p.batch;
  stream s(p);
  for (std::uint64_t done = 0; done < p.updates_per_rank; done += batch) {
    const std::uint64_t n = std::min(batch, p.updates_per_rank - done);
    future<> f = make_future();
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t ran = s();
      f = when_all(f, ad.bit_xor(t.locate(ran & mask), ran));
    }
    f.wait();
  }
}

/// Per-rank count of RPC updates applied to this rank's slice (used for
/// quiescence detection by the rpc_ff variant).
thread_local std::uint64_t rpc_updates_received = 0;

void run_rpc_ff(table& t, const params& p) {
  const std::uint64_t mask = t.index_mask();
  stream s(p);
  rpc_updates_received = 0;
  barrier();  // everyone reset before any update can arrive... (see below)
  for (std::uint64_t u = 0; u < p.updates_per_rank; ++u) {
    const std::uint64_t ran = s();
    const auto dest = t.locate(ran & mask);
    if (dest.where() == rank_me()) {
      *dest.local() ^= ran;  // self-targeted: apply directly
      ++rpc_updates_received;
    } else {
      rpc_ff(dest.where(), [](global_ptr<std::uint64_t> gp,
                              std::uint64_t val) {
        *gp.local() ^= val;
        ++rpc_updates_received;
      }, dest, ran);
    }
    if ((u & 0xFF) == 0) (void)progress();
  }
  // Quiescence: total applied updates must reach the global issue count.
  const std::uint64_t expected =
      p.updates_per_rank * static_cast<std::uint64_t>(rank_n());
  while (allreduce_sum(rpc_updates_received) < expected) (void)progress();
}

}  // namespace

result run_variant(variant v, table& t, const params& p) {
  // The atomic domain is constructed outside the timed region, as the real
  // benchmark does.
  atomic_domain<std::uint64_t> ad({gex::amo_op::bxor, gex::amo_op::load});

  barrier();
  bench::stopwatch sw;
  switch (v) {
    case variant::raw_cpp:
      run_raw_cpp(t, p);
      break;
    case variant::manual_localization:
      run_manual_localization(t, p);
      break;
    case variant::rma_promises:
      run_rma_promises(t, p);
      break;
    case variant::rma_futures:
      run_rma_futures(t, p);
      break;
    case variant::amo_promises:
      run_amo_promises(ad, t, p);
      break;
    case variant::amo_futures:
      run_amo_futures(ad, t, p);
      break;
    case variant::rpc_ff:
      run_rpc_ff(t, p);
      break;
  }
  const double local = sw.seconds();
  barrier();
  result r;
  r.seconds = allreduce_max(local);
  r.updates =
      p.updates_per_rank * static_cast<std::uint64_t>(rank_n());
  return r;
}

}  // namespace aspen::apps::gups
