#include "core/runtime.hpp"

#include "core/future_cell.hpp"
#include "core/log.hpp"
#include "core/telemetry.hpp"
#include "net/endpoint.hpp"
#include "net/wire.hpp"

#include <barrier>
#include <cstdio>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>

namespace aspen {

namespace detail {

rank_context*& tls_context() noexcept {
  static thread_local rank_context* c = nullptr;
  return c;
}

}  // namespace detail

namespace detail {

void wait_yield() noexcept {
  // Under a wired (socket) conduit, idle waits park on the transport so the
  // peer process this rank is waiting on gets the CPU immediately — a plain
  // yield between two spinning *processes* on a shared core degenerates
  // into one full scheduler timeslice per message. The in-process conduits
  // (and the smp legs run inside a tcp process) take the plain yield.
  if (have_ctx() && ctx().rt != nullptr) {
    if (gex::wire_transport* w = ctx().rt->wire()) {
      w->idle_wait();
      return;
    }
  }
  std::this_thread::yield();
}
}  // namespace detail

std::size_t progress() {
  detail::rank_context& c = detail::ctx();
  telemetry::count(telemetry::counter::progress_calls);
  telemetry::note_progress_tick();
  std::size_t n = 0;
  // Only the master-persona holder may poll the substrate. Worker threads
  // (run_workers) still make progress here: they drain their own personas'
  // mailboxes and deferred queues below, while the master holder executes
  // AM reply handlers and routes completions back to them via LPC.
  if (c.master == nullptr || c.master->active_with_caller())
    n += c.rt->poll(c.rank);
  const bool prev = c.in_progress;
  c.in_progress = true;
  n += detail::drain_active_personas();
  c.in_progress = prev;
  return n;
}

void liberate_master_persona() {
  persona* m = detail::ctx().master;
  assert(m != nullptr && "liberate_master_persona outside aspen::spmd");
  m->release_from_caller();
}

void run_workers(int nthreads, const std::function<void(int)>& fn) {
  if (nthreads <= 1) {
    if (nthreads == 1) fn(0);
    return;
  }
  detail::rank_context& parent = detail::ctx();
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nthreads));
  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nthreads) - 1);
  for (int wid = 1; wid < nthreads; ++wid) {
    threads.emplace_back([&, wid] {
      detail::rank_context wc;
      wc.rt = parent.rt;
      wc.w = parent.w;
      wc.rank = parent.rank;
      wc.ver = parent.ver;
      wc.master = parent.master;
      detail::tls_context() = &wc;
      telemetry::set_thread_rank(parent.rank);
      try {
        fn(wid);
      } catch (...) {
        errors[static_cast<std::size_t>(wid)] = std::current_exception();
      }
      done.fetch_add(1, std::memory_order_release);
      detail::tls_context() = nullptr;
    });
  }
  try {
    fn(0);
  } catch (...) {
    errors[0] = std::current_exception();
  }
  // Keep the progress engine turning while workers run: only this thread
  // (the master-persona holder) can poll, and workers blocked in wait() on
  // AM-path operations depend on the reply handlers running here.
  while (done.load(std::memory_order_acquire) < nthreads - 1) {
    if (progress() == 0) detail::wait_yield();
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
}

namespace {

/// Multi-process SPMD (conduit::tcp and conduit::shm): this process IS one
/// rank of an `aspen-run` job. The runtime still carries nranks rank-state
/// slots (segment addressing and counters are rank-indexed), but only the
/// env-assigned rank runs user code here; everything cross-rank rides the
/// socket endpoint (and, on shm, the shared-memory rings behind it), which
/// persists across successive spmd regions.
void spmd_net(int nranks, gex::config gcfg, version_config ver,
              const std::function<void()>& fn) {
  if (!net::endpoint::launched()) {
    aspen::fatal("spmd with a multi-process conduit outside an "
                 "aspen-run job. Launch this program as `aspen-run -n %d "
                 "<prog>`.",
                 nranks);
  }
  gcfg.net = net::apply_env(gcfg.net);
  net::endpoint& ep = net::endpoint::ensure(gcfg.net, gcfg.segment_bytes);
  if (ep.nranks() != nranks)
    throw std::invalid_argument(
        "spmd: nranks must equal the aspen-run job size (-n) under the "
        "multi-process conduits");
  const int rank = ep.self_rank();

  // Arm (or disarm) the shared-memory fast path for this region before the
  // runtime maps the arena: a conduit::tcp region in the same process must
  // behave socket-only even though the rings stay wired.
  ep.set_region_shm(gcfg.transport == gex::conduit::shm);

  world w(nranks, gcfg, ver);
  w.rt().attach_wire(&ep);

  detail::rank_context rc;
  rc.rt = &w.rt();
  rc.w = &w;
  rc.rank = rank;
  rc.ver = ver;
  rc.master = &w.master(rank);
  detail::tls_context() = &rc;
  telemetry::set_thread_rank(rank);
  rc.master->acquire_for_caller();
  (void)detail::pooled_ready_cell();

  const net::progress_fn progress_all = [] { return aspen::progress(); };
  // All processes have a live runtime for this region before any user
  // frame flows (and frames of the previous region are fully settled).
  ep.begin_region(progress_all);

  std::exception_ptr err;
  try {
    fn();
  } catch (...) {
    err = std::current_exception();
  }
  if (!rc.master->active_with_caller()) rc.master->acquire_for_caller();

  if (err == nullptr) {
    // Quiesce: no frame of this region may still be in flight anywhere.
    ep.end_region(progress_all);
    while (w.rt().poll(rank) + detail::drain_active_personas() != 0 ||
           w.rt().has_pending(rank)) {
    }
  }
  // On error there is no collective teardown to run — siblings may be
  // wedged mid-collective. Rethrow; the uncaught exception (or nonzero
  // exit) brings the launcher's supervision down on the whole job.

  rc.master->release_from_caller();
  detail::tls_context() = nullptr;
  w.rt().attach_wire(nullptr);
  if (err) std::rethrow_exception(err);
}

}  // namespace

void spmd(int nranks, gex::config gcfg, version_config ver,
          const std::function<void()>& fn) {
  if (nranks < 1) throw std::invalid_argument("spmd: nranks must be >= 1");
  if (detail::have_ctx())
    throw std::logic_error("spmd: nested SPMD runs are not supported");

  if (gcfg.transport == gex::conduit::tcp ||
      gcfg.transport == gex::conduit::shm) {
    spmd_net(nranks, gcfg, ver, fn);
    return;
  }

  world w(nranks, gcfg, ver);
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));
  std::barrier sync(nranks);
  std::atomic<int> done{0};

  auto body = [&](int rank) {
    detail::rank_context rc;
    rc.rt = &w.rt();
    rc.w = &w;
    rc.rank = rank;
    rc.ver = ver;
    rc.master = &w.master(rank);
    detail::tls_context() = &rc;
    telemetry::set_thread_rank(rank);
    // The rank thread starts out holding its master persona (stacked above
    // its default persona), making it both this rank's poller and the
    // initiating persona for completions fn() defers.
    rc.master->acquire_for_caller();
    // Pre-warm the master persona's pooled ready cell so the one-time
    // allocation happens at rank birth, not inside user code's first
    // make_future() (tests and benchmarks measure allocation elision).
    (void)detail::pooled_ready_cell();
    sync.arrive_and_wait();  // all contexts live before user code runs
    try {
      fn();
    } catch (...) {
      errors[static_cast<std::size_t>(rank)] = std::current_exception();
    }
    // If fn() liberated the master persona to a worker thread and has not
    // reacquired it, reclaim it now (blocks until the borrower's scope
    // exits) — the shutdown drains below must be entitled to poll.
    if (!rc.master->active_with_caller()) rc.master->acquire_for_caller();
    // Keep servicing AMs until every rank is done with user code, so a rank
    // still blocked in an RPC round trip or collective can be answered even
    // by ranks that returned early.
    done.fetch_add(1, std::memory_order_acq_rel);
    while (done.load(std::memory_order_acquire) < nranks) {
      if (w.rt().poll(rank) + detail::drain_active_personas() == 0)
        std::this_thread::yield();
    }
    sync.arrive_and_wait();
    // Final drain. On the perturbed conduit a message may still be held for
    // several future polls, so keep polling until nothing is pending; a
    // single poll would silently drop held messages at shutdown.
    while (w.rt().poll(rank) + detail::drain_active_personas() != 0 ||
           w.rt().has_pending(rank)) {
    }
    rc.master->release_from_caller();
    detail::tls_context() = nullptr;
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks) - 1);
  for (int r = 1; r < nranks; ++r) threads.emplace_back(body, r);
  body(0);
  for (auto& t : threads) t.join();

  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
}

void spmd(int nranks, gex::config gcfg, const std::function<void()>& fn) {
  spmd(nranks, gcfg, version_config::current_default(), fn);
}

void spmd(int nranks, const std::function<void()>& fn) {
  spmd(nranks, gex::config{}, version_config::current_default(), fn);
}

}  // namespace aspen
