#include "core/collectives.hpp"

#include "net/endpoint.hpp"

namespace aspen {

namespace detail {

bool coll_wire_active() noexcept {
  const auto t = ctx().rt->cfg().transport;
  return t == gex::conduit::tcp || t == gex::conduit::shm;
}

std::vector<std::vector<std::byte>> coll_wire_exchange(
    group_state& g, const std::vector<std::byte>& mine) {
  net::endpoint* ep = net::endpoint::instance();
  assert(ep != nullptr && "wire collective outside a tcp spmd region");
  return ep->exchange(g.wire_key, g.wire_seq++, g.members, mine,
                      [] { return aspen::progress(); });
}

void rendezvous(group_state& g) {
  if (coll_wire_active()) {
    (void)coll_wire_exchange(g, {});
    return;
  }
  const int n = static_cast<int>(g.members.size());
  const std::uint64_t my_phase = g.phase.load(std::memory_order_relaxed);
  if (g.arrived.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
    g.arrived.store(0, std::memory_order_relaxed);
    g.phase.fetch_add(1, std::memory_order_release);
  } else {
    for (std::size_t idle = 0;
         g.phase.load(std::memory_order_acquire) == my_phase;) {
      if (aspen::progress() == 0) {
        if (++idle >= 64) wait_yield();
      } else {
        idle = 0;
      }
    }
  }
}

namespace {

/// Number of fully-arrived world async-barrier epochs. On the wire
/// conduits rank 0 releases epochs and the watermark lives on the
/// endpoint.
std::uint64_t async_done_epoch() {
  if (coll_wire_active())
    return net::endpoint::instance()->async_done_epoch();
  return ctx().w->async().done_epoch.load(std::memory_order_acquire);
}

void async_arrive(std::uint64_t epoch) {
  if (coll_wire_active()) {
    net::endpoint::instance()->async_arrive(epoch);
    return;
  }
  rank_context& c = ctx();
  async_epochs& ae = c.w->async();
  auto& slot = ae.arrived[epoch % kAsyncEpochRing];
  if (slot.fetch_add(1, std::memory_order_acq_rel) + 1 == c.rt->nranks()) {
    slot.store(0, std::memory_order_relaxed);
    // Epochs complete in order, so this increment publishes exactly
    // epoch+1 as the done watermark.
    ae.done_epoch.fetch_add(1, std::memory_order_release);
  }
}

/// Re-armed once per progress entry until the epoch completes. Bound to
/// the initiating persona: the barrier future becomes ready only on a
/// thread holding it.
void arm_async_barrier_poll(cell<>* c, std::uint64_t epoch) {
  current_persona().enqueue_deferred([c, epoch] {
    if (async_done_epoch() > epoch) {
      c->satisfy(1);
      c->drop_ref();
    } else {
      arm_async_barrier_poll(c, epoch);
    }
  });
}

}  // namespace

}  // namespace detail

void barrier() { detail::rendezvous(detail::ctx().w->group()); }

future<> barrier_async() {
  const std::uint64_t epoch = detail::ctx().next_async_epoch++;
  // Ring-capacity guard: wait (with progress) until the slot is free.
  while (epoch >= detail::async_done_epoch() + detail::kAsyncEpochRing) {
    aspen::progress();
  }
  detail::async_arrive(epoch);
  if (detail::async_done_epoch() > epoch) {
    // Last arriver (on the wire conduits, rank 0 as the last arriver):
    // eager, pooled, allocation-free.
    return make_future();
  }
  auto* cell = new detail::cell<>();
  cell->deps = 1;
  cell->add_ref();  // the poll task's reference
  detail::arm_async_barrier_poll(cell, epoch);
  return future<>(cell, /*add_ref=*/false);
}

}  // namespace aspen
