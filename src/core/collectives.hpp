// Collectives: barrier, broadcast, reductions.
//
// These are substrate conveniences used by applications for setup and
// teardown (the paper's apps use MPI collectives for initialization); all
// timed communication goes through RMA/atomics. Every collective keeps the
// progress engine turning while waiting, so outstanding AMs continue to
// drain.
//
// Each collective is written once, in namespace detail, against a
// group_state (runtime.hpp): the world's, or a team's (team.hpp). In-process
// ranks meet on the group's phase counter and exchange values through its
// slots; on the wire conduits the group's members make a star exchange
// over net::endpoint (members[0] coordinates) on the group's wire stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <type_traits>
#include <vector>

#include "core/future.hpp"
#include "core/runtime.hpp"

namespace aspen {

/// Block until every rank has entered the barrier. Services progress while
/// waiting.
void barrier();

/// Asynchronous barrier: registers this rank's arrival at the next barrier
/// epoch and returns a future readied once every rank has arrived at that
/// epoch. Epochs complete in order; at most detail::kAsyncEpochRing epochs
/// may be outstanding (further calls block until earlier epochs drain).
///
/// Eager-notification semantics extend naturally here (an ASPEN extension
/// in the spirit of the paper): if the caller is the *last* arriver the
/// barrier is already complete, and the returned future is the pooled
/// ready future<> — zero allocations, no progress-queue round trip.
/// Otherwise completion is delivered through the progress engine.
[[nodiscard]] future<> barrier_async();

namespace detail {

/// True when the calling rank's run uses a wire conduit (tcp or shm), in
/// which case every collective goes over the wire (ranks are separate
/// processes and a group_state only exists per process).
[[nodiscard]] bool coll_wire_active() noexcept;

/// All-to-all byte-blob exchange among g's members on g's wire stream.
/// Blocks, servicing full progress. Returns member-ordered contributions.
[[nodiscard]] std::vector<std::vector<std::byte>> coll_wire_exchange(
    group_state& g, const std::vector<std::byte>& mine);

/// Phase-counting rendezvous: returns after all of g's members arrive,
/// servicing progress while spinning.
void rendezvous(group_state& g);

/// Broadcast a trivially copyable value from group rank `root`; `me` is
/// the caller's group rank.
template <typename T>
[[nodiscard]] T broadcast(group_state& g, int me, T value, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(sizeof(T) <= group_state::kSlotBytes,
                "broadcast value too large for a slot; use broadcast_vector");
  const auto r = static_cast<std::size_t>(root);
  T out;
  if (coll_wire_active()) {
    std::vector<std::byte> mine(sizeof(T));
    if (me == root) std::memcpy(mine.data(), &value, sizeof(T));
    std::memcpy(&out, coll_wire_exchange(g, mine)[r].data(), sizeof(T));
    return out;
  }
  if (me == root) std::memcpy(g.contrib[r].data, &value, sizeof(T));
  rendezvous(g);
  std::memcpy(&out, g.contrib[r].data, sizeof(T));
  rendezvous(g);  // root may not reuse the slot until all read
  return out;
}

/// Broadcast a vector of trivially copyable elements from group rank
/// `root`.
template <typename T>
[[nodiscard]] std::vector<T> broadcast_vector(group_state& g, int me,
                                              const std::vector<T>& v,
                                              int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto r = static_cast<std::size_t>(root);
  const auto copy_out = [](const std::vector<std::byte>& blob) {
    std::vector<T> out(blob.size() / sizeof(T));
    if (!blob.empty()) std::memcpy(out.data(), blob.data(), blob.size());
    return out;
  };
  if (coll_wire_active()) {
    std::vector<std::byte> mine;
    if (me == root) {
      mine.resize(v.size() * sizeof(T));
      if (!mine.empty()) std::memcpy(mine.data(), v.data(), mine.size());
    }
    return copy_out(coll_wire_exchange(g, mine)[r]);
  }
  if (me == root) {
    g.bulk_buf.resize(v.size() * sizeof(T));
    if (!g.bulk_buf.empty())
      std::memcpy(g.bulk_buf.data(), v.data(), g.bulk_buf.size());
  }
  rendezvous(g);
  std::vector<T> out = copy_out(g.bulk_buf);
  rendezvous(g);
  return out;
}

/// Every member contributes `value`; `visit(i, x)` then sees member i's
/// contribution x for each group rank i in order.
template <typename T, typename Visit>
void gather(group_state& g, int me, const T& value, Visit&& visit) {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(sizeof(T) <= group_state::kSlotBytes);
  T x;
  if (coll_wire_active()) {
    std::vector<std::byte> mine(sizeof(T));
    std::memcpy(mine.data(), &value, sizeof(T));
    const auto all = coll_wire_exchange(g, mine);
    for (std::size_t i = 0; i < all.size(); ++i) {
      std::memcpy(&x, all[i].data(), sizeof(T));
      visit(i, x);
    }
    return;
  }
  std::memcpy(g.contrib[static_cast<std::size_t>(me)].data, &value,
              sizeof(T));
  rendezvous(g);
  for (std::size_t i = 0; i < g.members.size(); ++i) {
    std::memcpy(&x, g.contrib[i].data, sizeof(T));
    visit(i, x);
  }
  rendezvous(g);  // no member may overwrite its slot until all read
}

/// All-reduce with a binary combiner, applied in group-rank order (so
/// non-commutative combiners are deterministic).
template <typename T, typename Op>
[[nodiscard]] T allreduce(group_state& g, int me, T value, Op op) {
  T acc = value;
  gather(g, me, value, [&](std::size_t i, const T& x) {
    if (i == 0)
      acc = x;
    else
      acc = op(acc, x);
  });
  return acc;
}

}  // namespace detail

/// Broadcast a trivially copyable value (<= group_state::kSlotBytes) from
/// `root` to all ranks.
template <typename T>
[[nodiscard]] T broadcast(T value, int root) {
  detail::rank_context& c = detail::ctx();
  return detail::broadcast(c.w->group(), c.rank, value, root);
}

/// Broadcast a vector of trivially copyable elements from `root`.
template <typename T>
[[nodiscard]] std::vector<T> broadcast_vector(const std::vector<T>& v,
                                              int root) {
  detail::rank_context& c = detail::ctx();
  return detail::broadcast_vector(c.w->group(), c.rank, v, root);
}

/// All-reduce a trivially copyable value with a binary combiner (applied in
/// rank order, so non-commutative combiners are deterministic).
template <typename T, typename Op>
[[nodiscard]] T allreduce(T value, Op op) {
  detail::rank_context& c = detail::ctx();
  return detail::allreduce(c.w->group(), c.rank, value, op);
}

template <typename T>
[[nodiscard]] T allreduce_sum(T v) {
  return allreduce(v, std::plus<T>{});
}
template <typename T>
[[nodiscard]] T allreduce_min(T v) {
  return allreduce(v, [](T a, T b) { return b < a ? b : a; });
}
template <typename T>
[[nodiscard]] T allreduce_max(T v) {
  return allreduce(v, [](T a, T b) { return a < b ? b : a; });
}

}  // namespace aspen
