// Shared-memory collectives: barrier, broadcast, reductions.
//
// These are substrate conveniences used by applications for setup and
// teardown (the paper's apps use MPI collectives for initialization); all
// timed communication goes through RMA/atomics. Every collective keeps the
// progress engine turning while waiting, so outstanding AMs continue to
// drain.
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
/// epoch. Epochs complete in order; at most coll_state::kAsyncEpochRing
/// epochs may be outstanding (further calls block until earlier epochs
/// drain).
///
/// Eager-notification semantics extend naturally here (an ASPEN extension
/// in the spirit of the paper): if the caller is the *last* arriver the
/// barrier is already complete, and the returned future is the pooled
/// ready future<> — zero allocations, no progress-queue round trip.
/// Otherwise completion is delivered through the progress engine.
[[nodiscard]] future<> barrier_async();

namespace detail {

/// Phase-counting rendezvous used by all collectives: returns after all
/// ranks arrive, servicing progress while spinning.
void coll_rendezvous();

// ---- socket-conduit dispatch (conduit::tcp; implemented over
// net::endpoint in collectives.cpp) --------------------------------------

/// True when the calling rank's run uses conduit::tcp, in which case every
/// collective must go over the wire (ranks are separate processes and the
/// shared coll_state slots only exist per process).
[[nodiscard]] bool coll_wire_active() noexcept;

/// All-to-all byte-blob exchange among `members` (world ranks, identical
/// list in every member; members.front() coordinates). (key, seq) must
/// identify this collective identically in every member. Blocks, servicing
/// full progress. Returns member-ordered contributions.
[[nodiscard]] std::vector<std::vector<std::byte>> coll_wire_exchange(
    std::uint64_t key, std::uint64_t seq, const std::vector<int>& members,
    const std::vector<std::byte>& mine);

/// World-team convenience: members = 0..rank_n-1.
[[nodiscard]] std::vector<std::vector<std::byte>> coll_wire_exchange(
    std::uint64_t key, std::uint64_t seq, const std::vector<std::byte>& mine);

/// Collective key of the world coll_state's wire stream.
inline constexpr std::uint64_t kWorldCollWireKey = 0xA5C0000000000001ull;

}  // namespace detail

/// Broadcast a trivially copyable value (<= coll_state::kSlotBytes) from
/// `root` to all ranks.
template <typename T>
[[nodiscard]] T broadcast(T value, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(sizeof(T) <= detail::coll_state::kSlotBytes,
                "broadcast value too large for a slot; use broadcast_vector");
  detail::rank_context& c = detail::ctx();
  detail::coll_state& cs = c.w->coll();
  if (detail::coll_wire_active()) {
    std::vector<std::byte> mine(sizeof(T));
    if (c.rank == root) std::memcpy(mine.data(), &value, sizeof(T));
    auto all = detail::coll_wire_exchange(detail::kWorldCollWireKey,
                                          cs.wire_seq++, mine);
    T out;
    std::memcpy(&out, all[static_cast<std::size_t>(root)].data(), sizeof(T));
    return out;
  }
  if (c.rank == root)
    std::memcpy(cs.contrib[static_cast<std::size_t>(root)].data, &value,
                sizeof(T));
  detail::coll_rendezvous();
  T out;
  std::memcpy(&out, cs.contrib[static_cast<std::size_t>(root)].data,
              sizeof(T));
  detail::coll_rendezvous();  // root may not reuse the slot until all read
  return out;
}

/// Broadcast a vector of trivially copyable elements from `root`.
template <typename T>
[[nodiscard]] std::vector<T> broadcast_vector(const std::vector<T>& v,
                                              int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  detail::rank_context& c = detail::ctx();
  detail::coll_state& cs = c.w->coll();
  if (detail::coll_wire_active()) {
    std::vector<std::byte> mine;
    if (c.rank == root) {
      mine.resize(v.size() * sizeof(T));
      if (!mine.empty()) std::memcpy(mine.data(), v.data(), mine.size());
    }
    auto all = detail::coll_wire_exchange(detail::kWorldCollWireKey,
                                          cs.wire_seq++, mine);
    const auto& blob = all[static_cast<std::size_t>(root)];
    std::vector<T> out(blob.size() / sizeof(T));
    if (!blob.empty()) std::memcpy(out.data(), blob.data(), blob.size());
    return out;
  }
  if (c.rank == root) {
    cs.bulk_buf.resize(v.size() * sizeof(T));
    if (!cs.bulk_buf.empty())
      std::memcpy(cs.bulk_buf.data(), v.data(), cs.bulk_buf.size());
  }
  detail::coll_rendezvous();
  std::vector<T> out(cs.bulk_buf.size() / sizeof(T));
  if (!cs.bulk_buf.empty())
    std::memcpy(out.data(), cs.bulk_buf.data(), cs.bulk_buf.size());
  detail::coll_rendezvous();
  return out;
}

/// All-reduce a trivially copyable value with a binary combiner (applied in
/// rank order, so non-commutative combiners are deterministic).
template <typename T, typename Op>
[[nodiscard]] T allreduce(T value, Op op) {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(sizeof(T) <= detail::coll_state::kSlotBytes);
  detail::rank_context& c = detail::ctx();
  detail::coll_state& cs = c.w->coll();
  if (detail::coll_wire_active()) {
    std::vector<std::byte> mine(sizeof(T));
    std::memcpy(mine.data(), &value, sizeof(T));
    auto all = detail::coll_wire_exchange(detail::kWorldCollWireKey,
                                          cs.wire_seq++, mine);
    T acc;
    std::memcpy(&acc, all[0].data(), sizeof(T));
    for (std::size_t r = 1; r < all.size(); ++r) {
      T x;
      std::memcpy(&x, all[r].data(), sizeof(T));
      acc = op(acc, x);
    }
    return acc;
  }
  std::memcpy(cs.contrib[static_cast<std::size_t>(c.rank)].data, &value,
              sizeof(T));
  detail::coll_rendezvous();
  T acc;
  std::memcpy(&acc, cs.contrib[0].data, sizeof(T));
  const int n = c.rt->nranks();
  for (int r = 1; r < n; ++r) {
    T x;
    std::memcpy(&x, cs.contrib[static_cast<std::size_t>(r)].data, sizeof(T));
    acc = op(acc, x);
  }
  detail::coll_rendezvous();
  return acc;
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
