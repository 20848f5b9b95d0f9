// Teams — subsets of ranks with their own rank numbering and collectives.
//
// A team is created collectively (by splitting an existing team, as in
// upcxx::team::split / MPI_Comm_split) and provides barrier / broadcast /
// allreduce restricted to its members. The world team always exists.
//
// Implementation: a team is a handle on a detail::group_state, and its
// collectives are collectives.hpp's, run against that group. The world
// owns its group; a split child's group lives in a process-wide registry
// keyed by a collectively-agreed id, where the first member to arrive
// creates it and the others attach. Team handles are rank-local values.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "core/collectives.hpp"
#include "core/runtime.hpp"

namespace aspen {

class team {
 public:
  /// The team containing every rank: a handle on the world's own group
  /// (no registry use, no reference count).
  [[nodiscard]] static team world();

  /// Collectively split this team: members with the same `color` form a new
  /// team, ordered by (key, world rank). Every member of *this* team must
  /// call split with some color. Color must be >= 0.
  [[nodiscard]] team split(int color, int key) const;

  [[nodiscard]] int rank_me() const noexcept { return my_rank_; }
  [[nodiscard]] int rank_n() const noexcept {
    return static_cast<int>(g_->members.size());
  }

  /// Translate a team rank to the world rank.
  [[nodiscard]] int to_world(int team_rank) const noexcept {
    return g_->members[static_cast<std::size_t>(team_rank)];
  }
  /// Translate a world rank to this team's numbering (-1 if not a member).
  [[nodiscard]] int from_world(int world_rank) const noexcept {
    for (std::size_t i = 0; i < g_->members.size(); ++i)
      if (g_->members[i] == world_rank) return static_cast<int>(i);
    return -1;
  }

  /// Barrier over this team's members only.
  void barrier() const { detail::rendezvous(*g_); }

  /// Broadcast a trivially copyable value from team rank `root`.
  template <typename T>
  [[nodiscard]] T broadcast(T value, int root) const {
    return detail::broadcast(*g_, my_rank_, value, root);
  }

  /// All-reduce over the team (combined in team-rank order).
  template <typename T, typename Op>
  [[nodiscard]] T allreduce(T value, Op op) const {
    return detail::allreduce(*g_, my_rank_, value, op);
  }

  template <typename T>
  [[nodiscard]] T allreduce_sum(T v) const {
    return allreduce(v, std::plus<T>{});
  }

 private:
  team(std::shared_ptr<detail::group_state> g, int my_rank)
      : g_(std::move(g)), my_rank_(my_rank) {}

  std::shared_ptr<detail::group_state> g_;
  int my_rank_ = -1;
};

/// Split the world by pseudo-node (all co-located ranks), the analogue of
/// upcxx::local_team(). On the smp conduit this is the whole world.
[[nodiscard]] team local_team();

}  // namespace aspen
