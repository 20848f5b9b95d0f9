#include "core/team.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "shm/mapper.hpp"

namespace aspen {

namespace detail {

namespace {

// (world, parent group uid, collective id, color)
using registry_key =
    std::tuple<const void*, std::uint64_t, std::uint64_t, int>;

std::mutex& registry_mutex() {
  static std::mutex mu;
  return mu;
}

std::map<registry_key, std::weak_ptr<group_state>>& registry() {
  static std::map<registry_key, std::weak_ptr<group_state>> reg;
  return reg;
}

/// The split child for `key`. The first member to arrive creates it, with
/// the wire key it computed; every member computes the same members and
/// key, so the others only check theirs.
std::shared_ptr<group_state> attach_child(const registry_key& key,
                                          std::vector<int> members,
                                          std::uint64_t wire_key) {
  std::lock_guard<std::mutex> g(registry_mutex());
  auto& reg = registry();
  // Purge expired entries opportunistically (setup path only).
  for (auto it = reg.begin(); it != reg.end();) {
    if (it->second.expired())
      it = reg.erase(it);
    else
      ++it;
  }
  auto it = reg.find(key);
  if (it != reg.end()) {
    if (auto sp = it->second.lock()) {
      assert(sp->members == members && "team id collision");
      assert(sp->wire_key == wire_key);
      return sp;
    }
  }
  // Uid 0 is the world's; a child's is unique in the process.
  static std::uint64_t next_uid = 1;
  auto sp = std::make_shared<group_state>(std::move(members), wire_key,
                                          next_uid++);
  reg[key] = sp;
  return sp;
}

/// FNV-1a over a stream of u64 words; derives child-team wire keys that
/// every member computes identically without any central allocation.
std::uint64_t mix_u64(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace

}  // namespace detail

team team::world() {
  detail::rank_context& c = detail::ctx();
  // Aliasing an empty owner: a non-owning handle on the world's group,
  // which outlives every team of the run.
  return team(std::shared_ptr<detail::group_state>(std::shared_ptr<void>(),
                                                   &c.w->group()),
              c.rank);
}

team team::split(int color, int key) const {
  if (color < 0) throw std::invalid_argument("team::split: color must be >= 0");
  detail::rank_context& c = detail::ctx();
  const std::uint64_t id = c.next_collective_id++;

  // Gather every member's (color, key); keep the world ranks of my color,
  // ordered by key (ties in parent-team order).
  struct entry {
    int color;
    int key;
  };
  std::vector<std::pair<int, int>> mates;  // (key, world rank)
  detail::gather(*g_, my_rank_, entry{color, key},
                 [&](std::size_t i, const entry& e) {
                   if (e.color == color)
                     mates.emplace_back(e.key, g_->members[i]);
                 });
  std::stable_sort(
      mates.begin(), mates.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<int> members;
  int my_new_rank = -1;
  for (const auto& mate : mates) {
    if (mate.second == c.rank) my_new_rank = static_cast<int>(members.size());
    members.push_back(mate.second);
  }
  assert(my_new_rank >= 0);

  // Wire identity: every member derives the same key from collectively-
  // known inputs (the per-process registry uid cannot serve — it is not
  // synchronized across processes).
  std::uint64_t wk = detail::mix_u64(g_->wire_key, id);
  wk = detail::mix_u64(wk, static_cast<std::uint64_t>(color));
  for (int m : members) wk = detail::mix_u64(wk, static_cast<std::uint64_t>(m));

  team result(detail::attach_child({c.w, g_->uid, id, color},
                                   std::move(members), wk),
              my_new_rank);
  // Hold the parent rendezvous until every member has attached, so no
  // member can observe (and expire) a half-constructed registry entry.
  detail::rendezvous(*g_);
  return result;
}

team local_team() {
  detail::rank_context& c = detail::ctx();
  // Color = pseudo-node index under the active locality model.
  const auto& cfg = c.rt->cfg();
  int color = 0;
  if (cfg.transport == gex::conduit::tcp) {
    // Every rank is its own process: nobody shares memory with anybody.
    color = c.rank;
  } else if (cfg.transport == gex::conduit::shm) {
    // Colors must agree collectively, and shares_memory() is transitive
    // here only when the whole job is mapped: one local team iff every
    // rank mapped every other, singleton teams otherwise (partial maps
    // would give overlapping-but-unequal neighborhoods).
    const auto* mp = shm::mapper::instance();
    color = mp != nullptr && mp->fully_mapped() ? 0 : c.rank;
  } else if (cfg.transport != gex::conduit::smp &&
             cfg.locality.node_size != 0) {
    color = static_cast<int>(static_cast<std::size_t>(c.rank) /
                             cfg.locality.node_size);
  }
  return team::world().split(color, c.rank);
}

}  // namespace aspen
