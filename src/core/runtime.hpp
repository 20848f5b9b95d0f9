// SPMD runtime: rank launch, thread-local rank context, progress entry
// points, and the per-run world object.
//
// ASPEN ranks are threads of one process, each owning a shared-memory
// segment — the memory model of the paper's single-node process-shared-
// memory experiments. aspen::spmd(n, fn) runs fn on n rank threads and
// joins; inside fn the usual SPMD API (rank_me, rank_n, progress, barrier,
// RMA, ...) is available.
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/persona.hpp"
#include "core/progress.hpp"
#include "core/version.hpp"
#include "gex/backend.hpp"
#include "gex/config.hpp"

namespace aspen {

class world;

namespace detail {

/// Shared state for barrier/broadcast/reduce (see collectives.hpp).
struct coll_state {
  static constexpr std::size_t kSlotBytes = 192;

  struct alignas(64) slot {
    std::byte data[kSlotBytes];
  };

  std::atomic<int> arrived{0};
  std::atomic<std::uint64_t> phase{0};
  std::vector<slot> contrib;
  /// Variable-length broadcast staging area; protected by barriers.
  std::vector<std::byte> bulk_buf;

  /// Asynchronous-barrier state: arrivals are counted per epoch in a ring;
  /// `async_done_epoch` is the number of fully-arrived epochs (epochs
  /// complete strictly in order).
  static constexpr std::size_t kAsyncEpochRing = 64;
  std::array<std::atomic<int>, kAsyncEpochRing> async_arrived{};
  std::atomic<std::uint64_t> async_done_epoch{0};

  /// Monotonic sequence of world collectives on the socket conduit (each
  /// wire collective consumes one; only the rank thread touches it).
  std::uint64_t wire_seq = 0;

  explicit coll_state(int nranks)
      : contrib(static_cast<std::size_t>(nranks)) {}
};

/// Thread-local context of the calling rank. Worker threads spawned by
/// run_workers() carry their own copy (same rank, same world) so the SPMD
/// API works from them; their deferred completions bind to their own
/// personas (see core/persona.hpp).
struct rank_context {
  gex::runtime* rt = nullptr;
  world* w = nullptr;
  int rank = -1;
  version_config ver{};
  /// The rank's master persona (owned by the world). Held by the rank
  /// thread unless liberated; only its holder may poll the substrate.
  persona* master = nullptr;
  /// Monotonic id source for collectively-constructed objects
  /// (dist_object, atomic_domain).
  std::uint64_t next_collective_id = 0;
  /// This rank's next asynchronous-barrier epoch.
  std::uint64_t next_async_epoch = 0;
  /// True while this thread is inside progress-engine callback execution.
  bool in_progress = false;
};

[[nodiscard]] rank_context*& tls_context() noexcept;

[[nodiscard]] inline rank_context& ctx() noexcept {
  rank_context* c = tls_context();
  assert(c != nullptr && "ASPEN API called outside aspen::spmd");
  return *c;
}

[[nodiscard]] inline bool have_ctx() noexcept {
  return tls_context() != nullptr;
}

}  // namespace detail

/// The per-run global object: substrate runtime + collective scratch state
/// + the per-rank master personas.
class world {
 public:
  world(int nranks, gex::config gcfg, version_config ver)
      : rt_(nranks, gcfg), coll_(nranks), initial_ver_(ver) {
    masters_.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
      auto p = std::make_unique<persona>();
      // Keep the substrate's poll assertion in sync with the holder.
      p->set_holder_mirror(&rt_.state(r).master_holder);
      masters_.push_back(std::move(p));
    }
  }

  [[nodiscard]] gex::runtime& rt() noexcept { return rt_; }
  [[nodiscard]] detail::coll_state& coll() noexcept { return coll_; }
  [[nodiscard]] version_config initial_version() const noexcept {
    return initial_ver_;
  }
  [[nodiscard]] persona& master(int rank) noexcept {
    return *masters_[static_cast<std::size_t>(rank)];
  }

 private:
  gex::runtime rt_;
  detail::coll_state coll_;
  version_config initial_ver_;
  std::vector<std::unique_ptr<persona>> masters_;
};

/// The calling rank's master persona. Only its holder may poll the
/// substrate for this rank; the spmd launcher hands it to the rank thread.
[[nodiscard]] inline persona& master_persona() noexcept {
  assert(detail::ctx().master != nullptr);
  return *detail::ctx().master;
}

/// Release the calling rank's master persona (the caller must hold it) so
/// another thread can acquire it with persona_scope{master_persona()}. The
/// rank thread blocks at the end of spmd until it can reclaim the master,
/// so every scope that borrowed it must have exited by then.
void liberate_master_persona();

/// Rank of the calling thread within the current SPMD run.
[[nodiscard]] inline int rank_me() noexcept { return detail::ctx().rank; }

/// Number of ranks in the current SPMD run.
[[nodiscard]] inline int rank_n() noexcept {
  return detail::ctx().rt->nranks();
}

/// The active version emulation config of the calling rank.
[[nodiscard]] inline const version_config& current_version() noexcept {
  return detail::ctx().ver;
}

/// Replace the calling rank's version config. Benchmarks call this on every
/// rank (followed by a barrier) to sweep library versions; communication
/// must be quiescent at the switch.
inline void set_version_config(const version_config& v) noexcept {
  detail::ctx().ver = v;
}

/// Enter the progress engine: poll the substrate for active messages, then
/// fire deferred completion notifications enqueued before this call.
/// Returns the number of notifications + messages processed.
std::size_t progress();

namespace detail {
/// Yield the OS scheduler slice (used by idle wait loops to stay fair when
/// rank threads outnumber cores).
void wait_yield() noexcept;
}  // namespace detail

/// Run `fn` as an SPMD program on `nranks` rank threads. Blocks until all
/// ranks return. Exceptions thrown by ranks are captured; the first one (by
/// rank order) is rethrown after all threads join.
void spmd(int nranks, const std::function<void()>& fn);
void spmd(int nranks, gex::config gcfg, const std::function<void()>& fn);
void spmd(int nranks, gex::config gcfg, version_config ver,
          const std::function<void()>& fn);

/// Run `fn(worker_id)` on `nthreads` injector threads of the calling rank
/// (worker 0 is the calling thread itself; nthreads-1 threads are
/// spawned). Each worker gets its own rank context — same rank and world —
/// and its own default persona, so completions it defers execute on *its*
/// thread. The calling thread keeps the master persona and services the
/// progress engine until every worker returns, so workers may block in
/// wait() on remote (AM-path) operations. Workers must not call
/// collectives or construct collective objects. The first worker exception
/// (by id) is rethrown after all join.
void run_workers(int nthreads, const std::function<void(int)>& fn);

}  // namespace aspen
