// Multi-producer / single-consumer queue. Producers are any thread; the
// sole consumer is the owning rank's progress engine. It carries the
// in-process AM inbox (every AM on the smp conduit, self-sends on the
// process conduits), the persona LPC mailboxes and the perturbed conduit's
// inbox. Wire AMs do not pass through it: the endpoint runs them inside its
// pump (docs/NET.md §4).
#pragma once

#include <atomic>
#include <cstddef>
#include <iterator>
#include <mutex>
#include <utility>
#include <vector>

namespace aspen::gex {

/// A simple two-phase MPSC queue: producers append under a spinlock, the
/// consumer takes the whole backlog under the same lock and then processes
/// it lock-free. The backlog is a vector that a drain swaps with the
/// consumer's empty buffer, so the two buffers trade places and keep their
/// capacity: once both have grown to the largest burst, neither a push nor
/// a drain allocates.
template <typename T>
class mpsc_queue {
 public:
  mpsc_queue() = default;
  mpsc_queue(const mpsc_queue&) = delete;
  mpsc_queue& operator=(const mpsc_queue&) = delete;

  /// Enqueue one item. Callable from any thread.
  void push(T item) {
    std::lock_guard<spinlock> g(lock_);
    backlog_.push_back(std::move(item));
    approx_size_.store(backlog_.size(), std::memory_order_relaxed);
  }

  /// True if the queue *might* contain items. A cheap pre-check so the
  /// consumer's poll loop can skip taking the lock when idle.
  [[nodiscard]] bool maybe_nonempty() const noexcept {
    return approx_size_.load(std::memory_order_acquire) != 0;
  }

  /// Undrained item count as of the last push/drain. Exact the instant it
  /// is read under the lock, approximate otherwise; used by the perturbed
  /// conduit's bounded-inbox backpressure check.
  [[nodiscard]] std::size_t approx_size() const noexcept {
    return approx_size_.load(std::memory_order_acquire);
  }

  /// Move the entire backlog into `out` (appended). Returns number drained.
  /// An empty `out` swaps buffers with the backlog; a non-empty one takes
  /// the items by move. Consumer-thread only.
  std::size_t drain_into(std::vector<T>& out) {
    if (!maybe_nonempty()) return 0;
    std::lock_guard<spinlock> g(lock_);
    const std::size_t n = backlog_.size();
    if (out.empty()) {
      out.swap(backlog_);
    } else {
      out.insert(out.end(), std::make_move_iterator(backlog_.begin()),
                 std::make_move_iterator(backlog_.end()));
      backlog_.clear();
    }
    approx_size_.store(0, std::memory_order_relaxed);
    return n;
  }

 private:
  struct spinlock {
    std::atomic_flag flag = ATOMIC_FLAG_INIT;
    void lock() noexcept {
      while (flag.test_and_set(std::memory_order_acquire)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    }
    void unlock() noexcept { flag.clear(std::memory_order_release); }
  };

  spinlock lock_;
  std::vector<T> backlog_;
  std::atomic<std::size_t> approx_size_{0};
};

}  // namespace aspen::gex
