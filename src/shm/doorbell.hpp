// aspen::shm — a parked consumer's doorbell: one shared word plus an eventfd.
//
// A rank blocked in future::wait() stops spinning after a run of empty
// progress calls and parks in poll(2). Its inbound rings touch no file
// descriptor, so a record pushed while it sleeps would wait out the whole
// park bound. The doorbell closes that gap:
//
//   [bell_header: parked word | pad]   front of the consumer's control segment
//   eventfd                            the consumer's, passed to producers
//
// The consumer sets `parked` before its last ring check and polls its
// eventfd beside its sockets; a producer that publishes a ring record and
// then sees `parked` set writes the eventfd. An awake consumer therefore
// costs the producer a fence and one shared load, never a syscall.
//
// Ordering contract (a Dekker pair, no lost wakeup): the consumer stores
// `parked` = 1, fences seq_cst, then loads the ring's head; the producer
// stores the ring's head, fences seq_cst, then loads `parked`. The two
// fences are totally ordered, so either the consumer sees the record (and
// does not sleep) or the producer sees the word (and writes the eventfd,
// which stays readable until drained, so a poll that starts after the
// write returns at once). Without the fences x86 may satisfy each load
// before its own earlier store drains, and both sides miss. ThreadSanitizer
// does not model standalone fences; the two-thread stress test in
// test_shm_ring.cpp is the evidence for this ordering.
#pragma once

#include <sys/eventfd.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>

namespace aspen::shm {

/// The shared half of a doorbell: one cache line, written only by the
/// consumer, read by its producers.
struct alignas(64) bell_header {
  std::atomic<std::uint32_t> parked{0};
  char pad[64 - sizeof(std::atomic<std::uint32_t>)];
};
static_assert(sizeof(bell_header) == 64, "bell header layout is fixed");
static_assert(std::atomic<std::uint32_t>::is_always_lock_free,
              "the parked word is shared across processes");

/// Non-owning view of one doorbell: the mapped word and an eventfd (the
/// consumer's own, or a producer's copy of it). Trivially copyable.
class doorbell {
 public:
  /// A non-blocking eventfd for a consumer's bell; -1 when refused.
  [[nodiscard]] static int create_fd() noexcept {
    return ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  }

  doorbell() = default;

  /// Initialize a fresh word over `mem` (the owner, before sharing it).
  static doorbell create(void* mem, int fd) noexcept {
    return {new (mem) bell_header, fd};
  }

  /// View a word another process initialized.
  static doorbell attach(void* mem, int fd) noexcept {
    return {static_cast<bell_header*>(mem), fd};
  }

  [[nodiscard]] bool valid() const noexcept {
    return h_ != nullptr && fd_ >= 0;
  }
  [[nodiscard]] int fd() const noexcept { return fd_; }

  // -- consumer side (one thread: the one that pumps the rings) -------------

  /// Announce a park. Call before the last inbound-ring check; a record
  /// published after that check then rings the eventfd.
  void arm() noexcept {
    h_->parked.store(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }

  /// End a park: clear the word, then reset the eventfd so the next park
  /// sleeps. A producer that saw the word just before it cleared may write
  /// after the drain; that leaves the eventfd readable and costs the next
  /// park one early return, never a lost record.
  void disarm() noexcept {
    h_->parked.store(0, std::memory_order_relaxed);
    std::uint64_t n = 0;
    (void)!::read(fd_, &n, sizeof n);
  }

  // -- producer side (any thread; after publishing a ring record) -----------

  /// Wake the consumer if it is parked. True iff the eventfd was written.
  bool ring() noexcept {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (h_->parked.load(std::memory_order_relaxed) == 0) return false;
    const std::uint64_t one = 1;
    (void)!::write(fd_, &one, sizeof one);
    return true;
  }

 private:
  doorbell(bell_header* h, int fd) noexcept : h_(h), fd_(fd) {}

  bell_header* h_ = nullptr;
  int fd_ = -1;
};

}  // namespace aspen::shm
