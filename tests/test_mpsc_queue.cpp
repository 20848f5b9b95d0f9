// MPSC queue tests: FIFO-per-producer delivery, drain semantics, a
// multi-threaded stress test, and a steady-state allocation count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include "gex/mpsc_queue.hpp"

using aspen::gex::mpsc_queue;

// Every operator new in this binary passes through here, so a test can
// count the allocations a window of queue operations makes.
namespace {
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

TEST(MpscQueue, EmptyDrainsNothing) {
  mpsc_queue<int> q;
  std::vector<int> out;
  EXPECT_FALSE(q.maybe_nonempty());
  EXPECT_EQ(q.drain_into(out), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(MpscQueue, SingleProducerFifo) {
  mpsc_queue<int> q;
  for (int i = 0; i < 100; ++i) q.push(i);
  EXPECT_TRUE(q.maybe_nonempty());
  std::vector<int> out;
  EXPECT_EQ(q.drain_into(out), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
  EXPECT_FALSE(q.maybe_nonempty());
}

TEST(MpscQueue, DrainAppendsToExistingVector) {
  mpsc_queue<int> q;
  q.push(2);
  std::vector<int> out{1};
  q.drain_into(out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 2);
}

TEST(MpscQueue, InterleavedPushDrain) {
  mpsc_queue<int> q;
  std::vector<int> out;
  q.push(1);
  q.drain_into(out);
  q.push(2);
  q.push(3);
  q.drain_into(out);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
}

TEST(MpscQueue, MoveOnlyElements) {
  mpsc_queue<std::unique_ptr<int>> q;
  q.push(std::make_unique<int>(5));
  std::vector<std::unique_ptr<int>> out;
  q.drain_into(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(*out[0], 5);
}

// The consumer's drain swaps its empty buffer with the backlog, so after a
// warm-up that grows both buffers to the burst size, a push/drain cycle
// allocates nothing: the AM inbox and persona mailboxes drain on every
// progress() call.
TEST(MpscQueue, SteadyStateDrainDoesNotAllocate) {
  constexpr int kBurst = 64;
  mpsc_queue<int> q;
  std::vector<int> out;
  const auto cycle = [&] {
    for (int i = 0; i < kBurst; ++i) q.push(i);
    out.clear();
    ASSERT_EQ(q.drain_into(out), static_cast<std::size_t>(kBurst));
    ASSERT_EQ(out.back(), kBurst - 1);
  };
  for (int warm = 0; warm < 4; ++warm) cycle();
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) cycle();
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u)
      << "allocations over 1000 push/drain cycles of " << kBurst;
}

TEST(MpscQueue, MultiProducerStress) {
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 5'000;
  mpsc_queue<std::pair<int, int>> q;  // (producer, seq)
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) q.push({p, i});
    });
  }

  std::vector<std::pair<int, int>> got;
  got.reserve(kProducers * kPerProducer);
  while (got.size() < kProducers * kPerProducer) {
    q.drain_into(got);
    std::this_thread::yield();
  }
  for (auto& t : producers) t.join();

  // Every message delivered exactly once, and FIFO per producer.
  std::vector<int> next_seq(kProducers, 0);
  for (const auto& [p, seq] : got) {
    ASSERT_EQ(seq, next_seq[static_cast<std::size_t>(p)]);
    ++next_seq[static_cast<std::size_t>(p)];
  }
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(next_seq[p], kPerProducer);
}

TEST(MpscQueue, MultiProducerMoveOnlyConcurrentDrain) {
  // Move-only payloads under full contention, with the consumer draining
  // concurrently with the pushes (not just after a join). Exercises the
  // push/drain handoff the persona LPC mailbox depends on.
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 4'000;
  mpsc_queue<std::unique_ptr<int>> q;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        q.push(std::make_unique<int>(p * kPerProducer + i));
        if ((i & 0x3FF) == 0) std::this_thread::yield();
      }
    });
  }

  std::vector<std::unique_ptr<int>> got;
  got.reserve(kProducers * kPerProducer);
  std::vector<std::unique_ptr<int>> batch;
  while (got.size() < kProducers * kPerProducer) {
    batch.clear();
    if (q.drain_into(batch) == 0) {
      std::this_thread::yield();
      continue;
    }
    for (auto& e : batch) got.push_back(std::move(e));
  }
  for (auto& t : producers) t.join();
  EXPECT_FALSE(q.maybe_nonempty());

  // Exactly-once delivery and FIFO per producer.
  std::vector<int> next_seq(kProducers, 0);
  for (const auto& e : got) {
    ASSERT_NE(e, nullptr);
    const int p = *e / kPerProducer;
    const int seq = *e % kPerProducer;
    ASSERT_EQ(seq, next_seq[static_cast<std::size_t>(p)]);
    ++next_seq[static_cast<std::size_t>(p)];
  }
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(next_seq[p], kPerProducer);
}

TEST(MpscQueue, ApproxSizeIsSaneUnderContention) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2'000;
  mpsc_queue<int> q;
  std::atomic<bool> go{false};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kPerProducer; ++i) q.push(i);
    });
  }
  go.store(true, std::memory_order_release);

  std::size_t drained = 0;
  std::vector<int> out;
  while (drained < kProducers * kPerProducer) {
    const std::size_t approx = q.approx_size();
    EXPECT_LE(approx, kProducers * kPerProducer - drained);
    out.clear();
    drained += q.drain_into(out);
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(drained, static_cast<std::size_t>(kProducers) * kPerProducer);
  EXPECT_EQ(q.approx_size(), 0u);
}

}  // namespace
