// aspen::shm::spsc_ring and shm::doorbell unit tests — single process,
// both ring views over one private buffer and both bell views over one
// memory block and one eventfd (the cross-process legs live in
// test_net_spmd's ShmSpmd suite; neither is aware of which side of a fork
// it sits on).
#include <gtest/gtest.h>

#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "shm/doorbell.hpp"
#include "shm/ring.hpp"

namespace {

using aspen::shm::bell_header;
using aspen::shm::doorbell;
using aspen::shm::ring_header;
using aspen::shm::spsc_ring;

std::vector<std::byte> ring_mem(std::size_t capacity) {
  // Over-allocate so placement-new alignment never matters in the test.
  return std::vector<std::byte>(spsc_ring::footprint(capacity) + 64);
}

TEST(ShmRing, CapacityClamps) {
  EXPECT_EQ(spsc_ring::clamp_capacity(0), spsc_ring::kMinCapacity);
  EXPECT_EQ(spsc_ring::clamp_capacity(1), spsc_ring::kMinCapacity);
  EXPECT_EQ(spsc_ring::clamp_capacity(spsc_ring::kMinCapacity),
            spsc_ring::kMinCapacity);
  // Non-powers round up to the next power of two.
  EXPECT_EQ(spsc_ring::clamp_capacity(spsc_ring::kMinCapacity + 1),
            spsc_ring::kMinCapacity * 2);
  EXPECT_EQ(spsc_ring::clamp_capacity((1u << 20) - 3), 1u << 20);
  EXPECT_EQ(spsc_ring::clamp_capacity(spsc_ring::kMaxCapacity),
            spsc_ring::kMaxCapacity);
  EXPECT_EQ(spsc_ring::clamp_capacity(spsc_ring::kMaxCapacity + 1),
            spsc_ring::kMaxCapacity);
  EXPECT_EQ(spsc_ring::clamp_capacity(~std::size_t{0}),
            spsc_ring::kMaxCapacity);
}

TEST(ShmRing, RecordFootprintPadsToEight) {
  EXPECT_EQ(spsc_ring::record_footprint(0), 8u);
  EXPECT_EQ(spsc_ring::record_footprint(1), 16u);
  EXPECT_EQ(spsc_ring::record_footprint(8), 16u);
  EXPECT_EQ(spsc_ring::record_footprint(9), 24u);
  EXPECT_EQ(spsc_ring::record_footprint(16), 24u);
}

TEST(ShmRing, CreateAttachAndMagicValidation) {
  auto mem = ring_mem(spsc_ring::kMinCapacity);
  spsc_ring w = spsc_ring::create(mem.data(), spsc_ring::kMinCapacity);
  ASSERT_TRUE(w.valid());
  EXPECT_EQ(w.capacity(), spsc_ring::kMinCapacity);

  spsc_ring r = spsc_ring::attach(mem.data());
  ASSERT_TRUE(r.valid());
  EXPECT_EQ(r.capacity(), spsc_ring::kMinCapacity);

  // Attach must reject a segment that was never initialized (wrong magic)
  // or carries a corrupt non-power-of-two capacity.
  std::vector<std::byte> junk(sizeof(ring_header), std::byte{0x5a});
  EXPECT_FALSE(spsc_ring::attach(junk.data()).valid());
  auto* h = reinterpret_cast<ring_header*>(mem.data());
  h->capacity = spsc_ring::kMinCapacity - 1;
  EXPECT_FALSE(spsc_ring::attach(mem.data()).valid());
  h->capacity = spsc_ring::kMinCapacity;
  EXPECT_TRUE(spsc_ring::attach(mem.data()).valid());
}

TEST(ShmRing, PushPopRoundTrip) {
  auto mem = ring_mem(spsc_ring::kMinCapacity);
  spsc_ring w = spsc_ring::create(mem.data(), spsc_ring::kMinCapacity);
  spsc_ring r = spsc_ring::attach(mem.data());
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.front_size(), 0u);

  const char msg[] = "hello rings";
  ASSERT_TRUE(w.try_push(msg, sizeof msg));
  EXPECT_FALSE(r.empty());
  ASSERT_EQ(r.front_size(), sizeof msg);
  char out[sizeof msg] = {};
  r.pop_front(out);
  EXPECT_STREQ(out, msg);
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.depth_bytes(), 0u);
}

TEST(ShmRing, TwoSpanPushReassembles) {
  auto mem = ring_mem(spsc_ring::kMinCapacity);
  spsc_ring w = spsc_ring::create(mem.data(), spsc_ring::kMinCapacity);
  spsc_ring r = spsc_ring::attach(mem.data());

  const std::uint64_t hdr = 0x1122334455667788ull;
  const char body[] = "payload-after-header";
  ASSERT_TRUE(w.try_push2(&hdr, sizeof hdr, body, sizeof body));
  ASSERT_EQ(r.front_size(), sizeof hdr + sizeof body);
  std::vector<char> out(sizeof hdr + sizeof body);
  r.pop_front(out.data());
  std::uint64_t got_hdr = 0;
  std::memcpy(&got_hdr, out.data(), sizeof got_hdr);
  EXPECT_EQ(got_hdr, hdr);
  EXPECT_STREQ(out.data() + sizeof hdr, body);
}

// A record larger than the bytes left before the physical end of the
// buffer must split into two memcpys and reassemble bit-exactly — driven
// far enough that every wrap offset is exercised.
TEST(ShmRing, WrapAroundPreservesRecords) {
  constexpr std::size_t kCap = spsc_ring::kMinCapacity;  // 4 KiB
  auto mem = ring_mem(kCap);
  spsc_ring w = spsc_ring::create(mem.data(), kCap);
  spsc_ring r = spsc_ring::attach(mem.data());

  // 100-byte records, 108-byte footprint: the free-running index is never
  // a multiple of the capacity, so records straddle the edge regularly.
  std::vector<std::uint8_t> rec(100);
  std::vector<std::uint8_t> out(100);
  for (int i = 0; i < 1000; ++i) {
    for (std::size_t j = 0; j < rec.size(); ++j)
      rec[j] = static_cast<std::uint8_t>(i * 31 + j);
    ASSERT_TRUE(w.try_push(rec.data(), rec.size())) << "iteration " << i;
    ASSERT_EQ(r.front_size(), rec.size());
    r.pop_front(out.data());
    ASSERT_EQ(out, rec) << "payload torn at iteration " << i;
  }
  EXPECT_TRUE(r.empty());
}

// copy_front peeks without consuming: a reader that abandons a record
// mid-pump (the endpoint does this when its staging allocation fails)
// resumes at the identical bytes, and only consume_front advances.
TEST(ShmRing, TornReaderResumesAtSameRecord) {
  auto mem = ring_mem(spsc_ring::kMinCapacity);
  spsc_ring w = spsc_ring::create(mem.data(), spsc_ring::kMinCapacity);
  spsc_ring r = spsc_ring::attach(mem.data());

  const char first[] = "first-record";
  const char second[] = "second-record";
  ASSERT_TRUE(w.try_push(first, sizeof first));
  ASSERT_TRUE(w.try_push(second, sizeof second));

  char peek1[sizeof first] = {};
  char peek2[sizeof first] = {};
  ASSERT_EQ(r.front_size(), sizeof first);
  r.copy_front(peek1);
  // Abandon, come back later: same record, same bytes.
  ASSERT_EQ(r.front_size(), sizeof first);
  r.copy_front(peek2);
  EXPECT_STREQ(peek1, first);
  EXPECT_STREQ(peek2, first);

  r.consume_front();
  ASSERT_EQ(r.front_size(), sizeof second);
  char out[sizeof second] = {};
  r.pop_front(out);
  EXPECT_STREQ(out, second);
  EXPECT_TRUE(r.empty());
}

// front_view hands out the front record where it lies, at the same bytes
// copy_front would copy, until it straddles the buffer end: then it is null
// and the reader copies instead (the endpoint's one scratch copy).
TEST(ShmRing, FrontViewIsInPlaceUnlessTheRecordWraps) {
  constexpr std::size_t kCap = spsc_ring::kMinCapacity;
  auto mem = ring_mem(kCap);
  spsc_ring w = spsc_ring::create(mem.data(), kCap);
  spsc_ring r = spsc_ring::attach(mem.data());
  const std::byte* data = mem.data() + sizeof(ring_header);

  std::vector<std::uint8_t> rec(100);  // 108-byte footprint: wraps at times
  std::vector<std::uint8_t> copy(rec.size());
  int views = 0;
  int wraps = 0;
  for (int i = 0; i < 200; ++i) {
    for (std::size_t j = 0; j < rec.size(); ++j)
      rec[j] = static_cast<std::uint8_t>(i * 7 + j);
    ASSERT_TRUE(w.try_push(rec.data(), rec.size()));
    const std::size_t sz = r.front_size();
    ASSERT_EQ(sz, rec.size());
    const std::byte* view = r.front_view(sz);
    r.copy_front(copy.data());
    ASSERT_EQ(copy, rec) << "record " << i;
    if (view != nullptr) {
      ++views;
      ASSERT_GE(view, data);
      ASSERT_LE(view + sz, data + kCap);
      ASSERT_EQ(std::memcmp(view, rec.data(), sz), 0) << "record " << i;
    } else {
      ++wraps;
    }
    r.consume_front();
  }
  EXPECT_GT(views, 0);
  EXPECT_GT(wraps, 0) << "no record straddled the buffer end";
  EXPECT_TRUE(r.empty());
}

// A length prefix that claims more bytes than the producer published is
// malformed: front_size says so instead of returning it, so the reader
// never copies past the record (or past the buffer, for a prefix above
// the capacity). Only a prefix that fits the published bytes is a length.
TEST(ShmRing, LengthPrefixPastThePublishedBytesIsMalformed) {
  constexpr std::size_t kCap = spsc_ring::kMinCapacity;
  auto mem = ring_mem(kCap);
  spsc_ring w = spsc_ring::create(mem.data(), kCap);
  spsc_ring r = spsc_ring::attach(mem.data());
  std::byte* prefix = mem.data() + sizeof(ring_header);  // tail is 0

  const std::uint8_t rec[16] = {1, 2, 3};
  ASSERT_TRUE(w.try_push(rec, sizeof rec));  // 24 bytes published
  const auto set_prefix = [&](std::uint64_t len) {
    std::memcpy(prefix, &len, sizeof len);
  };
  for (const std::uint64_t bad :
       {std::uint64_t{3} * kCap, std::uint64_t{kCap} + 64,
        std::uint64_t{kCap}, std::uint64_t{17},
        ~std::uint64_t{0}}) {
    set_prefix(bad);
    EXPECT_EQ(r.front_size(), spsc_ring::kMalformed) << "prefix " << bad;
  }
  set_prefix(16);
  EXPECT_EQ(r.front_size(), 16u);
  r.consume_front();
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.front_size(), 0u);
}

// A full ring refuses the push (wait-free backpressure: the endpoint falls
// back to the socket) and accepts again once the consumer drains.
TEST(ShmRing, FullRingBackpressure) {
  constexpr std::size_t kCap = spsc_ring::kMinCapacity;
  auto mem = ring_mem(kCap);
  spsc_ring w = spsc_ring::create(mem.data(), kCap);
  spsc_ring r = spsc_ring::attach(mem.data());

  std::vector<std::uint8_t> rec(56);  // 64-byte footprint
  std::size_t pushed = 0;
  while (w.try_push(rec.data(), rec.size())) ++pushed;
  EXPECT_EQ(pushed, kCap / 64);
  EXPECT_FALSE(w.can_push(rec.size()));
  EXPECT_EQ(w.free_bytes(), 0u);
  EXPECT_EQ(r.depth_bytes(), kCap);

  // One drain opens exactly one slot.
  std::vector<std::uint8_t> out(rec.size());
  r.pop_front(out.data());
  EXPECT_TRUE(w.can_push(rec.size()));
  EXPECT_TRUE(w.try_push(rec.data(), rec.size()));
  EXPECT_FALSE(w.can_push(rec.size()));

  // A record that can never fit is refused even on an empty ring.
  while (!r.empty()) {
    ASSERT_EQ(r.front_size(), rec.size());
    r.consume_front();
  }
  std::vector<std::uint8_t> huge(kCap);
  EXPECT_FALSE(w.try_push(huge.data(), huge.size()));
}

// Concurrent producer/consumer threads over the shared header: the release/
// acquire pair must never surface a torn or reordered record. (Threads
// stand in for processes — the ring only ever touches the mapped bytes.)
TEST(ShmRing, ConcurrentProducerConsumer) {
  constexpr std::size_t kCap = spsc_ring::kMinCapacity;
  constexpr int kRecords = 20000;
  auto mem = ring_mem(kCap);
  spsc_ring w = spsc_ring::create(mem.data(), kCap);
  spsc_ring r = spsc_ring::attach(mem.data());

  std::thread producer([&w] {
    std::uint64_t payload[4];
    for (int i = 0; i < kRecords; ++i) {
      for (int j = 0; j < 4; ++j)
        payload[j] = static_cast<std::uint64_t>(i) * 4 + j;
      while (!w.try_push(payload, sizeof payload)) {
      }
    }
  });

  std::uint64_t got[4];
  for (int i = 0; i < kRecords; ++i) {
    while (r.front_size() == 0) {
    }
    ASSERT_EQ(r.front_size(), sizeof got);
    r.pop_front(got);
    for (int j = 0; j < 4; ++j)
      ASSERT_EQ(got[j], static_cast<std::uint64_t>(i) * 4 + j)
          << "record " << i << " lane " << j;
  }
  producer.join();
  EXPECT_TRUE(r.empty());
}

// ---------------------------------------------------------------------------
// Doorbell: the consumer's parked word plus its eventfd.
// ---------------------------------------------------------------------------

/// One bell: a 64-byte word block and an eventfd, closed on scope exit.
struct bell_fixture {
  alignas(bell_header) unsigned char block[sizeof(bell_header)]{};
  int fd = doorbell::create_fd();
  doorbell consumer = doorbell::create(block, fd);
  doorbell producer = doorbell::attach(block, fd);
  ~bell_fixture() {
    if (fd >= 0) ::close(fd);
  }
};

/// poll(2) on the eventfd alone; the readiness count (0 on timeout).
int poll_bell(int fd, int timeout_ms) {
  pollfd p{fd, POLLIN, 0};
  return ::poll(&p, 1, timeout_ms);
}

// An awake consumer costs its producer no syscall: ringing an unset bell
// leaves the eventfd unreadable.
TEST(ShmDoorbell, RingingAnUnsetBellWritesNothing) {
  bell_fixture b;
  ASSERT_GE(b.fd, 0);
  ASSERT_TRUE(b.producer.valid());
  EXPECT_FALSE(b.producer.ring());
  EXPECT_EQ(poll_bell(b.fd, 0), 0);
}

TEST(ShmDoorbell, RingingASetBellMakesTheEventfdReadable) {
  bell_fixture b;
  ASSERT_GE(b.fd, 0);
  b.consumer.arm();
  EXPECT_TRUE(b.producer.ring());
  EXPECT_EQ(poll_bell(b.fd, 0), 1);
}

// A ring that lands between the consumer's last ring check and its poll
// still wakes it: the eventfd stays readable until drained, so the poll
// (here with a 2 s bound) returns at once.
TEST(ShmDoorbell, RingBeforePollStillWakes) {
  bell_fixture b;
  ASSERT_GE(b.fd, 0);
  b.consumer.arm();
  ASSERT_TRUE(b.producer.ring());
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(poll_bell(b.fd, 2000), 1);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
}

// disarm() clears the word and drains the eventfd: the next park sleeps,
// and a later ring writes nothing until the consumer arms again.
TEST(ShmDoorbell, DisarmResets) {
  bell_fixture b;
  ASSERT_GE(b.fd, 0);
  b.consumer.arm();
  ASSERT_TRUE(b.producer.ring());
  ASSERT_TRUE(b.producer.ring());  // two writes, one drain
  b.consumer.disarm();
  EXPECT_EQ(poll_bell(b.fd, 0), 0);
  EXPECT_FALSE(b.producer.ring());
  EXPECT_EQ(poll_bell(b.fd, 0), 0);
}

// No lost wakeup under a real race: the producer pushes and rings after
// every record; the consumer drains, arms, re-checks the ring and, when it
// is still empty, parks on the eventfd with a 2 s bound. A park that times
// out while records remain means a ring saw the word clear after the
// consumer's re-check saw the ring empty — the store/load reordering the
// two seq_cst fences exclude. The producer pushes each record only once
// the ring has drained, after a short varying spin, so each push races the
// consumer's arm-and-check and no later ring can cover for a lost one.
TEST(ShmDoorbell, ParkedConsumerNeverMissesARecord) {
  constexpr std::size_t kCap = spsc_ring::kMinCapacity;
  constexpr std::uint64_t kRecords = 100000;
  auto mem = ring_mem(kCap);
  spsc_ring w = spsc_ring::create(mem.data(), kCap);
  spsc_ring r = spsc_ring::attach(mem.data());
  bell_fixture b;
  ASSERT_GE(b.fd, 0);

  std::thread producer([&w, &b] {
    std::uint32_t lcg = 1;
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      while (w.free_bytes() != kCap) {
      }
      lcg = lcg * 1664525u + 1013904223u;
      for (std::uint32_t spin = lcg >> 26; spin != 0; --spin)
        std::atomic_signal_fence(std::memory_order_seq_cst);
      ASSERT_TRUE(w.try_push(&i, sizeof i));
      (void)b.producer.ring();
    }
  });

  // After a first timed-out park the consumer spins instead, so a broken
  // protocol fails in one park bound rather than one per record.
  std::uint64_t next = 0, parks = 0, timeouts = 0;
  while (next < kRecords) {
    std::uint64_t got = 0;
    while (r.front_size() != 0) {
      ASSERT_EQ(r.front_size(), sizeof got);
      r.pop_front(&got);
      ASSERT_EQ(got, next) << "records out of order";
      ++next;
    }
    if (next == kRecords) break;
    if (timeouts != 0) continue;
    b.consumer.arm();
    if (r.empty()) {
      ++parks;
      if (poll_bell(b.fd, 2000) == 0) ++timeouts;
    }
    b.consumer.disarm();
  }
  producer.join();
  EXPECT_EQ(timeouts, 0u) << "of " << parks << " parks";
  std::printf("note: %llu parks over %llu records\n",
              static_cast<unsigned long long>(parks),
              static_cast<unsigned long long>(kRecords));
}

}  // namespace
