// aspen::shm — lock-free SPSC byte ring for cross-process AM delivery.
//
// One ring lives in a shared control segment and carries variable-length
// records from exactly one producer process to exactly one consumer process
// (the conduit::shm mesh allocates one ring pair per directed rank pair).
// The layout is a classic free-running-index byte ring:
//
//   [ring_header | data bytes (power-of-two capacity)]
//
// `head` counts bytes ever produced, `tail` bytes ever consumed; both are
// free-running 64-bit indices (offset = index & (capacity-1)), so records
// wrap physically but never logically and full/empty are unambiguous
// (head - tail == depth). Each record is an 8-byte length prefix followed by
// the payload, padded to 8 bytes; a record may span the physical end of the
// buffer (the copy helpers split it into at most two memcpys).
//
// Ordering contract: the producer writes record bytes first and publishes
// `head` with release; the consumer loads `head` with acquire before
// reading, and publishes `tail` with release after it is done with the
// bytes. A consumer can therefore never observe a torn record, and a
// reader that peeks (front_view, copy_front) without consuming resumes at
// the same record later: the endpoint decodes a record where it lies and
// consumes it only after the decode. Both sides are wait-free: a full ring
// fails the push (the caller falls back to the socket path) rather than
// blocking, which keeps the conduit deadlock-free by construction.
//
// The consumer trusts no length it reads from the shared bytes: a prefix
// claiming more than the producer published is reported as kMalformed,
// and none of that record's payload is ever read.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace aspen::shm {

/// The shared in-segment ring state. Producer and consumer indices sit on
/// their own cache lines so the two processes never false-share.
struct alignas(64) ring_header {
  std::atomic<std::uint64_t> head{0};  ///< bytes produced (producer-owned)
  char pad0[64 - sizeof(std::atomic<std::uint64_t>)];
  std::atomic<std::uint64_t> tail{0};  ///< bytes consumed (consumer-owned)
  char pad1[64 - sizeof(std::atomic<std::uint64_t>)];
  std::uint64_t capacity = 0;  ///< data bytes; power of two
  std::uint64_t magic = 0;
  char pad2[64 - 2 * sizeof(std::uint64_t)];
};
static_assert(sizeof(ring_header) == 192, "ring header layout is fixed");

/// Non-owning view of one ring. Trivially copyable; the shared state lives
/// entirely behind the mapped pointer.
class spsc_ring {
 public:
  static constexpr std::uint64_t kMagic = 0xA59E525347ull;  // "RSG"
  static constexpr std::size_t kAlign = 8;
  static constexpr std::size_t kMinCapacity = std::size_t{1} << 12;
  static constexpr std::size_t kMaxCapacity = std::size_t{1} << 28;

  /// Round `want` to the nearest power of two in [kMinCapacity,
  /// kMaxCapacity] (up within range, clamped at the ends).
  [[nodiscard]] static constexpr std::size_t clamp_capacity(
      std::size_t want) noexcept {
    if (want <= kMinCapacity) return kMinCapacity;
    if (want >= kMaxCapacity) return kMaxCapacity;
    return std::bit_ceil(want);
  }

  /// Shared-memory bytes a ring of `capacity` data bytes occupies.
  [[nodiscard]] static constexpr std::size_t footprint(
      std::size_t capacity) noexcept {
    return sizeof(ring_header) + capacity;
  }

  /// Bytes of ring space one record of `len` payload bytes consumes.
  [[nodiscard]] static constexpr std::size_t record_footprint(
      std::size_t len) noexcept {
    return sizeof(std::uint64_t) + ((len + kAlign - 1) & ~(kAlign - 1));
  }

  spsc_ring() = default;

  /// Initialize a fresh ring over `mem` (the segment owner does this once,
  /// before sharing the fd). `capacity` must already be clamp_capacity'd.
  static spsc_ring create(void* mem, std::size_t capacity) noexcept {
    auto* h = new (mem) ring_header;
    h->capacity = capacity;
    h->magic = kMagic;
    spsc_ring r;
    r.h_ = h;
    r.data_ = static_cast<std::byte*>(mem) + sizeof(ring_header);
    return r;
  }

  /// Attach to a ring another process initialized. Returns an invalid view
  /// if the header does not carry the magic (mapping mixup).
  static spsc_ring attach(void* mem) noexcept {
    auto* h = static_cast<ring_header*>(mem);
    spsc_ring r;
    if (h->magic != kMagic || h->capacity == 0 ||
        (h->capacity & (h->capacity - 1)) != 0)
      return r;
    r.h_ = h;
    r.data_ = static_cast<std::byte*>(mem) + sizeof(ring_header);
    return r;
  }

  [[nodiscard]] bool valid() const noexcept { return h_ != nullptr; }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return h_ ? static_cast<std::size_t>(h_->capacity) : 0;
  }

  // -- producer side --------------------------------------------------------

  /// Free record space right now (racing the consumer only ever makes this
  /// grow, so a fit decision made on it is stable for the producer).
  [[nodiscard]] std::size_t free_bytes() const noexcept {
    const std::uint64_t head = h_->head.load(std::memory_order_relaxed);
    const std::uint64_t tail = h_->tail.load(std::memory_order_acquire);
    return static_cast<std::size_t>(h_->capacity - (head - tail));
  }

  [[nodiscard]] bool can_push(std::size_t len) const noexcept {
    return record_footprint(len) <= free_bytes();
  }

  /// Append one record built from two spans (header + payload, so the
  /// caller never concatenates into a scratch buffer). False when the ring
  /// lacks space — the caller must fall back, never wait.
  bool try_push2(const void* a, std::size_t alen, const void* b,
                 std::size_t blen) noexcept {
    const std::size_t len = alen + blen;
    const std::size_t need = record_footprint(len);
    if (need > free_bytes()) return false;
    const std::uint64_t head = h_->head.load(std::memory_order_relaxed);
    const std::uint64_t len64 = len;
    write_at(head, &len64, sizeof len64);
    if (alen != 0) write_at(head + sizeof len64, a, alen);
    if (blen != 0) write_at(head + sizeof len64 + alen, b, blen);
    h_->head.store(head + need, std::memory_order_release);
    return true;
  }

  bool try_push(const void* rec, std::size_t len) noexcept {
    return try_push2(rec, len, nullptr, 0);
  }

  // -- consumer side --------------------------------------------------------

  [[nodiscard]] bool empty() const noexcept {
    return h_->head.load(std::memory_order_acquire) ==
           h_->tail.load(std::memory_order_relaxed);
  }

  /// Bytes currently buffered (records + framing). Either side may read
  /// this as a gauge.
  [[nodiscard]] std::size_t depth_bytes() const noexcept {
    return static_cast<std::size_t>(
        h_->head.load(std::memory_order_acquire) -
        h_->tail.load(std::memory_order_acquire));
  }

  /// front_size() of a record whose length prefix claims more bytes than
  /// the producer published (head - tail), or of a ring whose indices are
  /// more than a capacity apart. Its bytes must not be read.
  static constexpr std::size_t kMalformed = ~std::size_t{0};

  /// Payload length of the front record, 0 when the ring is empty, or
  /// kMalformed when the prefix does not fit the published bytes.
  [[nodiscard]] std::size_t front_size() const noexcept {
    const std::uint64_t tail = h_->tail.load(std::memory_order_relaxed);
    const std::uint64_t published =
        h_->head.load(std::memory_order_acquire) - tail;
    if (published == 0) return 0;
    if (published < sizeof(std::uint64_t) || published > h_->capacity)
      return kMalformed;
    std::uint64_t len64 = 0;
    read_at(tail, &len64, sizeof len64);
    if (len64 > published - sizeof len64) return kMalformed;
    return static_cast<std::size_t>(len64);
  }

  /// The front record's `len` payload bytes (len = a front_size() that was
  /// not kMalformed) where they lie in the ring, or null when they wrap the
  /// buffer end (copy_front them instead). Valid until consume_front().
  [[nodiscard]] const std::byte* front_view(std::size_t len) const noexcept {
    const std::size_t mask = static_cast<std::size_t>(h_->capacity) - 1;
    const std::size_t off =
        static_cast<std::size_t>(h_->tail.load(std::memory_order_relaxed) +
                                 sizeof(std::uint64_t)) &
        mask;
    return off + len <= mask + 1 ? data_ + off : nullptr;
  }

  /// Copy the front record's payload into `out` (front_size() bytes)
  /// WITHOUT consuming it — a second copy_front returns the same bytes.
  /// Only after front_size() returned a length, not kMalformed.
  void copy_front(void* out) const noexcept {
    const std::uint64_t tail = h_->tail.load(std::memory_order_relaxed);
    std::uint64_t len64 = 0;
    read_at(tail, &len64, sizeof len64);
    read_at(tail + sizeof len64, out, static_cast<std::size_t>(len64));
  }

  /// Consume the front record (after copy_front, or to drop it).
  void consume_front() noexcept {
    const std::uint64_t tail = h_->tail.load(std::memory_order_relaxed);
    std::uint64_t len64 = 0;
    read_at(tail, &len64, sizeof len64);
    h_->tail.store(tail + record_footprint(static_cast<std::size_t>(len64)),
                   std::memory_order_release);
  }

  /// copy_front + consume_front in one call.
  void pop_front(void* out) noexcept {
    copy_front(out);
    consume_front();
  }

 private:
  /// Wrap-aware copy into the ring at free-running index `idx`.
  void write_at(std::uint64_t idx, const void* src, std::size_t n) noexcept {
    const std::size_t mask = static_cast<std::size_t>(h_->capacity) - 1;
    const std::size_t off = static_cast<std::size_t>(idx) & mask;
    const std::size_t first = (mask + 1) - off < n ? (mask + 1) - off : n;
    std::memcpy(data_ + off, src, first);
    if (first < n)
      std::memcpy(data_, static_cast<const std::byte*>(src) + first,
                  n - first);
  }

  void read_at(std::uint64_t idx, void* dst, std::size_t n) const noexcept {
    const std::size_t mask = static_cast<std::size_t>(h_->capacity) - 1;
    const std::size_t off = static_cast<std::size_t>(idx) & mask;
    const std::size_t first = (mask + 1) - off < n ? (mask + 1) - off : n;
    std::memcpy(dst, data_ + off, first);
    if (first < n)
      std::memcpy(static_cast<std::byte*>(dst) + first, data_, n - first);
  }

  ring_header* h_ = nullptr;
  std::byte* data_ = nullptr;
};

}  // namespace aspen::shm
