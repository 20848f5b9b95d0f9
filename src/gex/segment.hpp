// Per-rank shared-memory segments and the segment allocator.
//
// Each rank owns one contiguous segment carved out of a process-wide arena.
// Every rank can load/store every segment (the process-shared-memory model
// of the paper's single-node experiments); only the owning rank may allocate
// or free within its segment, matching UPC++ semantics for upcxx::new_.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace aspen::gex {

/// A boundary-tag first-fit allocator over one rank's segment.
///
/// Blocks carry a header {size, free, prev_size} so that both forward and
/// backward coalescing are O(1). Free blocks are additionally threaded onto
/// an intrusive doubly-linked free list. Not thread-safe: only the owning
/// rank thread allocates/frees (asserted by the caller).
class segment_allocator {
 public:
  /// `init == true` (the owner) writes the initial free-block header into
  /// the segment. `init == false` attaches without touching the memory:
  /// used by conduit::shm peers whose view of this segment is a MAP_SHARED
  /// alias of another process's — only the owner may ever allocate, and
  /// only the owner may initialize.
  segment_allocator(std::byte* base, std::size_t size, bool init = true);

  segment_allocator(const segment_allocator&) = delete;
  segment_allocator& operator=(const segment_allocator&) = delete;

  /// Allocate `bytes` with the given alignment (power of two, >= 8).
  /// Returns nullptr on exhaustion.
  [[nodiscard]] void* allocate(std::size_t bytes, std::size_t align = 16);

  /// Free a pointer previously returned by allocate().
  void deallocate(void* p);

  /// Total bytes currently handed out (excluding allocator overhead).
  [[nodiscard]] std::size_t bytes_in_use() const noexcept { return in_use_; }

  /// Number of live allocations.
  [[nodiscard]] std::size_t live_allocations() const noexcept {
    return live_;
  }

  /// Bytes of the largest satisfiable single allocation right now.
  [[nodiscard]] std::size_t largest_free_block() const noexcept;

  /// Internal consistency check (walks all blocks); used by tests.
  [[nodiscard]] bool check_integrity() const noexcept;

 private:
  struct block_header;

  block_header* first_block() const noexcept;
  block_header* next_block(block_header* b) const noexcept;
  block_header* prev_block(block_header* b) const noexcept;
  void free_list_insert(block_header* b) noexcept;
  void free_list_remove(block_header* b) noexcept;

  std::byte* base_;
  std::size_t size_;
  block_header* free_head_ = nullptr;
  std::size_t in_use_ = 0;
  std::size_t live_ = 0;
};

/// One rank's segment: memory range + allocator.
class segment {
 public:
  segment(int owner, std::byte* base, std::size_t size,
          bool init_allocator = true)
      : owner_(owner),
        base_(base),
        size_(size),
        alloc_(base, size, init_allocator) {}

  [[nodiscard]] int owner() const noexcept { return owner_; }
  [[nodiscard]] std::byte* base() const noexcept { return base_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool contains(const void* p) const noexcept {
    auto* b = static_cast<const std::byte*>(p);
    return b >= base_ && b < base_ + size_;
  }
  [[nodiscard]] segment_allocator& allocator() noexcept { return alloc_; }

 private:
  int owner_;
  std::byte* base_;
  std::size_t size_;
  segment_allocator alloc_;
};

/// The process-wide arena: one big mapping divided into per-rank segments,
/// plus pointer -> owning-rank resolution.
///
/// The arena is one anonymous private mmap (MAP_NORESERVE): pages read as
/// zero and are faulted in only when first touched, so constructing an
/// arena touches no page beyond each segment's allocator header. With
/// `fixed_base == 0` (the in-process conduits) the kernel picks the
/// address. A non-zero `fixed_base` maps the arena at exactly that virtual
/// address (MAP_FIXED_NOREPLACE): conduit::tcp maps the same layout at the
/// same address in every rank's process, so a raw segment address minted
/// by one rank dereferences to the corresponding location in any process —
/// the property global_ptr and the RMA wire protocol rely on. There only
/// the owning rank's pages are ever touched locally.
/// When `shm_shared` is set (conduit::shm with an active shm::mapper) the
/// fixed-address window is populated by the mapper instead: each rank's
/// slice is a MAP_SHARED view of that rank's data memfd, so the same
/// physical pages back the address in every same-host process. Allocator
/// headers are then initialized only in the owning rank's process.
class segment_arena {
 public:
  explicit segment_arena(int nranks, std::size_t bytes_per_rank,
                         std::uintptr_t fixed_base = 0,
                         bool shm_shared = false);
  ~segment_arena();

  [[nodiscard]] segment& of(int rank) noexcept { return *segments_[rank]; }
  [[nodiscard]] const segment& of(int rank) const noexcept {
    return *segments_[rank];
  }
  [[nodiscard]] int nranks() const noexcept {
    return static_cast<int>(segments_.size());
  }

  /// Owning rank of `p`, or -1 if `p` is not in any segment.
  [[nodiscard]] int owner_of(const void* p) const noexcept;

 private:
  std::byte* aligned_base_ = nullptr;
  std::size_t bytes_per_rank_ = 0;
  /// Size of the arena's mapping, unmapped by the destructor.
  std::size_t mapped_bytes_ = 0;
  std::vector<std::unique_ptr<segment>> segments_;
};

}  // namespace aspen::gex
