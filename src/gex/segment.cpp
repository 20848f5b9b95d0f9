#include "gex/segment.hpp"

#include <sys/mman.h>

#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "core/log.hpp"
#include "shm/mapper.hpp"

namespace aspen::gex {

// ---------------------------------------------------------------------------
// segment_allocator
// ---------------------------------------------------------------------------

namespace {
constexpr std::size_t kMinPayload = 16;
constexpr std::size_t kAlignFloor = 16;

constexpr std::size_t round_up(std::size_t v, std::size_t a) noexcept {
  return (v + a - 1) & ~(a - 1);
}
}  // namespace

struct segment_allocator::block_header {
  std::size_t size;       // payload bytes (excluding this header)
  std::size_t prev_size;  // payload bytes of the physically preceding block,
                          // 0 if this is the first block
  bool free;
  // Free-list links, valid only while `free`.
  block_header* fl_next;
  block_header* fl_prev;

  [[nodiscard]] std::byte* payload() noexcept {
    return reinterpret_cast<std::byte*>(this + 1);
  }
  static block_header* of_payload(void* p) noexcept {
    return static_cast<block_header*>(p) - 1;
  }
};

segment_allocator::segment_allocator(std::byte* base, std::size_t size,
                                     bool init)
    : base_(base), size_(size) {
  assert(reinterpret_cast<std::uintptr_t>(base) % alignof(block_header) == 0);
  assert(size > sizeof(block_header) + kMinPayload);
  if (!init) {
    // Attach-only: this segment is a MAP_SHARED alias of another process's
    // memory. The owning process wrote (or will write) the initial header;
    // writing it again here would race with the owner's live allocations.
    // Allocation through this view is forbidden and returns nullptr
    // (free_head_ stays empty).
    return;
  }
  auto* b = new (base_) block_header;
  b->size = size_ - sizeof(block_header);
  b->prev_size = 0;
  b->free = true;
  b->fl_next = b->fl_prev = nullptr;
  free_head_ = b;
}

segment_allocator::block_header* segment_allocator::first_block()
    const noexcept {
  return reinterpret_cast<block_header*>(base_);
}

segment_allocator::block_header* segment_allocator::next_block(
    block_header* b) const noexcept {
  std::byte* end = b->payload() + b->size;
  if (end >= base_ + size_) return nullptr;
  return reinterpret_cast<block_header*>(end);
}

segment_allocator::block_header* segment_allocator::prev_block(
    block_header* b) const noexcept {
  if (reinterpret_cast<std::byte*>(b) == base_) return nullptr;
  std::byte* prev_payload_end = reinterpret_cast<std::byte*>(b);
  std::byte* prev_header =
      prev_payload_end - b->prev_size - sizeof(block_header);
  return reinterpret_cast<block_header*>(prev_header);
}

void segment_allocator::free_list_insert(block_header* b) noexcept {
  b->fl_prev = nullptr;
  b->fl_next = free_head_;
  if (free_head_) free_head_->fl_prev = b;
  free_head_ = b;
}

void segment_allocator::free_list_remove(block_header* b) noexcept {
  if (b->fl_prev)
    b->fl_prev->fl_next = b->fl_next;
  else
    free_head_ = b->fl_next;
  if (b->fl_next) b->fl_next->fl_prev = b->fl_prev;
}

void* segment_allocator::allocate(std::size_t bytes, std::size_t align) {
  if (align < kAlignFloor) align = kAlignFloor;
  assert((align & (align - 1)) == 0 && "alignment must be a power of two");
  if (bytes < kMinPayload) bytes = kMinPayload;
  bytes = round_up(bytes, kAlignFloor);

  for (block_header* b = free_head_; b; b = b->fl_next) {
    // Payloads are 16-aligned by construction; larger alignments may need
    // padding at the front of the block, which we realize by splitting.
    auto payload_addr = reinterpret_cast<std::uintptr_t>(b->payload());
    std::uintptr_t aligned = round_up(payload_addr, align);
    std::size_t pad = aligned - payload_addr;
    if (pad != 0 && pad < sizeof(block_header) + kMinPayload) {
      // The padding itself must be able to host a free block; bump to the
      // next aligned position that leaves room.
      aligned = round_up(payload_addr + sizeof(block_header) + kMinPayload,
                         align);
      pad = aligned - payload_addr;
    }
    if (b->size < pad + bytes) continue;

    block_header* target = b;
    if (pad != 0) {
      // Split the front padding off as a (still free) block.
      auto* front = b;
      auto* rest = reinterpret_cast<block_header*>(
          front->payload() + (pad - sizeof(block_header)));
      std::size_t orig_size = front->size;
      front->size = pad - sizeof(block_header);
      rest->size = orig_size - pad;
      rest->prev_size = front->size;
      rest->free = true;
      rest->fl_next = rest->fl_prev = nullptr;
      if (block_header* after = next_block(rest)) after->prev_size = rest->size;
      free_list_insert(rest);
      target = rest;
    }

    // Split the tail if the remainder is big enough to be useful.
    if (target->size >= bytes + sizeof(block_header) + kMinPayload) {
      auto* tail = reinterpret_cast<block_header*>(target->payload() + bytes);
      tail->size = target->size - bytes - sizeof(block_header);
      tail->prev_size = bytes;
      tail->free = true;
      tail->fl_next = tail->fl_prev = nullptr;
      target->size = bytes;
      if (block_header* after = next_block(tail)) after->prev_size = tail->size;
      free_list_insert(tail);
    }

    free_list_remove(target);
    target->free = false;
    in_use_ += target->size;
    ++live_;
    return target->payload();
  }
  return nullptr;
}

void segment_allocator::deallocate(void* p) {
  if (p == nullptr) return;
  assert(p >= base_ && p < base_ + size_ && "pointer not in this segment");
  block_header* b = block_header::of_payload(p);
  assert(!b->free && "double free");
  in_use_ -= b->size;
  --live_;
  b->free = true;

  // Coalesce with physical successor.
  if (block_header* nxt = next_block(b); nxt && nxt->free) {
    free_list_remove(nxt);
    b->size += sizeof(block_header) + nxt->size;
    if (block_header* after = next_block(b)) after->prev_size = b->size;
  }
  // Coalesce with physical predecessor.
  if (block_header* prv = prev_block(b); prv && prv->free) {
    free_list_remove(prv);
    prv->size += sizeof(block_header) + b->size;
    if (block_header* after = next_block(prv)) after->prev_size = prv->size;
    b = prv;
  }
  free_list_insert(b);
}

std::size_t segment_allocator::largest_free_block() const noexcept {
  std::size_t best = 0;
  for (block_header* b = free_head_; b; b = b->fl_next)
    if (b->size > best) best = b->size;
  return best;
}

bool segment_allocator::check_integrity() const noexcept {
  std::size_t prev_size = 0;
  bool prev_free = false;
  std::size_t walked = 0;
  for (block_header* b = first_block(); b;) {
    if (b->prev_size != prev_size) return false;
    if (b->free && prev_free) return false;  // uncoalesced neighbors
    walked += sizeof(block_header) + b->size;
    if (walked > size_) return false;
    prev_size = b->size;
    prev_free = b->free;
    block_header* nxt = next_block(b);
    b = nxt;
  }
  return walked == size_;
}

// ---------------------------------------------------------------------------
// segment_arena
// ---------------------------------------------------------------------------

segment_arena::segment_arena(int nranks, std::size_t bytes_per_rank,
                             std::uintptr_t fixed_base, bool shm_shared) {
  // Fixed-address arenas stride on page boundaries (memfd slices must be
  // page-granular); in-process arenas only need allocator alignment.
  bytes_per_rank_ = round_up(bytes_per_rank, fixed_base != 0 ? 4096 : 64);
  const std::size_t total = bytes_per_rank_ * static_cast<std::size_t>(nranks);
  auto* mp = shm::mapper::instance();
  if (shm_shared && fixed_base != 0 && mp != nullptr) {
    // conduit::shm: the mapper places every rank's slice — MAP_SHARED from
    // that rank's data memfd when same-host, private anonymous otherwise.
    if (mp->seg_stride() != bytes_per_rank_ || mp->nranks() != nranks) {
      aspen::fatal("gex: shm mapper geometry (%zu B x %d ranks) does "
                   "not match the arena (%zu B x %d ranks)",
                   mp->seg_stride(), mp->nranks(), bytes_per_rank_, nranks);
    }
    mp->map_data_segments(fixed_base);
    mapped_bytes_ = total;
    aligned_base_ = reinterpret_cast<std::byte*>(fixed_base);
    segments_.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
      // Only the owning process initializes allocator metadata in a shared
      // slice; every other view attaches read-mostly.
      const bool init = r == mp->rank() || !mp->rank_mapped(r);
      segments_.push_back(std::make_unique<segment>(
          r, aligned_base_ + bytes_per_rank_ * static_cast<std::size_t>(r),
          bytes_per_rank_, init));
    }
    return;
  }
  // One anonymous private mapping for every other arena; its pages read
  // as zero and are faulted in only when a rank first touches them.
  // NORESERVE so reserving all ranks' segments costs no commit charge.
  // conduit::tcp adds identical placement in every rank's process:
  // NOREPLACE (not plain MAP_FIXED) so an address-space collision is a
  // hard, diagnosable error instead of silently clobbering a live mapping.
  const std::size_t page = 4096;
  mapped_bytes_ = round_up(total, page);
  int flags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE;
  if (fixed_base != 0) flags |= MAP_FIXED_NOREPLACE;
  void* p = mmap(reinterpret_cast<void*>(fixed_base), mapped_bytes_,
                 PROT_READ | PROT_WRITE, flags, -1, 0);
  if (p == MAP_FAILED ||
      (fixed_base != 0 && p != reinterpret_cast<void*>(fixed_base))) {
    if (p != MAP_FAILED) munmap(p, mapped_bytes_);
    if (fixed_base != 0)
      aspen::fatal("gex: cannot map the segment arena at fixed base "
                   "0x%llx (%zu bytes): %s. Another mapping occupies the "
                   "range; pick a different ASPEN_NET_SEGMENT_BASE.",
                   static_cast<unsigned long long>(fixed_base), mapped_bytes_,
                   std::strerror(errno));
    aspen::fatal("gex: cannot map the segment arena (%zu bytes): %s",
                 mapped_bytes_, std::strerror(errno));
  }
  aligned_base_ = static_cast<std::byte*>(p);
  segments_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    segments_.push_back(std::make_unique<segment>(
        r, aligned_base_ + bytes_per_rank_ * static_cast<std::size_t>(r),
        bytes_per_rank_));
  }
}

segment_arena::~segment_arena() {
  if (mapped_bytes_ != 0) munmap(aligned_base_, mapped_bytes_);
}

int segment_arena::owner_of(const void* p) const noexcept {
  auto* b = static_cast<const std::byte*>(p);
  if (b < aligned_base_) return -1;
  const std::size_t off = static_cast<std::size_t>(b - aligned_base_);
  const std::size_t r = off / bytes_per_rank_;
  if (r >= segments_.size()) return -1;
  return static_cast<int>(r);
}

}  // namespace aspen::gex
