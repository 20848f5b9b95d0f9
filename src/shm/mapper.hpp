// aspen::shm — the cross-process segment mapper.
//
// One mapper exists per process on the shm conduit. At bootstrap each rank
// creates two memfds and one eventfd:
//
//   data segment    seg_stride bytes — this rank's slice of the global
//                   segment arena. Every same-host peer maps every rank's
//                   data memfd MAP_SHARED at the fixed address
//                   base + rank * seg_stride, so a raw global_ptr address
//                   minted in one process dereferences to the same physical
//                   page in every process (the PSHM property).
//   control segment a 64-byte header holding this rank's parked word
//                   (doorbell.hpp), then nranks ring-pair slots. Slot s
//                   holds the message ring and bulk ring that *sender s*
//                   produces into and the segment's owner consumes: peers
//                   map the owner's control memfd and produce into their
//                   own slot, so each ring has exactly one producer and one
//                   consumer process.
//   bell            the eventfd a parked owner polls beside its sockets;
//                   a producer writes it after a ring push that finds the
//                   owner's parked word set.
//
// The three fds travel to same-host peers over SCM_RIGHTS (fdpass.hpp)
// during the net bootstrap as {data, ctrl, bell}. The mapper only stores
// geometry and fds; the per-region fixed-address data mapping is driven by
// gex::segment_arena through map_data_segments()/unmap_data_segments(),
// because regions construct and destroy arenas while the mapper (like the
// net endpoint) lives for the whole process. Ranks that never completed the exchange (off-host, shm
// disabled, memfd or eventfd unavailable) stay unmapped: their arena slice
// falls back to private anonymous memory and all traffic to them keeps the
// tcp path.
#pragma once

#include <cstddef>
#include <cstdint>

#include "shm/doorbell.hpp"
#include "shm/ring.hpp"

namespace aspen::shm {

class mapper {
 public:
  struct config {
    int rank = 0;
    int nranks = 1;
    /// Page-rounded bytes per rank segment (the arena stride).
    std::size_t seg_stride = 0;
    /// Per-channel ring capacities (already clamp_capacity'd).
    std::size_t msg_ring_bytes = 0;
    std::size_t bulk_ring_bytes = 0;
  };

  /// Create this process's memfds and bell, map its own control segment,
  /// and initialize its parked word and every ring slot in it. Installs the
  /// process-wide singleton. Returns nullptr (and installs nothing) when
  /// memfd, eventfd or the mappings are unavailable — the caller stays
  /// tcp-only.
  static mapper* create(const config& c) noexcept;

  /// The process-wide mapper, or nullptr when shm never bootstrapped.
  [[nodiscard]] static mapper* instance() noexcept;

  [[nodiscard]] int rank() const noexcept { return cfg_.rank; }
  [[nodiscard]] int nranks() const noexcept { return cfg_.nranks; }
  [[nodiscard]] std::size_t seg_stride() const noexcept {
    return cfg_.seg_stride;
  }
  [[nodiscard]] int data_fd() const noexcept { return data_fd_; }
  [[nodiscard]] int ctrl_fd() const noexcept { return ctrl_fd_; }
  [[nodiscard]] int bell_fd() const noexcept { return bell_fd_; }

  /// Adopt a same-host peer's {data, ctrl, bell} fds received over
  /// SCM_RIGHTS and map its control segment. On failure all three fds are
  /// closed and the peer stays unmapped (tcp fallback).
  bool adopt_peer(int peer, const int (&fds)[3]) noexcept;

  /// True when `r`'s data segment will be shared-mapped here (always true
  /// for the local rank).
  [[nodiscard]] bool rank_mapped(int r) const noexcept;
  /// Ranks with rank_mapped(), including self.
  [[nodiscard]] int mapped_count() const noexcept;
  [[nodiscard]] bool fully_mapped() const noexcept {
    return mapped_count() == cfg_.nranks;
  }

  // -- ring channels (valid only for adopted peers) -------------------------

  /// Rings peer `from` produces into and this rank consumes.
  [[nodiscard]] spsc_ring inbound_msg(int from) const noexcept;
  [[nodiscard]] spsc_ring inbound_bulk(int from) const noexcept;
  /// Rings this rank produces into and peer `to` consumes.
  [[nodiscard]] spsc_ring outbound_msg(int to) const noexcept;
  [[nodiscard]] spsc_ring outbound_bulk(int to) const noexcept;

  /// This rank's own bell: its parked word and eventfd (consumer side).
  [[nodiscard]] doorbell own_bell() const noexcept;
  /// Peer `to`'s bell, rung after a push into outbound_msg(to).
  [[nodiscard]] doorbell peer_bell(int to) const noexcept;

  // -- per-region data-segment mapping (segment_arena's contract) -----------

  /// Map every rank's data slice at base + r * seg_stride: MAP_SHARED from
  /// the rank's memfd when mapped, private anonymous otherwise (so the
  /// arena address range stays contiguous either way). Aborts with a
  /// diagnostic on an address-space collision, like the private arena path.
  void map_data_segments(std::uintptr_t base) noexcept;
  void unmap_data_segments(std::uintptr_t base) noexcept;

 private:
  mapper() = default;

  [[nodiscard]] std::size_t chan_bytes() const noexcept {
    return spsc_ring::footprint(cfg_.msg_ring_bytes) +
           spsc_ring::footprint(cfg_.bulk_ring_bytes);
  }
  [[nodiscard]] std::size_t ctrl_bytes() const noexcept {
    return sizeof(bell_header) +
           chan_bytes() * static_cast<std::size_t>(cfg_.nranks);
  }
  /// Slot for sender `s` inside a control mapping (after the bell header).
  [[nodiscard]] std::byte* slot(std::byte* ctrl_base, int s) const noexcept {
    return ctrl_base + sizeof(bell_header) +
           chan_bytes() * static_cast<std::size_t>(s);
  }

  config cfg_{};
  int data_fd_ = -1;
  int ctrl_fd_ = -1;
  int bell_fd_ = -1;
  std::byte* own_ctrl_ = nullptr;  ///< own control segment mapping

  struct peer_state {
    int data_fd = -1;
    int ctrl_fd = -1;
    int bell_fd = -1;
    std::byte* ctrl = nullptr;  ///< peer's control segment mapping
  };
  peer_state* peers_ = nullptr;  ///< [nranks]; leaked with the singleton
};

}  // namespace aspen::shm
