#include "shm/mapper.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>

#include "core/log.hpp"
#include "shm/fdpass.hpp"

namespace aspen::shm {

namespace {

mapper* g_mapper = nullptr;

}  // namespace

mapper* mapper::instance() noexcept { return g_mapper; }

mapper* mapper::create(const config& c) noexcept {
  if (g_mapper != nullptr) return g_mapper;
  if (c.nranks <= 1 || c.seg_stride == 0) return nullptr;

  auto* m = new mapper;
  m->cfg_ = c;

  m->data_fd_ = create_memfd("aspen-shm-data", c.seg_stride);
  m->ctrl_fd_ = create_memfd("aspen-shm-ctrl", m->ctrl_bytes());
  m->bell_fd_ = doorbell::create_fd();
  void* ctrl = MAP_FAILED;
  if (m->data_fd_ >= 0 && m->ctrl_fd_ >= 0 && m->bell_fd_ >= 0)
    ctrl = ::mmap(nullptr, m->ctrl_bytes(), PROT_READ | PROT_WRITE,
                  MAP_SHARED, m->ctrl_fd_, 0);
  if (ctrl == MAP_FAILED) {
    const int own[3] = {m->data_fd_, m->ctrl_fd_, m->bell_fd_};
    close_fds(own, 3);
    delete m;
    return nullptr;
  }
  m->own_ctrl_ = static_cast<std::byte*>(ctrl);

  // The owner initializes its parked word and every sender slot before the
  // fd is ever shared, so a peer that maps the control segment finds a
  // clear word and valid ring headers no matter how the exchange
  // interleaves.
  (void)doorbell::create(m->own_ctrl_, m->bell_fd_);
  for (int s = 0; s < c.nranks; ++s) {
    std::byte* at = m->slot(m->own_ctrl_, s);
    (void)spsc_ring::create(at, c.msg_ring_bytes);
    (void)spsc_ring::create(at + spsc_ring::footprint(c.msg_ring_bytes),
                            c.bulk_ring_bytes);
  }

  m->peers_ = new peer_state[static_cast<std::size_t>(c.nranks)];
  g_mapper = m;
  return m;
}

bool mapper::adopt_peer(int peer, const int (&fds)[3]) noexcept {
  const auto reject = [&fds] {
    close_fds(fds, 3);
    return false;
  };
  if (peer < 0 || peer >= cfg_.nranks || peer == cfg_.rank ||
      peers_[peer].ctrl != nullptr)
    return reject();
  void* ctrl = ::mmap(nullptr, ctrl_bytes(), PROT_READ | PROT_WRITE,
                      MAP_SHARED, fds[1], 0);
  if (ctrl == MAP_FAILED) return reject();
  // Sanity-check the peer's ring geometry matches ours before trusting it.
  std::byte* my_slot = slot(static_cast<std::byte*>(ctrl), cfg_.rank);
  if (!spsc_ring::attach(my_slot).valid() ||
      spsc_ring::attach(my_slot).capacity() != cfg_.msg_ring_bytes) {
    ::munmap(ctrl, ctrl_bytes());
    return reject();
  }
  peers_[peer].data_fd = fds[0];
  peers_[peer].ctrl_fd = fds[1];
  peers_[peer].bell_fd = fds[2];
  peers_[peer].ctrl = static_cast<std::byte*>(ctrl);
  return true;
}

bool mapper::rank_mapped(int r) const noexcept {
  if (r < 0 || r >= cfg_.nranks) return false;
  return r == cfg_.rank || peers_[r].ctrl != nullptr;
}

int mapper::mapped_count() const noexcept {
  int n = 1;  // self
  for (int r = 0; r < cfg_.nranks; ++r)
    if (r != cfg_.rank && peers_[r].ctrl != nullptr) ++n;
  return n;
}

spsc_ring mapper::inbound_msg(int from) const noexcept {
  return spsc_ring::attach(slot(own_ctrl_, from));
}

spsc_ring mapper::inbound_bulk(int from) const noexcept {
  return spsc_ring::attach(slot(own_ctrl_, from) +
                           spsc_ring::footprint(cfg_.msg_ring_bytes));
}

spsc_ring mapper::outbound_msg(int to) const noexcept {
  if (!rank_mapped(to) || to == cfg_.rank) return {};
  return spsc_ring::attach(slot(peers_[to].ctrl, cfg_.rank));
}

spsc_ring mapper::outbound_bulk(int to) const noexcept {
  if (!rank_mapped(to) || to == cfg_.rank) return {};
  return spsc_ring::attach(slot(peers_[to].ctrl, cfg_.rank) +
                           spsc_ring::footprint(cfg_.msg_ring_bytes));
}

doorbell mapper::own_bell() const noexcept {
  return doorbell::attach(own_ctrl_, bell_fd_);
}

doorbell mapper::peer_bell(int to) const noexcept {
  if (!rank_mapped(to) || to == cfg_.rank) return {};
  return doorbell::attach(peers_[to].ctrl, peers_[to].bell_fd);
}

void mapper::map_data_segments(std::uintptr_t base) noexcept {
  for (int r = 0; r < cfg_.nranks; ++r) {
    void* want = reinterpret_cast<void*>(base + cfg_.seg_stride *
                                                    static_cast<std::size_t>(r));
    void* got = MAP_FAILED;
    if (rank_mapped(r)) {
      const int fd = r == cfg_.rank ? data_fd_ : peers_[r].data_fd;
      got = ::mmap(want, cfg_.seg_stride, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_FIXED_NOREPLACE, fd, 0);
    } else {
      // Off-host rank: keep the arena contiguous with a private reservation
      // so owner_of()/pointer arithmetic stay uniform; nobody stores here.
      got = ::mmap(want, cfg_.seg_stride, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED_NOREPLACE |
                       MAP_NORESERVE,
                   -1, 0);
    }
    if (got != want) {
      aspen::fatal("shm: cannot map rank %d segment at %p — the fixed "
                   "segment window is occupied; pick a different "
                   "ASPEN_NET_SEGMENT_BASE",
                   r, want);
    }
  }
}

void mapper::unmap_data_segments(std::uintptr_t base) noexcept {
  ::munmap(reinterpret_cast<void*>(base),
           cfg_.seg_stride * static_cast<std::size_t>(cfg_.nranks));
}

}  // namespace aspen::shm
