#include "net/io_backend.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <thread>

#include "core/log.hpp"
#include "core/telemetry.hpp"

namespace aspen::net {

namespace {

/// idle_park() watches at most this many peer sockets per park; larger
/// meshes rotate the watched window across successive parks (counted by
/// net_idle_unwatched) so no peer is starved indefinitely, and every park
/// still wakes within the 1 ms poll bound for the unwatched remainder.
constexpr nfds_t kMaxPollFds = 64;

[[noreturn]] void die_errno(const char* what, int rank) {
  aspen::fatal("net: %s (peer rank %d): %s", what, rank,
               std::strerror(errno));
}

}  // namespace

void io_backend::flush(int rank, std::vector<std::byte>& out,
                       std::size_t& off) {
  const int fd = fds_[static_cast<std::size_t>(rank)];
  if (fd < 0) {
    out.clear();
    off = 0;
    return;
  }
  while (off < out.size()) {
    const std::size_t want = out.size() - off;
    const ssize_t n = ::send(fd, out.data() + off, want, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        telemetry::count(telemetry::counter::net_partial_writes);
        break;
      }
      die_errno("send", rank);
    }
    telemetry::count(telemetry::counter::net_bytes_sent,
                     static_cast<std::uint64_t>(n));
    off += static_cast<std::size_t>(n);
    if (static_cast<std::size_t>(n) < want)
      telemetry::count(telemetry::counter::net_partial_writes);
  }
}

std::size_t io_backend::pump(recv_sink& sink) {
  std::size_t work = 0;
  std::byte buf[64 * 1024];
  for (int r = 0; r < static_cast<int>(fds_.size()); ++r) {
    const int fd = fds_[static_cast<std::size_t>(r)];
    if (fd < 0) continue;
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n > 0) {
        telemetry::count(telemetry::counter::net_bytes_received,
                         static_cast<std::uint64_t>(n));
        sink.on_bytes(r, buf, static_cast<std::size_t>(n));
        ++work;
        if (static_cast<std::size_t>(n) < sizeof buf) {
          // Short read: the kernel buffer is drained for now.
          telemetry::count(telemetry::counter::net_short_reads);
          break;
        }
        continue;
      }
      if (n == 0) {
        sink.on_eof(r);
        ++work;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      die_errno("recv", r);
    }
  }
  return work;
}

void io_backend::idle_park() {
  pollfd fds[kMaxPollFds];
  nfds_t n = 0;
  std::size_t active = 0;
  const std::size_t count = fds_.size();
  // Fill the window starting at the rotation cursor so a mesh larger
  // than the fd cap watches every peer within ceil(active/cap) parks.
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t r = (rotate_ + i) % count;
    const int fd = fds_[r];
    if (fd < 0) continue;
    ++active;
    if (n >= kMaxPollFds) continue;
    fds[n].fd = fd;
    fds[n].events = POLLIN;
    fds[n].revents = 0;
    ++n;
  }
  if (n == 0) {
    std::this_thread::yield();
    return;
  }
  if (active > static_cast<std::size_t>(kMaxPollFds)) {
    telemetry::count(telemetry::counter::net_idle_unwatched,
                     active - static_cast<std::size_t>(kMaxPollFds));
    rotate_ = (rotate_ + static_cast<std::size_t>(kMaxPollFds)) % count;
  }
  (void)::poll(fds, n, 1);
}

}  // namespace aspen::net
