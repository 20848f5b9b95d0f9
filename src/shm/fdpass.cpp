#include "shm/fdpass.hpp"

#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>

namespace aspen::shm {

int create_memfd(const char* name, std::size_t bytes) noexcept {
#ifdef MFD_CLOEXEC
  const int fd = static_cast<int>(::memfd_create(name, MFD_CLOEXEC));
#else
  (void)name;
  const int fd = -1;
#endif
  if (fd < 0) return -1;
  if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::string exchange_socket_name(std::uint16_t rdzv_port, int rank) {
  return "aspen-shm." + std::to_string(rdzv_port) + "." +
         std::to_string(rank);
}

namespace {

/// Fill an abstract-namespace address (sun_path[0] == '\0'); returns the
/// total sockaddr length to pass to bind/connect.
socklen_t abstract_addr(sockaddr_un& sa, const std::string& name) noexcept {
  std::memset(&sa, 0, sizeof sa);
  sa.sun_family = AF_UNIX;
  const std::size_t n =
      name.size() < sizeof(sa.sun_path) - 1 ? name.size()
                                            : sizeof(sa.sun_path) - 1;
  std::memcpy(sa.sun_path + 1, name.data(), n);
  return static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + 1 + n);
}

}  // namespace

int listen_abstract(const std::string& name, int backlog) noexcept {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un sa;
  const socklen_t len = abstract_addr(sa, name);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), len) != 0 ||
      ::listen(fd, backlog < 1 ? 1 : backlog) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int connect_abstract(const std::string& name) noexcept {
  sockaddr_un sa;
  const socklen_t len = abstract_addr(sa, name);
  // The listener is created before the peer's bootstrap hello, so by the
  // time its rank appears in the table the socket exists; the retry loop
  // only papers over scheduler jitter, not a protocol ordering hole.
  for (int attempt = 0; attempt < 200; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), len) == 0) return fd;
    const int err = errno;
    ::close(fd);
    if (err != ECONNREFUSED && err != ENOENT && err != EINTR &&
        err != EAGAIN)
      return -1;
    timespec ts{0, 1'000'000};  // 1 ms
    ::nanosleep(&ts, nullptr);
  }
  return -1;
}

int accept_peer(int listen_fd) noexcept {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) return fd;
    if (errno != EINTR) return -1;
  }
}

bool send_fds(int sock, std::uint32_t tag, const int* fds,
              int nfds) noexcept {
  msghdr msg{};
  iovec iov{&tag, sizeof tag};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  alignas(cmsghdr) char ctrl[CMSG_SPACE(8 * sizeof(int))]{};
  const std::size_t fd_bytes = static_cast<std::size_t>(nfds) * sizeof(int);
  msg.msg_control = ctrl;
  msg.msg_controllen = CMSG_SPACE(fd_bytes);
  cmsghdr* cm = CMSG_FIRSTHDR(&msg);
  cm->cmsg_level = SOL_SOCKET;
  cm->cmsg_type = SCM_RIGHTS;
  cm->cmsg_len = CMSG_LEN(fd_bytes);
  std::memcpy(CMSG_DATA(cm), fds, fd_bytes);
  for (;;) {
    const ssize_t n = ::sendmsg(sock, &msg, MSG_NOSIGNAL);
    if (n == static_cast<ssize_t>(sizeof tag)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

bool recv_fds(int sock, std::uint32_t* tag, int* fds, int nfds) noexcept {
  msghdr msg{};
  iovec iov{tag, sizeof *tag};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  alignas(cmsghdr) char ctrl[CMSG_SPACE(8 * sizeof(int))]{};
  msg.msg_control = ctrl;
  msg.msg_controllen = sizeof ctrl;
  ssize_t n;
  for (;;) {
    n = ::recvmsg(sock, &msg, MSG_CMSG_CLOEXEC);
    if (n >= 0 || errno != EINTR) break;
  }
  if (n != static_cast<ssize_t>(sizeof *tag)) return false;
  const cmsghdr* cm = CMSG_FIRSTHDR(&msg);
  if (cm == nullptr || cm->cmsg_level != SOL_SOCKET ||
      cm->cmsg_type != SCM_RIGHTS ||
      cm->cmsg_len != CMSG_LEN(static_cast<std::size_t>(nfds) * sizeof(int))) {
    // Close any descriptors that did arrive so nothing leaks.
    if (cm != nullptr && cm->cmsg_type == SCM_RIGHTS) {
      std::size_t got = (cm->cmsg_len - CMSG_LEN(0)) / sizeof(int);
      if (got > 8) got = 8;
      int tmp[8];
      std::memcpy(tmp, CMSG_DATA(cm), got * sizeof(int));
      close_fds(tmp, static_cast<int>(got));
    }
    return false;
  }
  std::memcpy(fds, CMSG_DATA(cm),
              static_cast<std::size_t>(nfds) * sizeof(int));
  return true;
}

void close_fds(const int* fds, int nfds) noexcept {
  for (int i = 0; i < nfds; ++i)
    if (fds[i] >= 0) ::close(fds[i]);
}

}  // namespace aspen::shm
