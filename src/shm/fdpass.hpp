// aspen::shm — memfd creation and SCM_RIGHTS fd-passing for the bootstrap.
//
// The conduit::shm bootstrap must hand each same-host peer three file
// descriptors (the data-segment memfd, the control-segment memfd and the
// doorbell eventfd).
// SCM_RIGHTS only travels over AF_UNIX, and the aspen-run mesh is AF_INET
// loopback, so the exchange runs over short-lived abstract-namespace unix
// sockets named deterministically from the job's rendezvous port and the
// listening rank — no filesystem paths to create or clean up, and the name
// space is per network namespace, which doubles as a same-host check: a
// peer we cannot reach over the abstract socket is treated as off-host and
// keeps the tcp path.
//
// Every function degrades gracefully (returns -1/false) instead of
// aborting: shm is an optimization layer, and any failure simply leaves
// the affected peer on the socket conduit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace aspen::shm {

/// memfd_create + ftruncate to `bytes`. -1 when the kernel (or a seccomp
/// policy) refuses — the caller falls back to tcp-only operation.
[[nodiscard]] int create_memfd(const char* name, std::size_t bytes) noexcept;

/// Deterministic abstract-socket name for `rank`'s fd-exchange listener in
/// the job rendezvoused on `rdzv_port`.
[[nodiscard]] std::string exchange_socket_name(std::uint16_t rdzv_port,
                                               int rank);

/// Listen on the abstract name (leading NUL added internally). -1 on error.
[[nodiscard]] int listen_abstract(const std::string& name,
                                  int backlog) noexcept;

/// Connect to a peer's abstract listener, retrying briefly (the peer may
/// still be wiring its mesh). -1 when the peer never appears — off-host or
/// shm-disabled.
[[nodiscard]] int connect_abstract(const std::string& name) noexcept;

/// Accept one fd-exchange connection; -1 on error.
[[nodiscard]] int accept_peer(int listen_fd) noexcept;

/// Ship `tag` (the sender's rank) plus `nfds` descriptors in one message.
[[nodiscard]] bool send_fds(int sock, std::uint32_t tag, const int* fds,
                            int nfds) noexcept;

/// Receive the counterpart message; fills `tag` and exactly `nfds`
/// descriptors (anything else fails and closes whatever arrived).
[[nodiscard]] bool recv_fds(int sock, std::uint32_t* tag, int* fds,
                            int nfds) noexcept;

/// Close every descriptor in `fds[0..nfds)` that is not -1.
void close_fds(const int* fds, int nfds) noexcept;

}  // namespace aspen::shm
