// net::io_backend — the endpoint's socket data plane: synchronous
// send(2)/recv(2) loops per peer plus a poll(2) idle park.
//
// net::endpoint owns every protocol decision (framing, seq order, staged
// delivery, aggregation watermarks, quiescence accounting); the io_backend
// owns only how bytes cross the kernel boundary. Per-peer byte-stream order
// is preserved, and inbound bytes are fed to the sink in arrival order.
//
// Threading: flush may be called from any thread (the endpoint holds the
// peer's send lock). pump/idle_park/attach/detach are master-thread only;
// the sink callbacks run on the master thread and must not take peer send
// locks.
#pragma once

#include <cstddef>
#include <vector>

namespace aspen::net {

class io_backend {
 public:
  /// Inbound delivery interface, implemented by the endpoint: on_bytes
  /// feeds a peer's incremental decoder (torn/partial feeds are fine);
  /// on_eof flags the peer's stream end for post-pump handling.
  class recv_sink {
   public:
    virtual void on_bytes(int rank, const void* data, std::size_t len) = 0;
    virtual void on_eof(int rank) = 0;

   protected:
    ~recv_sink() = default;
  };

  explicit io_backend(int nranks)
      : fds_(static_cast<std::size_t>(nranks), -1) {}

  /// Adopt a connected, non-blocking peer socket. The fd stays owned by
  /// the endpoint.
  void attach(int rank, int fd) { fds_[static_cast<std::size_t>(rank)] = fd; }
  /// Forget a departed peer: stop sending to and watching its fd.
  void detach(int rank) { fds_[static_cast<std::size_t>(rank)] = -1; }

  /// Send queued wire bytes (`out[off..]`) without blocking, advancing
  /// `off` up to EAGAIN; any residue stays in `out` for the next flush.
  /// Called with the peer's send lock held.
  void flush(int rank, std::vector<std::byte>& out, std::size_t& off);

  /// One progress tick: drain every readable socket and feed the inbound
  /// bytes (or EOF) to the sink. Returns units of work done.
  std::size_t pump(recv_sink& sink);

  /// Park for up to 1 ms in poll(2) waiting for inbound traffic, rotating
  /// the watched window when the mesh exceeds the fd cap.
  void idle_park();

 private:
  std::vector<int> fds_;    ///< peer fd by rank, -1 when absent
  std::size_t rotate_ = 0;  ///< idle-park window start (fd-cap rotation)
};

}  // namespace aspen::net
