// aspen::net wire protocol: length-prefixed frames over a byte stream.
//
// Every frame is a fixed 24-byte header followed by `payload_len` payload
// bytes. Multi-byte fields are host-endian: the conduit targets a single
// machine (processes launched by one `aspen-run`), so no byte swapping is
// performed; the launcher's bootstrap handshake would reject a
// cross-endian peer via the magic check anyway.
//
// Frame kinds and their payloads (see docs/NET.md for the full protocol):
//
//   hello          child -> launcher on the rendezvous socket. Payload:
//                  hello_body (rank, nranks, listen port, text anchor,
//                  segment base/bytes, pid, protocol version).
//   table          launcher -> child reply: u32 nranks then nranks x u16
//                  listen ports, rank-ordered.
//   ident          first frame on every mesh socket; src names the
//                  connecting rank. Empty payload.
//   am_eager       one complete active message: u64 handler delta, u64
//                  send timestamp (sender steady-clock ns normalized to
//                  rank 0's clock base; 0 when untimed), u64 otrace trace
//                  id (0 when the op is unsampled; protocol v5), then the
//                  AM payload bytes. seq orders it per (src -> dst).
//   am_rts         rendezvous request-to-send for an AM whose payload
//                  exceeds eager_max. Payload: rdzv_body (token, handler
//                  delta, total payload length, send timestamp, trace id).
//                  seq is the *message's* delivery slot; the data frame
//                  inherits it. The CTS/DATA legs carry no trace word —
//                  both sides key the trace by the rendezvous token.
//   am_cts         receiver -> sender clear-to-send. aux = token. No
//                  payload.
//   am_data        the rendezvous payload, one frame. aux = token.
//   coll_contrib   member -> coordinator collective contribution:
//                  u64 key, u64 seq, then the serialized contribution.
//   coll_result    coordinator -> member result: u64 key, u64 seq, then
//                  nmembers x (u32 len, bytes), member-ordered.
//   async_arrive   rank -> rank 0 asynchronous-barrier arrival; seq carries
//                  the epoch. No payload.
//   async_release  rank 0 -> all: epoch in seq is complete. No payload.
//   bye            clean-shutdown marker sent just before close. A peer
//                  socket reaching EOF without a preceding bye is a crashed
//                  process and aborts the job loudly.
//   telemetry      rank -> rank 0 live-telemetry update: a sparse
//                  varint-encoded counter delta plus transport gauges (see
//                  core/telemetry_live.hpp for the payload codec). aux bit 0
//                  marks the final region-exit flush. Never counted in the
//                  quiescence matrices.
//   clock_probe    rank -> rank 0 clock-offset probe during bootstrap
//                  (blocking phase, before the sockets go non-blocking).
//                  seq is the probe index. No payload.
//   clock_reply    rank 0's reply to a clock_probe: u64 steady-clock
//                  nanoseconds at rank 0. seq echoes the probe index.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "gex/am.hpp"
#include "gex/config.hpp"

namespace aspen::net {

inline constexpr std::uint16_t kMagic = 0xA59E;
inline constexpr std::uint32_t kProtocolVersion = 5;

enum class frame_kind : std::uint16_t {
  hello = 1,
  table = 2,
  ident = 3,
  am_eager = 4,
  am_rts = 5,
  am_cts = 6,
  am_data = 7,
  coll_contrib = 8,
  coll_result = 9,
  async_arrive = 10,
  async_release = 11,
  bye = 12,
  telemetry = 13,
  clock_probe = 14,
  clock_reply = 15,
};

[[nodiscard]] const char* kind_name(frame_kind k) noexcept;

/// The fixed on-wire header. Trivially copyable; written/read with memcpy.
struct frame_header {
  std::uint16_t magic = kMagic;
  std::uint16_t kind = 0;
  std::int32_t src = -1;          ///< sending rank (-1 in bootstrap frames)
  std::uint32_t payload_len = 0;  ///< bytes following this header
  std::uint32_t aux = 0;          ///< kind-specific (rendezvous token)
  std::uint64_t seq = 0;          ///< per-(src,dst) order / barrier epoch
};
static_assert(sizeof(frame_header) == 24, "wire header layout is fixed");
static_assert(std::is_trivially_copyable_v<frame_header>);

/// Bootstrap hello payload (child -> launcher).
struct hello_body {
  std::uint32_t protocol = kProtocolVersion;
  std::int32_t rank = -1;
  std::int32_t nranks = 0;
  std::uint32_t listen_port = 0;
  std::uint64_t anchor = 0;        ///< text anchor address (ASLR witness)
  std::uint64_t segment_base = 0;  ///< fixed arena base this process uses
  std::uint64_t segment_bytes = 0;
  std::int32_t pid = 0;
  std::uint32_t shm_ok = 0;   ///< rank created shm memfds (conduit::shm)
  std::uint64_t host_id = 0;  ///< host identity fingerprint (same-host test)
};
static_assert(std::is_trivially_copyable_v<hello_body>);

/// Rendezvous RTS payload.
struct rdzv_body {
  std::uint32_t token = 0;
  std::uint32_t pad = 0;
  std::uint64_t handler_delta = 0;
  std::uint64_t total_len = 0;
  std::uint64_t send_ns = 0;  ///< sender clock, rank-0-normalized; 0 untimed
  std::uint64_t trace = 0;    ///< otrace trace id; 0 when unsampled
};
static_assert(std::is_trivially_copyable_v<rdzv_body>);

/// The fixed am_eager body prefix preceding the AM payload bytes
/// (protocol v5: handler delta, send timestamp, trace id).
struct eager_body {
  std::uint64_t handler_delta = 0;
  std::uint64_t send_ns = 0;
  std::uint64_t trace = 0;
};
static_assert(sizeof(eager_body) == 24);
static_assert(std::is_trivially_copyable_v<eager_body>);

inline constexpr std::size_t kEagerPrefixBytes = sizeof(eager_body);

/// Largest AM payload one am_eager frame can carry under a `max_frame`
/// payload ceiling: the frame's payload is the prefix plus the message.
[[nodiscard]] constexpr std::size_t eager_payload_limit(
    std::size_t max_frame) noexcept {
  return max_frame > kEagerPrefixBytes ? max_frame - kEagerPrefixBytes : 0;
}

/// Decode the am_eager prefix out of a frame payload. Rejects runt frames
/// (payload shorter than the fixed prefix) — the conduit treats a false
/// return as a protocol violation.
[[nodiscard]] inline bool decode_eager_prefix(const void* payload,
                                              std::size_t len,
                                              eager_body* out) noexcept {
  if (len < kEagerPrefixBytes) return false;
  std::memcpy(out, payload, sizeof(eager_body));
  return true;
}

/// Decode an am_rts payload. Strict: the payload must be exactly one
/// rdzv_body (no truncation, no trailing bytes).
[[nodiscard]] inline bool decode_rdzv_body(const void* payload,
                                           std::size_t len,
                                           rdzv_body* out) noexcept {
  if (len != sizeof(rdzv_body)) return false;
  std::memcpy(out, payload, sizeof(rdzv_body));
  return true;
}

/// One decoded frame: header plus owned payload bytes.
struct frame {
  frame_header hdr{};
  std::vector<std::byte> payload;

  [[nodiscard]] frame_kind kind() const noexcept {
    return static_cast<frame_kind>(hdr.kind);
  }
};

/// Serialize a frame (header + payload) onto `out`.
void encode_frame(std::vector<std::byte>& out, const frame_header& hdr,
                  const void* payload, std::size_t len);

// ---------------------------------------------------------------------------
// Handler <-> wire encoding.
//
// AM handlers are raw function pointers, and ASPEN's higher layers embed
// more of them (plus initiator-local heap addresses that are only ever
// dereferenced back on the initiator) *inside* payloads. Identical code
// placement across ranks therefore carries the same weight it does for
// real PGAS jobs run with ASLR coordination: `aspen-run` disables address
// randomization in its children (personality(ADDR_NO_RANDOMIZE)) and
// verifies via the hello anchors that every process landed at the same
// text base, aborting the job with a diagnostic otherwise. Top-level
// handlers still travel as deltas against the anchor — a cheap extra
// integrity check (a wild delta faults near-deterministically instead of
// calling into unrelated code).
// ---------------------------------------------------------------------------

/// An address inside this executable's text, identical across ranks once
/// ASLR is off. Used as the hello witness and the handler-delta base.
[[nodiscard]] std::uintptr_t text_anchor() noexcept;

[[nodiscard]] inline std::uint64_t encode_handler(
    gex::am_handler h, std::uintptr_t anchor) noexcept {
  return static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(h) -
                                    anchor);
}

[[nodiscard]] inline gex::am_handler decode_handler(
    std::uint64_t delta, std::uintptr_t anchor) noexcept {
  return reinterpret_cast<gex::am_handler>(
      anchor + static_cast<std::uintptr_t>(delta));
}

// ---------------------------------------------------------------------------
// Incremental decoder: feed() arbitrary byte slices (torn reads welcome),
// pop complete frames with try_next(). Enters a sticky error state on a
// malformed header (bad magic, unknown kind, payload above max_frame).
// ---------------------------------------------------------------------------

class decoder {
 public:
  explicit decoder(std::size_t max_frame) : max_frame_(max_frame) {}

  /// Append raw bytes from the stream.
  void feed(const void* data, std::size_t len);

  /// Pop the next complete frame into `out`. Returns false when no full
  /// frame is buffered (or the decoder is in the error state).
  [[nodiscard]] bool try_next(frame& out);

  [[nodiscard]] bool in_error() const noexcept { return !error_.empty(); }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  /// Bytes buffered but not yet consumed as frames.
  [[nodiscard]] std::size_t buffered() const noexcept {
    return buf_.size() - consumed_;
  }

 private:
  std::size_t max_frame_;
  std::vector<std::byte> buf_;
  std::size_t consumed_ = 0;
  std::string error_;
};

// ---------------------------------------------------------------------------
// ASPEN_NET_* environment overrides (see docs/NET.md and
// benchutil/options.hpp for the user-facing table).
// ---------------------------------------------------------------------------

/// Apply ASPEN_NET_EAGER_MAX / ASPEN_NET_MAX_FRAME /
/// ASPEN_NET_SEGMENT_BASE plus the ASPEN_SHM_* family on top of `cfg`, and
/// normalize the shm knobs (power-of-two ring capacities, eager bound
/// inherited from eager_max when unset and clamped to a quarter ring).
[[nodiscard]] gex::net_config apply_env(gex::net_config cfg);

/// A fingerprint of this host (hostname + boot id), identical for every
/// process on the machine and distinct across machines with overwhelming
/// probability. Carried in the hello so the launcher's table tells each
/// rank which peers are same-host candidates for the shm conduit.
[[nodiscard]] std::uint64_t host_identity() noexcept;

}  // namespace aspen::net
