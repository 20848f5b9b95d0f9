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
//   am_eager       a run of one or more AM records (see am_record below):
//                  a flushed aggregation batch, or a single record when
//                  aggregation is off. Each record carries its own seq.
//   am_rts         rendezvous request-to-send for an AM whose payload
//                  exceeds eager_max: one record whose len is the total
//                  payload, which follows later in one am_data frame.
//   am_cts         receiver -> sender clear-to-send. seq = the message's
//                  seq, which keys the rendezvous. No payload.
//   am_data        the rendezvous payload, one frame. seq = the message's.
//   coll_contrib   member -> coordinator collective contribution, and
//   coll_result    coordinator -> member result: u64 key, u64 seq, then a
//                  member table (see encode_coll).
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
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "gex/am.hpp"
#include "gex/config.hpp"

namespace aspen::net {

inline constexpr std::uint16_t kMagic = 0xA59E;
inline constexpr std::uint32_t kProtocolVersion = 6;

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
  std::uint32_t aux = 0;          ///< kind-specific (telemetry final flag)
  std::uint64_t seq = 0;          ///< rendezvous key / barrier epoch
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

// ---------------------------------------------------------------------------
// The AM record (protocol v6): one active message, encoded the same way in
// an am_eager frame, a shm message-ring record and an am_rts payload. On the
// wire: the 24-byte header (seq, handler_delta, len, flags), then send_ns
// iff kRecTimed, then trace iff kRecTraced, then `len` payload bytes unless
// the record is detached — an am_rts record (the payload follows in
// am_data) or a kRecBulk one (the payload is the shm bulk ring's front).
// A detached record travels alone in its run.
// ---------------------------------------------------------------------------

inline constexpr std::uint32_t kRecTimed = 1u << 0;
inline constexpr std::uint32_t kRecTraced = 1u << 1;
inline constexpr std::uint32_t kRecBulk = 1u << 2;

struct am_record {
  std::uint64_t seq = 0;            ///< per-(src -> dst) delivery slot
  std::uint64_t handler_delta = 0;  ///< handler minus the text anchor
  std::uint32_t len = 0;            ///< payload bytes
  std::uint32_t flags = 0;  ///< encode_record sets kRecTimed/kRecTraced
  std::uint64_t send_ns = 0;  ///< sender clock, rank-0-normalized; 0 untimed
  std::uint64_t trace = 0;    ///< otrace trace id; 0 unsampled
};
/// The fixed record header size.
inline constexpr std::size_t kEagerPrefixBytes = 24;
static_assert(offsetof(am_record, send_ns) == kEagerPrefixBytes);
static_assert(std::is_trivially_copyable_v<am_record>);
/// The most a record adds to its payload: the header plus both words.
inline constexpr std::size_t kRecordMaxOverhead = sizeof(am_record);

/// Largest AM payload one am_eager frame can carry under a `max_frame`
/// payload ceiling, whatever optional words its record carries.
[[nodiscard]] constexpr std::size_t eager_payload_limit(
    std::size_t max_frame) noexcept {
  return max_frame > kRecordMaxOverhead ? max_frame - kRecordMaxOverhead : 0;
}

/// Encode `r` at `out`, then `payload` (r.len bytes) unless it is null (a
/// detached record). kRecBulk comes from r.flags, the other flags from the
/// optional words. Returns the bytes written, at most kRecordMaxOverhead
/// plus the payload.
inline std::size_t encode_record(std::byte* out, const am_record& r,
                                 const void* payload) noexcept {
  am_record h = r;
  h.flags = (r.flags & kRecBulk) | (r.send_ns != 0 ? kRecTimed : 0) |
            (r.trace != 0 ? kRecTraced : 0);
  std::memcpy(out, &h, kEagerPrefixBytes);
  std::size_t n = kEagerPrefixBytes;
  for (const std::uint64_t word : {r.send_ns, r.trace}) {
    if (word == 0) continue;
    std::memcpy(out + n, &word, sizeof word);
    n += sizeof word;
  }
  if (payload == nullptr) return n;
  if (r.len != 0) std::memcpy(out + n, payload, r.len);
  return n + r.len;
}

/// Where a run of records arrived; decides which records are legal.
enum class run_source : std::uint8_t {
  eager,  ///< an am_eager frame: inline records only
  rts,    ///< an am_rts frame: exactly one record, its payload detached
  ring,   ///< a shm message-ring record: inline records, or one kRecBulk
};

/// Decode a run of records from `Src`, calling fn(const am_record&, const
/// std::byte* payload) per record in order (payload null when detached).
/// Rejects an empty run, runts, a len past the buffer, unknown flag bits,
/// trailing bytes, a detached record not alone, and a kRecBulk record off
/// the ring or whose len is not `bulk_len` (the bulk ring's front record
/// size, 0 when empty). Records fn saw before a false lay in the buffer.
template <run_source Src, class Fn>
[[nodiscard]] bool decode_run(const void* buf, std::size_t n, Fn&& fn,
                              std::size_t bulk_len = 0) {
  const auto* base = static_cast<const std::byte*>(buf);
  std::size_t off = 0;
  do {
    const std::size_t start = off;
    am_record r;
    if (n - off < kEagerPrefixBytes) return false;
    std::memcpy(static_cast<void*>(&r), base + off, kEagerPrefixBytes);
    off += kEagerPrefixBytes;
    if ((r.flags & ~(kRecTimed | kRecTraced | kRecBulk)) != 0) return false;
    if ((r.flags & kRecTimed) != 0) {
      if (n - off < sizeof r.send_ns) return false;
      std::memcpy(&r.send_ns, base + off, sizeof r.send_ns);
      off += sizeof r.send_ns;
    }
    if ((r.flags & kRecTraced) != 0) {
      if (n - off < sizeof r.trace) return false;
      std::memcpy(&r.trace, base + off, sizeof r.trace);
      off += sizeof r.trace;
    }
    const bool alone = start == 0 && off == n;
    if ((r.flags & kRecBulk) != 0) {
      if constexpr (Src != run_source::ring) {
        return false;
      } else {
        if (!alone || r.len == 0 || r.len != bulk_len) return false;
        fn(r, nullptr);
      }
    } else if constexpr (Src == run_source::rts) {
      if (!alone) return false;
      fn(r, nullptr);
    } else {
      if (n - off < r.len) return false;
      fn(r, base + off);
      off += r.len;
    }
  } while (off != n);
  return true;
}

/// A collective frame (coll_contrib, coll_result). On the wire: u64 key,
/// u64 seq, u32 entry count, then (u32 len, bytes) per entry — one entry
/// (the member's bytes) in a contribution, one per member in a result.
struct coll_msg {
  std::uint64_t key = 0;
  std::uint64_t seq = 0;
  std::vector<std::vector<std::byte>> entries;
};

void encode_coll(std::vector<std::byte>& out, std::uint64_t key,
                 std::uint64_t seq,
                 std::span<const std::vector<std::byte>> entries);

/// Strict decoder for both kinds: rejects a runt prefix, an entry running
/// past the end, and trailing bytes.
[[nodiscard]] bool decode_coll(const void* payload, std::size_t len,
                               coll_msg* out);

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
