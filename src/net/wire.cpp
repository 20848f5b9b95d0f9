#include "net/wire.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/log.hpp"
#include "shm/ring.hpp"

namespace aspen::net {

const char* kind_name(frame_kind k) noexcept {
  switch (k) {
    case frame_kind::hello: return "hello";
    case frame_kind::table: return "table";
    case frame_kind::ident: return "ident";
    case frame_kind::am_eager: return "am_eager";
    case frame_kind::am_rts: return "am_rts";
    case frame_kind::am_cts: return "am_cts";
    case frame_kind::am_data: return "am_data";
    case frame_kind::coll_contrib: return "coll_contrib";
    case frame_kind::coll_result: return "coll_result";
    case frame_kind::async_arrive: return "async_arrive";
    case frame_kind::async_release: return "async_release";
    case frame_kind::bye: return "bye";
    case frame_kind::telemetry: return "telemetry";
    case frame_kind::clock_probe: return "clock_probe";
    case frame_kind::clock_reply: return "clock_reply";
  }
  return "?";
}

void encode_frame(std::vector<std::byte>& out, const frame_header& hdr,
                  const void* payload, std::size_t len) {
  frame_header h = hdr;
  h.magic = kMagic;
  h.payload_len = static_cast<std::uint32_t>(len);
  const std::size_t off = out.size();
  out.resize(off + sizeof(frame_header) + len);
  std::memcpy(out.data() + off, &h, sizeof(frame_header));
  if (len != 0)
    std::memcpy(out.data() + off + sizeof(frame_header), payload, len);
}

// The anchor must be a function whose address the linker fixes relative to
// every other text symbol in the binary; any function in this translation
// unit works. Taking &kind_name keeps it honest (a real exported symbol,
// not something the optimizer can localize away).
std::uintptr_t text_anchor() noexcept {
  return reinterpret_cast<std::uintptr_t>(&kind_name);
}

void encode_coll(std::vector<std::byte>& out, std::uint64_t key,
                 std::uint64_t seq,
                 std::span<const std::vector<std::byte>> entries) {
  const auto append = [&out](const void* p, std::size_t n) {
    out.insert(out.end(), static_cast<const std::byte*>(p),
               static_cast<const std::byte*>(p) + n);
  };
  const auto count = static_cast<std::uint32_t>(entries.size());
  append(&key, sizeof key);
  append(&seq, sizeof seq);
  append(&count, sizeof count);
  for (const auto& e : entries) {
    const auto len = static_cast<std::uint32_t>(e.size());
    append(&len, sizeof len);
    append(e.data(), e.size());
  }
}

bool decode_coll(const void* payload, std::size_t len, coll_msg* out) {
  const auto* p = static_cast<const std::byte*>(payload);
  const std::byte* const end = p + len;
  const auto take = [&p, end](void* dst, std::size_t n) {
    if (static_cast<std::size_t>(end - p) < n) return false;
    std::memcpy(dst, p, n);
    p += n;
    return true;
  };
  std::uint32_t count = 0;
  if (!take(&out->key, 8) || !take(&out->seq, 8) || !take(&count, 4))
    return false;
  out->entries.clear();
  while (count-- != 0) {
    std::uint32_t n = 0;
    if (!take(&n, sizeof n) || static_cast<std::size_t>(end - p) < n)
      return false;
    out->entries.emplace_back(p, p + n);
    p += n;
  }
  return p == end;
}

namespace {
constexpr bool valid_kind(std::uint16_t k) noexcept {
  return k >= static_cast<std::uint16_t>(frame_kind::hello) &&
         k <= static_cast<std::uint16_t>(frame_kind::clock_reply);
}
}  // namespace

void decoder::feed(const void* data, std::size_t len) {
  if (len == 0 || !error_.empty()) return;
  // Compact before growing once the consumed prefix dominates, keeping the
  // buffer proportional to unconsumed bytes even on long streams.
  if (consumed_ != 0 && consumed_ >= buf_.size() / 2) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  const auto* p = static_cast<const std::byte*>(data);
  buf_.insert(buf_.end(), p, p + len);
}

bool decoder::try_next(frame& out) {
  if (!error_.empty()) return false;
  if (buffered() < sizeof(frame_header)) return false;
  frame_header hdr;
  std::memcpy(&hdr, buf_.data() + consumed_, sizeof(frame_header));
  if (hdr.magic != kMagic) {
    char msg[96];
    std::snprintf(msg, sizeof msg,
                  "bad frame magic 0x%04x (stream desynchronized?)",
                  hdr.magic);
    error_ = msg;
    return false;
  }
  if (!valid_kind(hdr.kind)) {
    char msg[64];
    std::snprintf(msg, sizeof msg, "unknown frame kind %u", hdr.kind);
    error_ = msg;
    return false;
  }
  if (hdr.payload_len > max_frame_) {
    char msg[112];
    std::snprintf(msg, sizeof msg,
                  "oversized %s frame: payload %u bytes exceeds the %zu-byte "
                  "frame ceiling",
                  kind_name(static_cast<frame_kind>(hdr.kind)),
                  hdr.payload_len, max_frame_);
    error_ = msg;
    return false;
  }
  if (buffered() < sizeof(frame_header) + hdr.payload_len) return false;
  out.hdr = hdr;
  out.payload.assign(
      buf_.data() + consumed_ + sizeof(frame_header),
      buf_.data() + consumed_ + sizeof(frame_header) + hdr.payload_len);
  consumed_ += sizeof(frame_header) + hdr.payload_len;
  if (consumed_ == buf_.size()) {
    buf_.clear();
    consumed_ = 0;
  }
  return true;
}

namespace {

std::uint64_t env_u64(const char* name, std::uint64_t dflt) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return dflt;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 0);  // 0x ok
  if (end == v || *end != '\0') {
    aspen::log(log_level::warn, "net: ignoring unparsable %s=\"%s\"",
               name, v);
    return dflt;
  }
  return parsed;
}

}  // namespace

gex::net_config apply_env(gex::net_config cfg) {
  if (cfg.honor_env) {
    cfg.eager_max = static_cast<std::size_t>(
        env_u64("ASPEN_NET_EAGER_MAX", cfg.eager_max));
    cfg.max_frame = static_cast<std::size_t>(
        env_u64("ASPEN_NET_MAX_FRAME", cfg.max_frame));
    cfg.segment_base = static_cast<std::uintptr_t>(
        env_u64("ASPEN_NET_SEGMENT_BASE", cfg.segment_base));
    cfg.shm.enabled = env_u64("ASPEN_SHM", cfg.shm.enabled ? 1 : 0) != 0;
    cfg.shm.eager_max = static_cast<std::size_t>(
        env_u64("ASPEN_SHM_EAGER_MAX", cfg.shm.eager_max));
    cfg.shm.msg_ring_bytes = static_cast<std::size_t>(
        env_u64("ASPEN_SHM_RING_BYTES", cfg.shm.msg_ring_bytes));
    cfg.shm.bulk_ring_bytes = static_cast<std::size_t>(
        env_u64("ASPEN_SHM_BULK_BYTES", cfg.shm.bulk_ring_bytes));
    cfg.agg.enabled = env_u64("ASPEN_AGG", cfg.agg.enabled ? 1 : 0) != 0;
    cfg.agg.max_bytes = static_cast<std::size_t>(
        env_u64("ASPEN_AGG_BYTES", cfg.agg.max_bytes));
    cfg.agg.max_frames = static_cast<std::size_t>(
        env_u64("ASPEN_AGG_FRAMES", cfg.agg.max_frames));
    cfg.agg.flush_us = env_u64("ASPEN_AGG_FLUSH_US", cfg.agg.flush_us);
    cfg.sendq_max = static_cast<std::size_t>(
        env_u64("ASPEN_NET_SENDQ_MAX", cfg.sendq_max));
  }
  // An eager frame carries the message as a record in one frame, so both
  // eager bounds stay under the frame ceiling (the shm one too: a full ring
  // ships its batch as one eager socket frame).
  const std::size_t eager_limit = eager_payload_limit(cfg.max_frame);
  if (cfg.eager_max > eager_limit) cfg.eager_max = eager_limit;
  // Normalize the aggregation watermarks: at least one largest record must
  // fit (otherwise every send would flush immediately and the layer is pure
  // overhead), a batch ships as one frame so it stays under the ceiling,
  // and a frame-count watermark of zero means "flush every frame" which is
  // the same as disabled — clamp all three.
  if (cfg.agg.max_bytes < cfg.eager_max + kRecordMaxOverhead)
    cfg.agg.max_bytes = cfg.eager_max + kRecordMaxOverhead;
  if (cfg.agg.max_bytes > cfg.max_frame) cfg.agg.max_bytes = cfg.max_frame;
  if (cfg.agg.max_frames == 0) cfg.agg.max_frames = 1;
  if (cfg.agg.flush_us == 0) cfg.agg.flush_us = 1;
  // A send-queue bound below the aggregation byte watermark (or below one
  // maximal frame) would park injectors before a batch could ever fill;
  // clamp it up so the two mechanisms compose.
  if (cfg.sendq_max != 0) {
    const std::size_t floor_bytes =
        (cfg.agg.enabled ? cfg.agg.max_bytes
                         : cfg.eager_max + kRecordMaxOverhead) +
        2 * sizeof(frame_header);
    if (cfg.sendq_max < floor_bytes) cfg.sendq_max = floor_bytes;
  }
  // Normalize the shm channel geometry: power-of-two rings, the inline
  // bound inherited from the socket eager_max unless overridden, and always
  // small enough that several inline records fit in a message ring.
  cfg.shm.msg_ring_bytes = shm::spsc_ring::clamp_capacity(cfg.shm.msg_ring_bytes);
  cfg.shm.bulk_ring_bytes =
      shm::spsc_ring::clamp_capacity(cfg.shm.bulk_ring_bytes);
  if (cfg.shm.eager_max == 0) cfg.shm.eager_max = cfg.eager_max;
  if (cfg.shm.eager_max > cfg.shm.msg_ring_bytes / 4)
    cfg.shm.eager_max = cfg.shm.msg_ring_bytes / 4;
  if (cfg.shm.eager_max > eager_limit) cfg.shm.eager_max = eager_limit;
  return cfg;
}

std::uint64_t host_identity() noexcept {
  // FNV-1a over the hostname plus the kernel boot id: equal for every
  // process on one booted machine, practically unique across machines.
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const char* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(p[i]);
      h *= 0x100000001b3ull;
    }
  };
  char host[256] = {};
  if (::gethostname(host, sizeof host - 1) == 0)
    mix(host, std::strlen(host));
  if (std::FILE* f = std::fopen("/proc/sys/kernel/random/boot_id", "re")) {
    char boot[64] = {};
    const std::size_t n = std::fread(boot, 1, sizeof boot, f);
    std::fclose(f);
    mix(boot, n);
  }
  return h;
}

}  // namespace aspen::net
