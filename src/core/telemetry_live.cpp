#include "core/telemetry_live.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>

#include "core/log.hpp"

namespace aspen::telemetry::live {

// ---------------------------------------------------------------------------
// Flat field view of a snapshot
// ---------------------------------------------------------------------------

namespace {

std::uint64_t field_get(const snapshot& s, std::size_t i) noexcept {
  if (i >= kLatFieldBase) {
    const std::size_t j = i - kLatFieldBase;
    const lat_hist& h = s.lat[j / (kLatBuckets + 1)];
    const std::size_t k = j % (kLatBuckets + 1);
    return k < kLatBuckets ? h.buckets[k] : h.max_ns;
  }
  if (i < kCounterCount) return s.counters[i];
  i -= kCounterCount;
  if (i < kPqBatchBuckets) return s.pq_fire_hist[i];
  switch (i - kPqBatchBuckets) {
    case 0: return s.pq_high_water;
    case 1: return s.pq_reserve_growths;
    case 2: return s.pq_total_fired;
    default: return s.lpc_mailbox_high_water;
  }
}

void field_set(snapshot& s, std::size_t i, std::uint64_t v) noexcept {
  if (i >= kLatFieldBase) {
    const std::size_t j = i - kLatFieldBase;
    lat_hist& h = s.lat[j / (kLatBuckets + 1)];
    const std::size_t k = j % (kLatBuckets + 1);
    if (k < kLatBuckets) {
      h.buckets[k] = v;
    } else {
      h.max_ns = v;
    }
    return;
  }
  if (i < kCounterCount) {
    s.counters[i] = v;
    return;
  }
  i -= kCounterCount;
  if (i < kPqBatchBuckets) {
    s.pq_fire_hist[i] = v;
    return;
  }
  switch (i - kPqBatchBuckets) {
    case 0: s.pq_high_water = v; break;
    case 1: s.pq_reserve_growths = v; break;
    case 2: s.pq_total_fired = v; break;
    default: s.lpc_mailbox_high_water = v; break;
  }
}

void put_varint(std::vector<std::byte>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::byte>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<std::byte>(v));
}

bool get_varint(const std::byte*& p, const std::byte* end,
                std::uint64_t* out) {
  std::uint64_t r = 0;
  for (int shift = 0; p < end && shift < 64; shift += 7) {
    const auto b = std::to_integer<std::uint8_t>(*p++);
    r |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      *out = r;
      return true;
    }
  }
  return false;  // truncated or overlong
}

}  // namespace

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

void encode_update(const snapshot& delta, const gauges& g,
                   std::vector<std::byte>& out) {
  std::uint64_t nonzero = 0;
  for (std::size_t i = 0; i < kFieldCount; ++i)
    if (field_get(delta, i) != 0) ++nonzero;
  put_varint(out, nonzero);
  for (std::size_t i = 0; i < kFieldCount; ++i) {
    const std::uint64_t v = field_get(delta, i);
    if (v == 0) continue;
    put_varint(out, i);
    put_varint(out, v);
  }
  put_varint(out, g.sendq_bytes);
  put_varint(out, g.sendq_high_water);
  put_varint(out, g.staged_msgs);
  put_varint(out, g.lpc_mailbox_depth);
  put_varint(out, g.wd_state);
}

bool decode_update(const void* data, std::size_t len, snapshot* delta,
                   gauges* g) {
  const auto* p = static_cast<const std::byte*>(data);
  const std::byte* end = p + len;
  std::uint64_t n = 0;
  if (!get_varint(p, end, &n) || n > kFieldCount) return false;
  snapshot s{};
  std::uint64_t prev_idx = 0;
  bool first = true;
  for (std::uint64_t k = 0; k < n; ++k) {
    std::uint64_t idx = 0, val = 0;
    if (!get_varint(p, end, &idx) || !get_varint(p, end, &val)) return false;
    if (idx >= kFieldCount) return false;
    if (!first && idx <= prev_idx) return false;  // canonical form only
    if (val == 0) return false;                   // zeros are never encoded
    field_set(s, idx, val);
    prev_idx = idx;
    first = false;
  }
  gauges gg;
  if (!get_varint(p, end, &gg.sendq_bytes) ||
      !get_varint(p, end, &gg.sendq_high_water) ||
      !get_varint(p, end, &gg.staged_msgs) ||
      !get_varint(p, end, &gg.lpc_mailbox_depth) ||
      !get_varint(p, end, &gg.wd_state))
    return false;
  if (p != end) return false;  // trailing garbage
  if (delta != nullptr) *delta = s;
  if (g != nullptr) *g = gg;
  return true;
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

std::uint32_t interval_ms() noexcept {
  static const std::uint32_t v = [] {
    const char* s = std::getenv("ASPEN_TELEMETRY_INTERVAL_MS");
    if (s == nullptr || *s == '\0') return 0u;
    char* end = nullptr;
    const unsigned long r = std::strtoul(s, &end, 10);
    if (end == s || *end != '\0') {
      aspen::log(log_level::warn,
                 "telemetry: ignoring unparsable ASPEN_TELEMETRY_INTERVAL_MS"
                 "=\"%s\"",
                 s);
      return 0u;
    }
    return r > 3'600'000ul ? 3'600'000u : static_cast<std::uint32_t>(r);
  }();
  return v;
}

bool enabled() noexcept { return interval_ms() != 0; }

// ---------------------------------------------------------------------------
// Producer state
// ---------------------------------------------------------------------------

namespace {

struct producer {
  std::mutex mu;
  snapshot shipped;  ///< cumulative totals as of the last capture
};

/// Leaked like the counter registry: a rank may ship its final frame during
/// static destruction ordering no one controls.
producer& prod() noexcept {
  static producer* p = new producer;
  return *p;
}

}  // namespace

snapshot take_update_delta() {
  producer& p = prod();
  std::lock_guard<std::mutex> lk(p.mu);
  const snapshot cur = aggregate();
  const snapshot d = cur - p.shipped;
  p.shipped = cur;
  return d;
}

snapshot capture_total() {
  producer& p = prod();
  std::lock_guard<std::mutex> lk(p.mu);
  p.shipped = aggregate();
  return p.shipped;
}

snapshot shipped_total() {
  producer& p = prod();
  std::lock_guard<std::mutex> lk(p.mu);
  return p.shipped;
}

// ---------------------------------------------------------------------------
// Collector state
// ---------------------------------------------------------------------------

namespace {

struct collector {
  std::mutex mu;
  int nranks = 0;
  std::vector<snapshot> totals;
  std::vector<gauges> gauge;
  std::vector<std::uint64_t> updates;
  int finals_this_epoch = 0;
};

collector& coll() noexcept {
  static collector* c = new collector;
  return *c;
}

}  // namespace

void collector_reset(int nranks) {
  collector& c = coll();
  std::lock_guard<std::mutex> lk(c.mu);
  c.nranks = nranks;
  c.totals.assign(static_cast<std::size_t>(nranks), snapshot{});
  c.gauge.assign(static_cast<std::size_t>(nranks), gauges{});
  c.updates.assign(static_cast<std::size_t>(nranks), 0);
  c.finals_this_epoch = 0;
}

void collector_accumulate(int rank, const snapshot& delta, const gauges& g,
                          bool final_flush) {
  collector& c = coll();
  std::lock_guard<std::mutex> lk(c.mu);
  if (rank < 0 || rank >= c.nranks) return;
  const auto r = static_cast<std::size_t>(rank);
  merge_into(c.totals[r], delta);
  c.gauge[r] = g;
  ++c.updates[r];
  if (final_flush) ++c.finals_this_epoch;
}

void collector_note_local(const snapshot& total, const gauges& g) {
  collector& c = coll();
  std::lock_guard<std::mutex> lk(c.mu);
  if (c.nranks == 0) return;
  c.totals[0] = total;
  c.gauge[0] = g;
  ++c.updates[0];
}

int collector_finals() {
  collector& c = coll();
  std::lock_guard<std::mutex> lk(c.mu);
  return c.finals_this_epoch;
}

void collector_begin_epoch() {
  collector& c = coll();
  std::lock_guard<std::mutex> lk(c.mu);
  c.finals_this_epoch = 0;
}

snapshot job_snapshot() {
  collector& c = coll();
  std::lock_guard<std::mutex> lk(c.mu);
  snapshot job{};
  for (const snapshot& s : c.totals) merge_into(job, s);
  return job;
}

snapshot rank_snapshot(int rank) {
  collector& c = coll();
  std::lock_guard<std::mutex> lk(c.mu);
  if (rank < 0 || rank >= c.nranks) return {};
  return c.totals[static_cast<std::size_t>(rank)];
}

gauges rank_gauges(int rank) {
  collector& c = coll();
  std::lock_guard<std::mutex> lk(c.mu);
  if (rank < 0 || rank >= c.nranks) return {};
  return c.gauge[static_cast<std::size_t>(rank)];
}

std::uint64_t rank_updates(int rank) {
  collector& c = coll();
  std::lock_guard<std::mutex> lk(c.mu);
  if (rank < 0 || rank >= c.nranks) return 0;
  return c.updates[static_cast<std::size_t>(rank)];
}

}  // namespace aspen::telemetry::live
