#include "core/otrace.hpp"

namespace aspen::otrace {

const char* to_string(stage s) noexcept {
  switch (s) {
    case stage::inject: return "inject";
    case stage::am_send: return "am_send";
    case stage::wire_eager: return "wire_eager";
    case stage::wire_rts: return "wire_rts";
    case stage::wire_cts: return "wire_cts";
    case stage::wire_data: return "wire_data";
    case stage::shm_push: return "shm_push";
    case stage::agg_stage: return "agg_stage";
    case stage::wire_deliver: return "wire_deliver";
    case stage::handler_run: return "handler_run";
    case stage::lpc_hop: return "lpc_hop";
    case stage::fulfill_eager: return "fulfill_eager";
    case stage::fulfill_deferred: return "fulfill_deferred";
  }
  return "?";
}

std::string dump_path(const std::string& base, int rank) {
  return base + ".rank" + std::to_string(rank) + ".flight.json";
}

std::string export_path(const std::string& base, int rank) {
  return base + ".rank" + std::to_string(rank) + ".otrace.json";
}

}  // namespace aspen::otrace

#if ASPEN_TELEMETRY_ENABLED

#include <fcntl.h>
#include <signal.h>  // sigaction (POSIX; <csignal> need not declare it)
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "core/log.hpp"

namespace aspen::otrace {

namespace {

// ---------------------------------------------------------------------------
// The flight-recorder ring
// ---------------------------------------------------------------------------

/// One ring slot. Writers claim a ticket with a relaxed fetch_add, fill the
/// fields, then release-store commit = ticket + 1; readers accept a slot
/// only when commit matches the expected ticket before and after copying
/// the fields, so a torn record (overwritten mid-read by a lapping writer)
/// is dropped instead of misreported.
struct slot {
  std::atomic<std::uint64_t> commit{0};
  std::uint64_t trace = 0;
  std::uint64_t t_ns = 0;
  std::uint64_t aux = 0;
  std::uint16_t st = 0;
  std::int16_t rank = -1;
  std::uint16_t tag = 0;
  std::uint16_t pad = 0;
};

struct ot_state {
  std::mutex mu;
  /// Set last (release) by apply_config_locked; sample_n() reads it
  /// without the mutex on every draw.
  std::atomic<bool> configured{false};
  std::string base = "aspen";
  std::atomic<std::uint32_t> sample_n{0};
  std::atomic<slot*> ring{nullptr};
  std::uint64_t cap = 0;  ///< power of two; set once with `ring`
  std::atomic<std::uint64_t> mask{0};
  std::atomic<std::uint64_t> head{0};
  std::atomic<std::uint64_t> next_seq{1};
  std::atomic<int> rank{-1};  ///< first non-negative rank seen (dump naming)
  std::atomic<int> next_tag{1};
  std::atomic<bool> handlers_installed{false};
  // Rendered once at configure/first-rank time so the signal handler only
  // reads plain bytes (std::string methods are not async-signal-safe).
  char dump_path_buf[512] = "aspen.rank0.flight.json";
  std::atomic<bool> dump_path_valid{false};
  struct sigaction prev_segv{};
  struct sigaction prev_abrt{};
};

/// Leaked like every telemetry registry: the crash handlers can fire during
/// static destruction.
ot_state& st() noexcept {
  static ot_state* s = new ot_state;
  return *s;
}

struct ot_tls {
  std::uint64_t stream = 0;  ///< sampling decision stream (splitmix64)
  int rank = 0;
  std::uint16_t tag = 0;
  bool seeded = false;
};

ot_tls& tls() noexcept {
  static thread_local ot_tls t;
  return t;
}

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t seed_for_rank(int rank) noexcept {
  // Fixed constant mixed with the rank: the decision stream is a pure
  // function of the rank, never of time or address layout.
  std::uint64_t s = 0xA59E0000u + static_cast<std::uint64_t>(rank + 1);
  (void)splitmix64(s);
  return s;
}

void render_dump_path_locked(ot_state& s) {
  const int r = s.rank.load(std::memory_order_relaxed);
  const std::string p = dump_path(s.base, r < 0 ? 0 : r);
  if (p.size() < sizeof s.dump_path_buf) {
    std::memcpy(s.dump_path_buf, p.c_str(), p.size() + 1);
    s.dump_path_valid.store(true, std::memory_order_release);
  }
}

std::uint64_t parse_ring_bytes(const char* v) noexcept {
  if (v == nullptr || *v == '\0') return std::uint64_t{1} << 20;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(v, &end, 0);
  if (end == v || *end != '\0') {
    aspen::log(log_level::warn,
               "otrace: ignoring unparsable ASPEN_TRACE_RING_BYTES=\"%s\"",
               v);
    return std::uint64_t{1} << 20;
  }
  return n;
}

std::uint32_t parse_sample(const char* v) noexcept {
  if (v == nullptr || *v == '\0') return 0;
  // Accept "N" or "1/N" (both mean: sample one op in N).
  const char* p = v;
  if (p[0] == '1' && p[1] == '/') p += 2;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(p, &end, 10);
  if (end == p || *end != '\0' || n > 0xFFFFFFFFull) {
    aspen::log(log_level::warn,
               "otrace: ignoring unparsable ASPEN_TRACE_SAMPLE=\"%s\"", v);
    return 0;
  }
  return static_cast<std::uint32_t>(n);
}

void apply_config_locked(ot_state& s, std::uint32_t sample,
                         std::uint64_t ring_bytes) {
  s.sample_n.store(sample, std::memory_order_relaxed);
  s.configured.store(true, std::memory_order_release);
  // op_scope's inline gate: from here on an op calls trace_begin only
  // while sampling is armed.
  telemetry::detail::g_trace_gate.store(sample, std::memory_order_relaxed);
  if (sample == 0 || s.ring.load(std::memory_order_relaxed) != nullptr)
    return;
  if (ring_bytes < (std::uint64_t{4} << 10)) ring_bytes = std::uint64_t{4} << 10;
  if (ring_bytes > (std::uint64_t{1} << 30)) ring_bytes = std::uint64_t{1} << 30;
  std::uint64_t cap = ring_bytes / sizeof(slot);
  while ((cap & (cap - 1)) != 0) cap &= cap - 1;  // round down to pow2
  if (cap < 64) cap = 64;
  // Leaked on purpose, exactly like the registries: the SIGSEGV handler
  // may walk the ring during teardown.
  auto* ring = new slot[cap];
  s.cap = cap;
  s.mask.store(cap - 1, std::memory_order_relaxed);
  s.ring.store(ring, std::memory_order_release);
  render_dump_path_locked(s);
}

void ensure_configured_locked(ot_state& s) {
  if (s.configured.load(std::memory_order_relaxed)) return;
  const std::uint32_t sample =
      parse_sample(std::getenv("ASPEN_TRACE_SAMPLE"));
  const std::uint64_t ring_bytes =
      parse_ring_bytes(std::getenv("ASPEN_TRACE_RING_BYTES"));
  // The one diagnostic base, shared with the watchdog's dumps, so one
  // job's artifacts land together.
  s.base = telemetry::artifact_base();
  apply_config_locked(s, sample, ring_bytes);
}

// ---------------------------------------------------------------------------
// Async-signal-safe formatting (the crash-dump writer)
// ---------------------------------------------------------------------------

std::size_t fmt_dec(char* out, std::uint64_t v) noexcept {
  char tmp[20];
  std::size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  for (std::size_t i = 0; i < n; ++i) out[i] = tmp[n - 1 - i];
  return n;
}

std::size_t fmt_hex(char* out, std::uint64_t v) noexcept {
  static const char* d = "0123456789abcdef";
  char tmp[16];
  std::size_t n = 0;
  do {
    tmp[n++] = d[v & 0xF];
    v >>= 4;
  } while (v != 0);
  out[0] = '0';
  out[1] = 'x';
  for (std::size_t i = 0; i < n; ++i) out[2 + i] = tmp[n - 1 - i];
  return 2 + n;
}

struct sink {
  explicit sink(int f) noexcept : fd(f) {}

  int fd;
  char buf[1024];
  std::size_t off = 0;

  void put(const char* p, std::size_t n) noexcept {
    std::size_t done = 0;
    while (done < n) {
      const ssize_t w = ::write(fd, p + done, n - done);
      if (w <= 0) break;
      done += static_cast<std::size_t>(w);
    }
  }
  void flush() noexcept {
    put(buf, off);
    off = 0;
  }
  void lit(const char* s) noexcept {
    const std::size_t n = std::strlen(s);
    if (off + n > sizeof buf) flush();
    if (n > sizeof buf) {
      put(s, n);  // longer than the buffer (a health object): write through
      return;
    }
    std::memcpy(buf + off, s, n);
    off += n;
  }
  void dec(std::uint64_t v) noexcept {
    if (off + 20 > sizeof buf) flush();
    off += fmt_dec(buf + off, v);
  }
  void sdec(std::int64_t v) noexcept {
    if (v < 0) {
      lit("-");
      dec(static_cast<std::uint64_t>(-v));
    } else {
      dec(static_cast<std::uint64_t>(v));
    }
  }
  void hex(std::uint64_t v) noexcept {
    if (off + 18 > sizeof buf) flush();
    off += fmt_hex(buf + off, v);
  }
};

/// Walk the ring oldest-first, calling fn(ticket, copied-slot) for every
/// consistently committed record. Safe from signal context (atomic loads
/// and plain copies only).
template <typename Fn>
void for_each_record(Fn&& fn) noexcept {
  ot_state& s = st();
  slot* ring = s.ring.load(std::memory_order_acquire);
  if (ring == nullptr) return;
  const std::uint64_t mask = s.mask.load(std::memory_order_relaxed);
  const std::uint64_t cap = mask + 1;
  const std::uint64_t head = s.head.load(std::memory_order_acquire);
  const std::uint64_t first = head > cap ? head - cap : 0;
  for (std::uint64_t t = first; t < head; ++t) {
    slot& sl = ring[t & mask];
    if (sl.commit.load(std::memory_order_acquire) != t + 1) continue;
    slot copy;
    copy.trace = sl.trace;
    copy.t_ns = sl.t_ns;
    copy.aux = sl.aux;
    copy.st = sl.st;
    copy.rank = sl.rank;
    copy.tag = sl.tag;
    if (sl.commit.load(std::memory_order_acquire) != t + 1) continue;
    fn(t, copy);
  }
}

/// The dump body: `health` (a rendered JSON object, or nullptr) ahead of
/// the ring's records. Async-signal-safe when `health` is nullptr.
void dump_to_fd(int fd, int rank, const char* health) noexcept {
  ot_state& s = st();
  sink out(fd);
  out.lit("{\"otrace_dump\":true,\"rank\":");
  out.sdec(rank);
  if (health != nullptr) {
    out.lit(",\"health\":");
    out.lit(health);
  }
  out.lit(",\"records_appended\":");
  out.dec(s.head.load(std::memory_order_relaxed));
  out.lit(",\"ring_capacity\":");
  out.dec(s.cap);
  out.lit(",\"records\":[");
  bool first = true;
  for_each_record([&](std::uint64_t, const slot& sl) {
    if (!first) out.lit(",");
    first = false;
    out.lit("\n{\"trace\":\"");
    out.hex(sl.trace);
    out.lit("\",\"stage\":\"");
    out.lit(to_string(static_cast<stage>(sl.st)));
    out.lit("\",\"t_ns\":");
    out.dec(sl.t_ns);
    out.lit(",\"aux\":\"");
    out.hex(sl.aux);
    out.lit("\",\"rank\":");
    out.sdec(sl.rank);
    out.lit(",\"tag\":");
    out.dec(sl.tag);
    out.lit("}");
  });
  out.lit("\n]}\n");
  out.flush();
}

extern "C" void ot_sigusr2_handler(int) { dump_signal_safe(); }

extern "C" void ot_crash_handler(int signo) {
  dump_signal_safe();
  // Restore the previous disposition and re-raise so the default crash
  // behavior (core dump, abort exit code) still happens.
  ot_state& s = st();
  struct sigaction& prev = signo == SIGSEGV ? s.prev_segv : s.prev_abrt;
  sigaction(signo, &prev, nullptr);
  raise(signo);
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

void configure(std::uint32_t sample_n, std::uint64_t ring_bytes,
               const char* base) noexcept {
  ot_state& s = st();
  std::lock_guard<std::mutex> lk(s.mu);
  if (base != nullptr && *base != '\0') s.base = base;
  apply_config_locked(s, sample_n, ring_bytes);
  if (s.ring.load(std::memory_order_relaxed) != nullptr)
    render_dump_path_locked(s);
}

bool enabled() noexcept { return sample_n() != 0; }

std::uint32_t sample_n() noexcept {
  ot_state& s = st();
  if (!s.configured.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lk(s.mu);
    ensure_configured_locked(s);
  }
  return s.sample_n.load(std::memory_order_relaxed);
}

std::uint64_t ring_capacity() noexcept {
  ot_state& s = st();
  std::lock_guard<std::mutex> lk(s.mu);
  return s.cap;
}

const char* dump_base() noexcept {
  ot_state& s = st();
  std::lock_guard<std::mutex> lk(s.mu);
  ensure_configured_locked(s);
  // s.base only ever changes under mu before the ring exists; callers use
  // the pointer immediately (export path construction).
  return s.base.c_str();
}

void set_thread_rank(int rank) noexcept {
  ot_tls& t = tls();
  t.rank = rank < 0 ? 0 : rank;
  t.stream = seed_for_rank(t.rank);
  t.seeded = true;
  ot_state& s = st();
  int expected = -1;
  if (rank >= 0 &&
      s.rank.compare_exchange_strong(expected, rank,
                                     std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lk(s.mu);
    if (s.ring.load(std::memory_order_relaxed) != nullptr)
      render_dump_path_locked(s);
  }
}

void reset_sampling() noexcept {
  ot_tls& t = tls();
  t.stream = seed_for_rank(t.rank);
  t.seeded = true;
}

std::uint64_t begin_op() noexcept {
  const std::uint32_t n = sample_n();
  if (n == 0) return 0;
  ot_tls& t = tls();
  if (!t.seeded) {
    t.stream = seed_for_rank(t.rank);
    t.seeded = true;
  }
  const std::uint64_t draw = splitmix64(t.stream);
  if (n != 1 && draw % n != 0) return 0;
  ot_state& s = st();
  const std::uint64_t seq =
      s.next_seq.fetch_add(1, std::memory_order_relaxed);
  telemetry::count(telemetry::counter::otrace_sampled);
  return (static_cast<std::uint64_t>(t.rank) << 48) |
         (seq & 0xFFFFFFFFFFFFull);
}

namespace {

/// Append one stage record stamped `now_ns` (telemetry::detail::
/// trace_now_ns), stored corrected to rank 0's clock base (the bootstrap's
/// RTT-midpoint offset) so it is comparable across every rank of one job.
void note_at(std::uint64_t id, stage stg, std::uint64_t aux,
             std::uint64_t now_ns) noexcept {
  ot_state& s = st();
  slot* ring = s.ring.load(std::memory_order_acquire);
  if (ring == nullptr) return;
  ot_tls& t = tls();
  if (t.tag == 0)
    t.tag = static_cast<std::uint16_t>(
        s.next_tag.fetch_add(1, std::memory_order_relaxed) & 0xFFFF);
  const std::uint64_t ticket =
      s.head.fetch_add(1, std::memory_order_relaxed);
  slot& sl = ring[ticket & s.mask.load(std::memory_order_relaxed)];
  sl.commit.store(0, std::memory_order_relaxed);
  sl.trace = id;
  sl.t_ns = static_cast<std::uint64_t>(static_cast<std::int64_t>(now_ns) -
                                       telemetry::clock_offset_ns());
  sl.aux = aux;
  sl.st = static_cast<std::uint16_t>(stg);
  sl.rank = static_cast<std::int16_t>(t.rank);
  sl.tag = t.tag;
  sl.commit.store(ticket + 1, std::memory_order_release);
}

}  // namespace

void note_id(std::uint64_t id, stage stg, std::uint64_t aux) noexcept {
  if (id != 0) note_at(id, stg, aux, telemetry::detail::trace_now_ns());
}

void install_crash_handlers() noexcept {
  if (!enabled()) return;
  ot_state& s = st();
  bool expected = false;
  if (!s.handlers_installed.compare_exchange_strong(
          expected, true, std::memory_order_relaxed))
    return;
  struct sigaction sa{};
  sa.sa_handler = &ot_sigusr2_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  sigaction(SIGUSR2, &sa, nullptr);
  struct sigaction crash{};
  crash.sa_handler = &ot_crash_handler;
  sigemptyset(&crash.sa_mask);
  crash.sa_flags = SA_RESTART;
  sigaction(SIGSEGV, &crash, &s.prev_segv);
  sigaction(SIGABRT, &crash, &s.prev_abrt);
}

void dump_signal_safe() noexcept {
  ot_state& s = st();
  if (!s.dump_path_valid.load(std::memory_order_acquire)) return;
  const int fd = ::open(s.dump_path_buf, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  dump_to_fd(fd, s.rank.load(std::memory_order_relaxed), nullptr);
  ::close(fd);
}

std::string dump_now(int rank, const std::string& health_json) {
  const std::string path = dump_path(dump_base(), rank);
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return {};
  dump_to_fd(fd, rank, health_json.c_str());
  ::close(fd);
  return path;
}

std::vector<record_view> snapshot_records() {
  std::vector<record_view> out;
  for_each_record([&](std::uint64_t, const slot& sl) {
    record_view rv;
    rv.trace = sl.trace;
    rv.t_ns = sl.t_ns;
    rv.aux = sl.aux;
    rv.st = static_cast<stage>(sl.st);
    rv.rank = sl.rank;
    rv.tag = sl.tag;
    out.push_back(rv);
  });
  return out;
}

void clear() noexcept {
  ot_state& s = st();
  std::lock_guard<std::mutex> lk(s.mu);
  slot* ring = s.ring.load(std::memory_order_relaxed);
  if (ring == nullptr) return;
  // Drop every committed record; in-flight writers at most re-commit one
  // slot each (tests call this quiesced anyway).
  for (std::uint64_t i = 0; i < s.cap; ++i)
    ring[i].commit.store(0, std::memory_order_relaxed);
  s.head.store(0, std::memory_order_relaxed);
}

std::uint64_t records_appended() noexcept {
  return st().head.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Perfetto export (region exit)
// ---------------------------------------------------------------------------

namespace {

void write_flow(std::FILE* f, const char* ph, double ts_us, int pid, int tid,
                std::uint64_t id) {
  std::fprintf(f,
               ",\n{\"name\":\"hop\",\"cat\":\"otrace\",\"ph\":\"%s\","
               "\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"id\":\"0x%llx\"%s}",
               ph, pid, tid, ts_us,
               static_cast<unsigned long long>(id),
               ph[0] == 'f' ? ",\"bp\":\"e\"" : "");
}

}  // namespace

bool export_json(const std::string& path, int rank) {
  std::vector<record_view> recs = snapshot_records();
  std::stable_sort(recs.begin(), recs.end(),
                   [](const record_view& a, const record_view& b) {
                     return a.t_ns < b.t_ns;
                   });
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"traceEvents\":[\n"
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
               "\"args\":{\"name\":\"rank %d\"}}",
               rank, rank);
  for (const record_view& r : recs) {
    const double ts_us = static_cast<double>(r.t_ns) / 1000.0;
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"otrace\",\"ph\":\"X\","
                 "\"pid\":%d,\"tid\":%u,\"ts\":%.3f,\"dur\":1,"
                 "\"args\":{\"trace\":\"0x%llx\",\"aux\":\"0x%llx\"}}",
                 to_string(r.st), r.rank, r.tag, ts_us,
                 static_cast<unsigned long long>(r.trace),
                 static_cast<unsigned long long>(r.aux));
    // Flow events chaining cross-rank hops: each wire edge id appears
    // exactly once as 's' (the sending stage) and once as 'f' (the
    // delivery-side stage), binding across the merged per-rank files.
    switch (r.st) {
      case stage::wire_eager:
      case stage::shm_push:
      case stage::agg_stage:
        write_flow(f, "s", ts_us, r.rank, r.tag, r.aux);
        break;
      case stage::wire_deliver:
        write_flow(f, "f", ts_us, r.rank, r.tag, r.aux);
        break;
      case stage::wire_rts:
        write_flow(f, "s", ts_us, r.rank, r.tag, r.aux ^ kEdgeSaltRts);
        break;
      case stage::wire_cts:
        write_flow(f, "f", ts_us, r.rank, r.tag, r.aux ^ kEdgeSaltRts);
        write_flow(f, "s", ts_us, r.rank, r.tag, r.aux ^ kEdgeSaltCts);
        break;
      case stage::wire_data:
        write_flow(f, "f", ts_us, r.rank, r.tag, r.aux ^ kEdgeSaltCts);
        write_flow(f, "s", ts_us, r.rank, r.tag, r.aux ^ kEdgeSaltData);
        break;
      default:
        break;
    }
  }
  std::fprintf(f,
               "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{"
               "\"otrace\":true,\"rank\":%d,\"sample_n\":%u,"
               "\"records_appended\":%llu,\"ring_capacity\":%llu,"
               "\"clock_synced\":%s,\"clock_offset_ns\":%lld}}\n",
               rank, sample_n(),
               static_cast<unsigned long long>(records_appended()),
               static_cast<unsigned long long>(st().cap),
               telemetry::clock_synced() ? "true" : "false",
               static_cast<long long>(telemetry::clock_offset_ns()));
  std::fclose(f);
  return true;
}

}  // namespace aspen::otrace

namespace aspen::telemetry::detail {

std::uint64_t trace_begin(std::uint64_t issue_ns) noexcept {
  const std::uint64_t id = otrace::begin_op();
  if (id != 0)
    otrace::note_at(id, otrace::stage::inject, 0,
                    issue_ns != 0 ? issue_ns : trace_now_ns());
  return id;
}

void trace_fulfill(std::uint64_t id, disposition d,
                   std::uint64_t now_ns) noexcept {
  otrace::note_at(id,
                  d == disposition::eager ? otrace::stage::fulfill_eager
                                          : otrace::stage::fulfill_deferred,
                  0, now_ns);
}

}  // namespace aspen::telemetry::detail

#endif  // ASPEN_TELEMETRY_ENABLED
