#include "net/endpoint.hpp"

#include <sys/personality.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>

#include "core/log.hpp"
#include "core/otrace.hpp"
#include "core/persona.hpp"
#include "core/telemetry.hpp"
#include "core/telemetry_live.hpp"
#include "shm/fdpass.hpp"
#include "shm/mapper.hpp"

namespace aspen::net {

namespace {

// Collective keys reserved for endpoint-internal control traffic. User-
// facing collective keys (world coll_state, team hashes) never use the top
// byte 0xEC.
constexpr std::uint64_t kRegionKey = 0xEC00000000000001ull;
constexpr std::uint64_t kQuiesceKey = 0xEC00000000000002ull;

/// Bootstrap clock-offset probes per rank; the lowest-RTT sample wins.
constexpr int kClockProbes = 8;

std::uint64_t mono_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Flow-event binding id for one wire message: seq is unique per
/// (src, dst) stream, so packing the endpoints into the top bytes makes it
/// job-unique (ranks are < 256 here; seq wraps only past 2^48 messages).
constexpr std::uint64_t flow_id(int src, int dst,
                                std::uint64_t seq) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint8_t>(src)) << 56) |
         (static_cast<std::uint64_t>(static_cast<std::uint8_t>(dst)) << 48) |
         (seq & 0xFFFFFFFFFFFFull);
}

std::unique_ptr<endpoint>& instance_slot() {
  static std::unique_ptr<endpoint> ep;
  return ep;
}

long env_long(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return -1;
  char* end = nullptr;
  long r = std::strtol(v, &end, 10);
  if (end == v || *end != '\0') return -1;
  return r;
}

void append_u64(std::vector<std::byte>& v, std::uint64_t x) {
  const std::size_t off = v.size();
  v.resize(off + sizeof x);
  std::memcpy(v.data() + off, &x, sizeof x);
}

std::uint64_t read_u64(const std::byte* p) {
  std::uint64_t x;
  std::memcpy(&x, p, sizeof x);
  return x;
}

}  // namespace

bool endpoint::launched() { return std::getenv(kEnvRank) != nullptr; }

endpoint* endpoint::instance() noexcept { return instance_slot().get(); }

endpoint& endpoint::ensure(const gex::net_config& cfg,
                           std::size_t segment_bytes) {
  auto& slot = instance_slot();
  if (!slot) {
    const long rank = env_long(kEnvRank);
    const long nranks = env_long(kEnvNranks);
    const long port = env_long(kEnvRdzvPort);
    if (rank < 0 || nranks < 1 || rank >= nranks || port <= 0 ||
        port > 65535) {
      aspen::fatal(
          "net: the multi-process conduits (tcp, shm) require the aspen-run "
          "launcher. Run this program as `aspen-run -n N <prog>`, or fix the "
          "%s/%s/%s environment (got rank=%ld nranks=%ld port=%ld).",
          kEnvRank, kEnvNranks, kEnvRdzvPort, rank, nranks, port);
    }
    slot.reset(new endpoint(static_cast<int>(rank), static_cast<int>(nranks),
                            cfg, segment_bytes));
  } else {
    // The mesh persists across regions; only the per-region tunables track
    // the (env-reapplied) config handed to each new spmd region.
    slot->refresh_region_tunables(cfg);
  }
  return *slot;
}

void endpoint::refresh_region_tunables(const gex::net_config& cfg) noexcept {
  // Idempotent, and a no-op unless sampling is on: a region that enabled
  // otrace after the mesh was built still gets its dump handlers.
  otrace::install_crash_handlers();
  cfg_.agg = cfg.agg;
  cfg_.sendq_max = cfg.sendq_max;
  agg_on_ = cfg.agg.enabled;
  agg_max_bytes_ = cfg.agg.max_bytes;
  agg_max_frames_ = cfg.agg.max_frames;
  agg_flush_ns_ = cfg.agg.flush_us * 1000u;
  sendq_max_ = cfg.sendq_max;
}

endpoint::endpoint(int rank, int nranks, gex::net_config cfg,
                   std::size_t segment_bytes)
    : rank_(rank),
      nranks_(nranks),
      cfg_(cfg),
      peers_(static_cast<std::size_t>(nranks)),
      io_(nranks),
      sent_to_(static_cast<std::size_t>(nranks)),
      delivered_from_(static_cast<std::size_t>(nranks)) {
  aspen::log_set_rank(rank_);
  for (int r = 0; r < nranks_; ++r) {
    peers_[static_cast<std::size_t>(r)] = std::make_unique<peer>();
    peers_[static_cast<std::size_t>(r)]->dec =
        std::make_unique<decoder>(cfg_.max_frame);
  }
  refresh_region_tunables(cfg_);
  telemetry_interval_ms_ = telemetry::live::interval_ms();
  last_push_ns_ = mono_ns();
  if (rank_ == 0) telemetry::live::collector_reset(nranks_);
  master_tid_ = std::this_thread::get_id();
  bootstrap(segment_bytes);
  for (int r = 0; r < nranks_; ++r) {
    if (r == rank_) continue;
    peer& p = peer_of(r);
    if (p.sock.valid()) io_.attach(r, p.sock.get());
  }
  if (telemetry::live::trace_base() != nullptr)
    telemetry::enable_tracing(true);
  otrace::install_crash_handlers();
  if (telemetry::watchdog::enabled()) {
    telemetry::watchdog::install_signal_handler();
    telemetry::watchdog::set_transport_probe([this] {
      telemetry::watchdog::transport_status st;
      st.valid = true;
      const std::uint64_t now = mono_ns();
      std::uint64_t frames_sent = 0;
      std::uint64_t frames_delivered = 0;
      for (int r = 0; r < nranks_; ++r) {
        frames_sent +=
            sent_to_[static_cast<std::size_t>(r)].load(
                std::memory_order_relaxed);
        frames_delivered +=
            delivered_from_[static_cast<std::size_t>(r)].load(
                std::memory_order_relaxed);
        if (r == rank_) continue;
        const peer& p = *peers_[static_cast<std::size_t>(r)];
        std::lock_guard<std::mutex> lk(p.mu);
        st.sendq_bytes += p.out.size() - p.out_off + p.shm_agg.size();
        st.staged_msgs += p.staged.size();
        if (p.out_busy_since_ns != 0 && now > p.out_busy_since_ns) {
          const std::uint64_t age = now - p.out_busy_since_ns;
          if (age > st.oldest_sendq_age_ns) st.oldest_sendq_age_ns = age;
        }
        if (p.shm_active) {
          st.shm_ring_depth_bytes += p.shm_out_msg.depth_bytes() +
                                     p.shm_out_bulk.depth_bytes() +
                                     p.shm_in_msg.depth_bytes() +
                                     p.shm_in_bulk.depth_bytes();
        }
      }
      st.shm_ring_high_water = shm_ring_high_water();
      st.detail_json = "\"quiescence\": {\"frames_sent\": " +
                       std::to_string(frames_sent) +
                       ", \"frames_delivered\": " +
                       std::to_string(frames_delivered) + "}";
      return st;
    });
  }
}

endpoint::~endpoint() {
  // Best-effort clean-shutdown marker so peers can distinguish our EOF
  // from a crash. The quiescence protocol has already drained real
  // traffic; 24 header bytes fit any live socket buffer.
  frame_header bye{};
  bye.kind = static_cast<std::uint16_t>(frame_kind::bye);
  bye.src = rank_;
  for (int r = 0; r < nranks_; ++r) {
    peer& p = peer_of(r);
    if (r == rank_ || !p.sock.valid() || p.departed) continue;
    std::vector<std::byte> buf;
    encode_frame(buf, bye, nullptr, 0);
    std::size_t off = 0;
    for (int spin = 0; off < buf.size() && spin < 1000; ++spin) {
      ssize_t n = ::send(p.sock.get(), buf.data() + off, buf.size() - off,
                         MSG_NOSIGNAL);
      if (n > 0) off += static_cast<std::size_t>(n);
      else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
               errno != EINTR)
        break;
    }
  }
}

void endpoint::bootstrap(std::uint64_t segment_bytes) {
  // Own mesh listener first: every rank is listening before any port is
  // published, so the later full-mesh connects land in live backlogs.
  std::uint16_t my_port = 0;
  fd_handle lsock = listen_loopback(my_port);

  const long rdzv_port = env_long(kEnvRdzvPort);
  fd_handle rdzv = connect_loopback(static_cast<std::uint16_t>(rdzv_port));

  // Shared-memory channel prep, before the hello: create this rank's data
  // and control memfds (so shm_ok in the hello is truthful) and the
  // abstract-socket listener peers will use for the fd exchange (so any
  // peer that sees our shm_ok in the table can connect unconditionally).
  // Geometry note: the stride must match segment_arena's page rounding.
  shm::mapper* mp = nullptr;
  int shm_listen = -1;
  if (cfg_.shm.enabled && nranks_ > 1) {
    shm::mapper::config mc;
    mc.rank = rank_;
    mc.nranks = nranks_;
    mc.seg_stride = (segment_bytes + 4095) & ~std::uint64_t{4095};
    mc.msg_ring_bytes = shm::spsc_ring::clamp_capacity(cfg_.shm.msg_ring_bytes);
    mc.bulk_ring_bytes =
        shm::spsc_ring::clamp_capacity(cfg_.shm.bulk_ring_bytes);
    mp = shm::mapper::create(mc);
    if (mp != nullptr) {
      shm_listen = shm::listen_abstract(
          shm::exchange_socket_name(static_cast<std::uint16_t>(rdzv_port),
                                    rank_),
          nranks_);
      if (shm_listen < 0) mp = nullptr;  // exchange impossible: stay on tcp
    }
  }
  shm_ok_ = mp != nullptr;

  hello_body hb;
  hb.rank = rank_;
  hb.nranks = nranks_;
  hb.listen_port = my_port;
  hb.anchor = static_cast<std::uint64_t>(text_anchor());
  hb.segment_base = static_cast<std::uint64_t>(cfg_.segment_base);
  hb.segment_bytes = segment_bytes;
  hb.pid = static_cast<std::int32_t>(::getpid());
  hb.shm_ok = shm_ok_ ? 1 : 0;
  hb.host_id = host_identity();
  frame_header hh{};
  hh.kind = static_cast<std::uint16_t>(frame_kind::hello);
  hh.src = rank_;
  write_frame_blocking(rdzv.get(), hh, &hb, sizeof hb);

  frame table = read_frame_blocking(rdzv.get(), 1u << 20);
  if (table.kind() != frame_kind::table ||
      table.payload.size() < sizeof(std::uint32_t)) {
    aspen::fatal("net: malformed bootstrap table");
  }
  std::uint32_t n = 0;
  std::memcpy(&n, table.payload.data(), sizeof n);
  if (n != static_cast<std::uint32_t>(nranks_) ||
      table.payload.size() !=
          sizeof n + n * (sizeof(std::uint16_t) + sizeof(std::uint64_t) +
                          sizeof(std::uint8_t))) {
    aspen::fatal(
        "net: bootstrap table disagrees on the rank count (launcher says "
        "%u, environment says %d)",
        n, nranks_);
  }
  std::vector<std::uint16_t> ports(n);
  std::vector<std::uint64_t> host_ids(n);
  std::vector<std::uint8_t> shm_ready(n);
  {
    const std::byte* at = table.payload.data() + sizeof n;
    std::memcpy(ports.data(), at, n * sizeof(std::uint16_t));
    at += n * sizeof(std::uint16_t);
    std::memcpy(host_ids.data(), at, n * sizeof(std::uint64_t));
    at += n * sizeof(std::uint64_t);
    std::memcpy(shm_ready.data(), at, n * sizeof(std::uint8_t));
  }
  rdzv.reset();  // launcher tracks liveness via waitpid from here on

  // Full mesh: connect to every lower rank, accept every higher one.
  frame_header ih{};
  ih.kind = static_cast<std::uint16_t>(frame_kind::ident);
  ih.src = rank_;
  for (int j = 0; j < rank_; ++j) {
    fd_handle s = connect_loopback(ports[static_cast<std::size_t>(j)]);
    write_frame_blocking(s.get(), ih, nullptr, 0);
    peer_of(j).sock = std::move(s);
    // The rank-0 link is still blocking and otherwise idle right now:
    // measure our steady-clock offset against rank 0 before any traffic
    // shares the socket. Every rank probes rank 0 first (j == 0 leads the
    // loop), and rank 0 answers each accepted rank in arrival order.
    if (j == 0) clock_sync_with_rank0();
  }
  for (int k = rank_ + 1; k < nranks_; ++k) {
    fd_handle s = accept_one(lsock.get());
    frame id = read_frame_blocking(s.get(), 4096);
    if (id.kind() != frame_kind::ident || id.hdr.src <= rank_ ||
        id.hdr.src >= nranks_) {
      aspen::fatal("net: bad mesh identification (kind %s, src %d)",
                   kind_name(id.kind()), id.hdr.src);
    }
    if (rank_ == 0) serve_clock_probes(s.get());
    peer_of(id.hdr.src).sock = std::move(s);
  }
  if (rank_ == 0) telemetry::set_clock_sync(0);

  // Shared-memory fd exchange, after the mesh (every rank has the table,
  // so candidacy decisions agree) and before the sockets go non-blocking.
  if (shm_ok_)
    bootstrap_shm(host_ids, shm_ready, shm_listen);
  if (shm_listen >= 0) ::close(shm_listen);

  for (int r = 0; r < nranks_; ++r)
    if (r != rank_) make_wire_ready(peer_of(r).sock.get());
}

void endpoint::bootstrap_shm(const std::vector<std::uint64_t>& host_ids,
                             const std::vector<std::uint8_t>& shm_ready,
                             int exchange_listen_fd) {
  auto* mp = shm::mapper::instance();
  if (mp == nullptr) return;

  // Effective payload bounds for the shm channel. eager_max was normalized
  // by apply_env, but ensure() callers may bypass it — re-derive
  // defensively against the actual ring capacities (every slot in our own
  // control segment has the same geometry; probe our own sender slot).
  const std::size_t msg_cap = mp->inbound_msg(rank_).capacity();
  shm_msg_cap_ = msg_cap;
  shm_eager_max_ = cfg_.shm.eager_max != 0 ? cfg_.shm.eager_max
                                           : cfg_.eager_max;
  if (shm_eager_max_ > msg_cap / 4) shm_eager_max_ = msg_cap / 4;
  // A full ring re-sends staged records as eager socket frames.
  const std::size_t eager_limit = eager_payload_limit(cfg_.max_frame);
  if (shm_eager_max_ > eager_limit) shm_eager_max_ = eager_limit;
  shm_bulk_max_ = mp->inbound_bulk(rank_).capacity() / 2;

  const auto candidate = [&](int r) {
    return r != rank_ && shm_ready[static_cast<std::size_t>(r)] != 0 &&
           host_ids[static_cast<std::size_t>(r)] ==
               host_ids[static_cast<std::size_t>(rank_)];
  };
  const long rdzv_port = env_long(kEnvRdzvPort);
  const int my_fds[2] = {mp->data_fd(), mp->ctrl_fd()};

  const auto wire_peer = [&](int r) {
    if (!mp->rank_mapped(r)) return;
    peer& p = peer_of(r);
    p.shm_out_msg = mp->outbound_msg(r);
    p.shm_out_bulk = mp->outbound_bulk(r);
    p.shm_in_msg = mp->inbound_msg(r);
    p.shm_in_bulk = mp->inbound_bulk(r);
    p.shm_active = p.shm_out_msg.valid() && p.shm_out_bulk.valid() &&
                   p.shm_in_msg.valid() && p.shm_in_bulk.valid();
    if (p.shm_active)
      telemetry::count(telemetry::counter::shm_peers_mapped);
  };

  // Mirror the mesh pattern: connect to every lower candidate's abstract
  // listener, accept every higher candidate from ours. The connector sends
  // its (tag, fds) first; the acceptor identifies the peer by the received
  // tag (accept order is not deterministic) and answers with its own fds.
  for (int j = 0; j < rank_; ++j) {
    if (!candidate(j)) continue;
    const int s = shm::connect_abstract(shm::exchange_socket_name(
        static_cast<std::uint16_t>(rdzv_port), j));
    if (s < 0) continue;  // unreachable namespace: treat as off-host
    std::uint32_t tag = 0;
    int fds[2] = {-1, -1};
    if (shm::send_fds(s, static_cast<std::uint32_t>(rank_), my_fds, 2) &&
        shm::recv_fds(s, &tag, fds, 2) && tag == static_cast<std::uint32_t>(j))
      (void)mp->adopt_peer(j, fds[0], fds[1]);
    else if (fds[0] >= 0) {
      ::close(fds[0]);
      ::close(fds[1]);
    }
    ::close(s);
    wire_peer(j);
  }
  int expected = 0;
  for (int k = rank_ + 1; k < nranks_; ++k)
    if (candidate(k)) ++expected;
  for (int i = 0; i < expected; ++i) {
    const int s = shm::accept_peer(exchange_listen_fd);
    if (s < 0) break;
    std::uint32_t tag = 0;
    int fds[2] = {-1, -1};
    if (shm::recv_fds(s, &tag, fds, 2) &&
        tag > static_cast<std::uint32_t>(rank_) &&
        tag < static_cast<std::uint32_t>(nranks_) &&
        candidate(static_cast<int>(tag)) &&
        shm::send_fds(s, static_cast<std::uint32_t>(rank_), my_fds, 2)) {
      (void)mp->adopt_peer(static_cast<int>(tag), fds[0], fds[1]);
      wire_peer(static_cast<int>(tag));
    } else if (fds[0] >= 0) {
      ::close(fds[0]);
      ::close(fds[1]);
    }
    ::close(s);
  }
}

void endpoint::clock_sync_with_rank0() {
  const int fd = peer_of(0).sock.get();
  std::int64_t best_rtt = std::numeric_limits<std::int64_t>::max();
  std::int64_t best_theta = 0;
  for (int i = 0; i < kClockProbes; ++i) {
    frame_header ph{};
    ph.kind = static_cast<std::uint16_t>(frame_kind::clock_probe);
    ph.src = rank_;
    ph.seq = static_cast<std::uint64_t>(i);
    const auto t0 = static_cast<std::int64_t>(mono_ns());
    write_frame_blocking(fd, ph, nullptr, 0);
    frame r = read_frame_blocking(fd, 4096);
    const auto t1 = static_cast<std::int64_t>(mono_ns());
    if (r.kind() != frame_kind::clock_reply ||
        r.payload.size() != sizeof(std::uint64_t)) {
      aspen::fatal(
          "net: bad clock-sync reply from rank 0 (kind %s, %zu payload "
          "bytes)",
          kind_name(r.kind()), r.payload.size());
    }
    const auto remote = static_cast<std::int64_t>(read_u64(r.payload.data()));
    // RTT-midpoint estimate: rank 0 stamped `remote` roughly when our
    // clock read t0 + rtt/2. The lowest-RTT probe bounds the asymmetry
    // error tightest, so it wins outright (no averaging).
    const std::int64_t rtt = t1 - t0;
    if (rtt < best_rtt) {
      best_rtt = rtt;
      best_theta = (t0 + rtt / 2) - remote;
    }
  }
  clock_offset_ns_ = best_theta;
  telemetry::set_clock_sync(best_theta);
}

void endpoint::serve_clock_probes(int fd) {
  for (int i = 0; i < kClockProbes; ++i) {
    frame f = read_frame_blocking(fd, 4096);
    if (f.kind() != frame_kind::clock_probe) {
      aspen::fatal("net: expected a clock probe during bootstrap, got %s",
                   kind_name(f.kind()));
    }
    frame_header rh{};
    rh.kind = static_cast<std::uint16_t>(frame_kind::clock_reply);
    rh.src = rank_;
    rh.seq = f.hdr.seq;
    const std::uint64_t now = mono_ns();
    write_frame_blocking(fd, rh, &now, sizeof now);
  }
}

// ---------------------------------------------------------------------------
// Send path
// ---------------------------------------------------------------------------

void endpoint::flush_locked(peer& p, int target) {
  // Residency stamp: the queue went non-empty at (or just before) this
  // flush attempt. Cleared below once the socket takes every queued byte;
  // the elapsed time is the sendq_residency latency sample and the
  // watchdog's stall probe.
  if (telemetry::compiled_in() && p.out_busy_since_ns == 0 &&
      p.out_off < p.out.size())
    p.out_busy_since_ns = mono_ns();
  io_.flush(target, p.out, p.out_off);
  if (p.out_off == p.out.size()) {
    p.out.clear();
    p.out_off = 0;
    if (telemetry::compiled_in() && p.out_busy_since_ns != 0) {
      telemetry::note_latency(telemetry::lat_stream::sendq_residency,
                              mono_ns() - p.out_busy_since_ns);
      p.out_busy_since_ns = 0;
    }
  } else if (p.out_off >= (std::size_t{1} << 20)) {
    // Keep the resident queue proportional to the unsent tail.
    p.out.erase(p.out.begin(),
                p.out.begin() + static_cast<std::ptrdiff_t>(p.out_off));
    p.out_off = 0;
  }
  const std::size_t depth = p.out.size() - p.out_off;
  std::size_t hw = sendq_high_water_.load(std::memory_order_relaxed);
  while (depth > hw && !sendq_high_water_.compare_exchange_weak(
                           hw, depth, std::memory_order_relaxed)) {
  }
}

void endpoint::agg_note_flush_locked(peer& p,
                                     telemetry::counter trigger) noexcept {
  if (p.agg_frames == 0) return;
  // Frames beyond a batch of one genuinely shared their syscall with
  // others; a batch of one is just a deferred single send.
  if (p.agg_frames > 1)
    telemetry::count(telemetry::counter::agg_frames_coalesced,
                     static_cast<std::uint64_t>(p.agg_frames));
  telemetry::count(trigger);
  if (telemetry::compiled_in() && p.agg_open_ns != 0)
    telemetry::note_latency(telemetry::lat_stream::agg_batch_fill,
                            mono_ns() - p.agg_open_ns);
  p.agg_frames = 0;
  p.agg_open_ns = 0;
  p.agg_seen_frames = 0;
}

void endpoint::agg_flush_locked(peer& p, int target,
                                telemetry::counter trigger) {
  agg_note_flush_locked(p, trigger);
  flush_locked(p, target);
}

void endpoint::shm_agg_flush_locked(peer& p, int target,
                                    telemetry::counter trigger) {
  if (p.shm_agg_frames == 0) return;
  const std::size_t frames = p.shm_agg_frames;
  const std::size_t payload_bytes =
      p.shm_agg.size() - frames * sizeof(shm_rec_hdr);
  // Batch header: seq of the leading sub-record (informational — each
  // sub-record carries its own), handler_delta repurposed as the count.
  shm_rec_hdr bh;
  std::memcpy(&bh, p.shm_agg.data(), sizeof bh);
  bh.handler_delta = frames;
  bh.send_ns = 0;
  bh.flags = kShmBatch;
  bh.len = static_cast<std::uint32_t>(p.shm_agg.size());
  if (p.shm_out_msg.try_push2(&bh, sizeof bh, p.shm_agg.data(),
                              p.shm_agg.size())) {
    telemetry::count(telemetry::counter::shm_msgs_sent,
                     static_cast<std::uint64_t>(frames));
    telemetry::count(telemetry::counter::shm_bytes_sent,
                     static_cast<std::uint64_t>(payload_bytes));
    if (frames > 1)
      telemetry::count(telemetry::counter::agg_frames_coalesced,
                       static_cast<std::uint64_t>(frames));
    telemetry::count(trigger);
    if (telemetry::compiled_in() && p.shm_agg_open_ns != 0)
      telemetry::note_latency(telemetry::lat_stream::agg_batch_fill,
                              mono_ns() - p.shm_agg_open_ns);
    const std::size_t depth =
        p.shm_out_msg.depth_bytes() + p.shm_out_bulk.depth_bytes();
    std::size_t hw = shm_ring_high_water_.load(std::memory_order_relaxed);
    while (depth > hw && !shm_ring_high_water_.compare_exchange_weak(
                             hw, depth, std::memory_order_relaxed)) {
    }
  } else {
    // Ring full: re-route every staged sub-record as an eager socket frame.
    // The seqs travel with them, so the receiver's staged map re-merges the
    // two channels in order.
    telemetry::count(telemetry::counter::shm_ring_full);
    const std::byte* q = p.shm_agg.data();
    const std::byte* end = q + p.shm_agg.size();
    std::vector<std::byte> body;
    while (q != end) {
      shm_rec_hdr sr;
      std::memcpy(&sr, q, sizeof sr);
      telemetry::count(telemetry::counter::net_eager_sent);
      frame_header h{};
      h.kind = static_cast<std::uint16_t>(frame_kind::am_eager);
      h.src = rank_;
      h.seq = sr.seq;
      eager_body eb;
      eb.handler_delta = sr.handler_delta;
      eb.send_ns = sr.send_ns;
      eb.trace = sr.trace;
      body.resize(kEagerPrefixBytes + sr.len);
      std::memcpy(body.data(), &eb, sizeof eb);
      if (sr.len != 0)
        std::memcpy(body.data() + kEagerPrefixBytes, q + sizeof sr, sr.len);
      encode_frame(p.out, h, body.data(), body.size());
      q += sizeof sr + sr.len;
    }
    agg_flush_locked(p, target, trigger);
  }
  p.shm_agg.clear();
  p.shm_agg_frames = 0;
  p.shm_agg_open_ns = 0;
  p.shm_agg_seen_frames = 0;
}

void endpoint::park_sendq(gex::runtime& rt, peer& p, int target) {
  // Bounded-queue mode (ASPEN_NET_SENDQ_MAX): an injector that finds the
  // peer's unsent bytes over the cap parks — flush attempt, then yield or
  // pump — instead of growing the queue without bound, mirroring the
  // perturbed conduit's bounded-inbox backpressure. The spin budget
  // guarantees progress even when both sides flood each other (each then
  // proceeds and the queues absorb the overshoot). Never parks inside the
  // pump: a handler replying from process_frame must not wait on the queue
  // its own delivery fills.
  if (pumping_.load(std::memory_order_relaxed)) return;
  constexpr int kParkSpins = 1 << 12;
  const bool master = std::this_thread::get_id() == master_tid_;
  bool parked = false;
  for (int spin = 0; spin < kParkSpins; ++spin) {
    {
      std::lock_guard<std::mutex> lk(p.mu);
      if (p.out.size() - p.out_off <= sendq_max_) return;
      flush_locked(p, target);
      if (p.out.size() - p.out_off <= sendq_max_) return;
    }
    if (!parked) {
      parked = true;
      telemetry::count(telemetry::counter::net_sendq_parked);
    }
    // Only the master thread pumps, so the master makes its own progress
    // here (which also drains inbound bytes when both sides flood each
    // other); injector threads yield to it.
    if (master)
      (void)pump(rt);
    else
      std::this_thread::yield();
  }
}

void endpoint::enqueue_frame(peer& p, int target, const frame_header& hdr,
                             const void* payload, std::size_t len,
                             bool counted) {
  if (counted)
    sent_to_[static_cast<std::size_t>(target)].fetch_add(
        1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(p.mu);
  encode_frame(p.out, hdr, payload, len);
  // Control traffic flushes any coalescing batch queued ahead of it — one
  // buffer, one ordered flush.
  agg_flush_locked(p, target, telemetry::counter::agg_flush_forced);
}

void endpoint::send_am(gex::runtime& rt, int target, gex::am_message msg) {
  telemetry::span sp("wire_send", "net");
  peer& p = peer_of(target);
  if (!p.sock.valid() || p.departed) {
    aspen::fatal(
        "net: rank %d sent an AM to rank %d, which has already shut down",
        rank_, target);
  }
  const std::size_t len = msg.size();
  const std::uint64_t delta =
      encode_handler(msg.handler(), text_anchor());
  telemetry::count(telemetry::counter::net_msgs_sent);
  sent_to_[static_cast<std::size_t>(target)].fetch_add(
      1, std::memory_order_relaxed);

  // Send timestamp in rank 0's clock base, so the receiver can compute
  // wire latency by subtracting its own normalized clock. Always written
  // (0 when telemetry is compiled out) so the frame layout never varies
  // by build configuration.
  const std::uint64_t send_ns =
      telemetry::compiled_in()
          ? static_cast<std::uint64_t>(static_cast<std::int64_t>(mono_ns()) -
                                       clock_offset_ns_)
          : 0;

  if (sendq_max_ != 0) park_sendq(rt, p, target);

  std::lock_guard<std::mutex> lk(p.mu);
  const std::uint64_t seq = p.next_send_seq++;
  // otrace wire edge: one flow id per (src, dst, seq); the matching
  // wire_deliver on the receiver records the same id (see process_frame).
  const std::uint64_t trace = msg.trace();
  const std::uint64_t fid = flow_id(rank_, target, seq);
  telemetry::trace_flow("wire_msg", "net", /*begin=*/true, fid);

  // Shared-memory fast path: same-host peer with a wired ring pair and an
  // shm region active. The seq is assigned under p.mu regardless of which
  // channel carries the message, and the receiver's staged map re-merges
  // both channels, so per-peer delivery order survives a mid-stream
  // fallback (full ring -> socket). Never blocks: a ring without space
  // falls through to the socket path below.
  if (shm_region_active_ && p.shm_active) {
    shm_rec_hdr rh;
    rh.seq = seq;
    rh.handler_delta = delta;
    rh.send_ns = send_ns;
    rh.trace = trace;
    rh.len = static_cast<std::uint32_t>(len);
    // Aggregating path: stage the record into the peer's shm batch; it
    // ships as ONE kShmBatch ring record on a size / count watermark (or
    // the pump's age watermark). The whole batch record must stay pushable,
    // so its bound is the byte watermark clamped to half the ring.
    if (agg_on_ && len <= shm_eager_max_) {
      const std::size_t off = p.shm_agg.size();
      p.shm_agg.resize(off + sizeof rh + len);
      std::memcpy(p.shm_agg.data() + off, &rh, sizeof rh);
      if (len != 0)
        std::memcpy(p.shm_agg.data() + off + sizeof rh, msg.payload(), len);
      otrace::note_id(trace, otrace::stage::agg_stage, fid);
      if (p.shm_agg_frames++ == 0) p.shm_agg_open_ns = mono_ns();
      const std::size_t batch_cap =
          std::min(agg_max_bytes_, shm_msg_cap_ / 2 - sizeof rh);
      if (p.shm_agg.size() + shm_eager_max_ + sizeof rh >= batch_cap)
        shm_agg_flush_locked(p, target,
                             telemetry::counter::agg_flush_bytes);
      else if (p.shm_agg_frames >= agg_max_frames_)
        shm_agg_flush_locked(p, target,
                             telemetry::counter::agg_flush_frames);
      return;
    }
    // A message that cannot join the batch (bulk-sized or aggregation off)
    // flushes any staged batch first, keeping ring delivery near-FIFO.
    shm_agg_flush_locked(p, target, telemetry::counter::agg_flush_forced);
    bool pushed = false;
    bool attempted = false;
    if (len <= shm_eager_max_) {
      attempted = true;
      pushed = p.shm_out_msg.try_push2(&rh, sizeof rh, msg.payload(), len);
    } else if (len <= shm_bulk_max_) {
      attempted = true;
      // Both-or-neither: reserve-check the pair before writing either, and
      // push the bulk payload BEFORE its control record — the consumer
      // acquiring the control record is then guaranteed to find the
      // payload (release-store chain across the two rings).
      if (p.shm_out_bulk.can_push(len) && p.shm_out_msg.can_push(sizeof rh)) {
        rh.flags = kShmBulk;
        pushed = p.shm_out_bulk.try_push(msg.payload(), len) &&
                 p.shm_out_msg.try_push(&rh, sizeof rh);
        if (pushed)
          telemetry::count(telemetry::counter::shm_bulk_staged);
      }
    }
    if (pushed) {
      otrace::note_id(trace, otrace::stage::shm_push, fid);
      telemetry::count(telemetry::counter::shm_msgs_sent);
      telemetry::count(telemetry::counter::shm_bytes_sent,
                       static_cast<std::uint64_t>(len));
      const std::size_t depth =
          p.shm_out_msg.depth_bytes() + p.shm_out_bulk.depth_bytes();
      std::size_t hw = shm_ring_high_water_.load(std::memory_order_relaxed);
      while (depth > hw && !shm_ring_high_water_.compare_exchange_weak(
                               hw, depth, std::memory_order_relaxed)) {
      }
      return;
    }
    if (attempted)
      telemetry::count(telemetry::counter::shm_ring_full);
    // Payload too large for the rings, or rings full: the socket path
    // below carries this message with the same seq.
  }

  if (len <= cfg_.eager_max) {
    telemetry::count(telemetry::counter::net_eager_sent);
    frame_header h{};
    h.kind = static_cast<std::uint16_t>(frame_kind::am_eager);
    h.src = rank_;
    h.seq = seq;
    eager_body eb;
    eb.handler_delta = delta;
    eb.send_ns = send_ns;
    eb.trace = trace;
    std::vector<std::byte> body(kEagerPrefixBytes + len);
    std::memcpy(body.data(), &eb, sizeof eb);
    if (len != 0)
      std::memcpy(body.data() + kEagerPrefixBytes, msg.payload(), len);
    encode_frame(p.out, h, body.data(), body.size());
    if (agg_on_) {
      // Coalesce: leave the frame queued; it flushes with its batch on a
      // watermark (here: bytes / frame count; pump() owns the age check).
      otrace::note_id(trace, otrace::stage::agg_stage, fid);
      if (p.agg_frames++ == 0) p.agg_open_ns = mono_ns();
      if (p.out.size() - p.out_off >= agg_max_bytes_)
        agg_flush_locked(p, target, telemetry::counter::agg_flush_bytes);
      else if (p.agg_frames >= agg_max_frames_)
        agg_flush_locked(p, target, telemetry::counter::agg_flush_frames);
      return;
    }
    otrace::note_id(trace, otrace::stage::wire_eager, fid);
  } else {
    // Rendezvous: park the payload until the receiver grants a CTS, so a
    // large transfer never floods a peer that is not ready for it.
    telemetry::count(telemetry::counter::net_rdzv_sent);
    const std::uint32_t token = p.next_token++;
    pending_rdzv pr;
    pr.seq = seq;
    pr.trace = trace;
    pr.bytes.assign(msg.payload(), msg.payload() + len);
    p.rdzv_out.emplace(token, std::move(pr));
    rdzv_body rb;
    rb.token = token;
    rb.handler_delta = delta;
    rb.total_len = len;
    rb.send_ns = send_ns;
    rb.trace = trace;
    otrace::note_id(trace, otrace::stage::wire_rts, fid);
    frame_header h{};
    h.kind = static_cast<std::uint16_t>(frame_kind::am_rts);
    h.src = rank_;
    h.aux = token;
    h.seq = seq;
    encode_frame(p.out, h, &rb, sizeof rb);
  }
  // An RTS (or any non-coalesced frame) flushes the batch queued ahead of
  // it along with itself — one buffer, one ordered flush.
  agg_flush_locked(p, target, telemetry::counter::agg_flush_forced);
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

std::size_t endpoint::pump(gex::runtime& rt) {
  if (pumping_.load(std::memory_order_relaxed)) return 0;
  pumping_.store(true, std::memory_order_relaxed);
  maybe_push_telemetry(/*final_flush=*/false);
  telemetry::watchdog::poll_check();
  std::size_t work = 0;
  for (int r = 0; r < nranks_; ++r) {
    if (r == rank_) continue;
    peer& p = peer_of(r);
    if (!p.sock.valid()) continue;
    {
      std::lock_guard<std::mutex> lk(p.mu);
      // Progress-tick + age watermarks. A batch that gained no frame since
      // the previous tick has stopped growing — holding it longer buys no
      // coalescing and only adds latency (a blocked single-op waiter calls
      // progress immediately, so its frame goes out on the second tick, at
      // native round-trip cost). The wall-clock age watermark backstops
      // injector threads that stage between two master-thread ticks.
      // Residual bytes with no open batch flush unconditionally.
      if (p.agg_frames != 0) {
        if (p.agg_frames == p.agg_seen_frames ||
            mono_ns() - p.agg_open_ns >= agg_flush_ns_)
          agg_flush_locked(p, r, telemetry::counter::agg_flush_age);
        else
          p.agg_seen_frames = p.agg_frames;
      } else if (p.out_off < p.out.size()) {
        agg_flush_locked(p, r, telemetry::counter::agg_flush_age);
      }
      if (p.shm_agg_frames != 0) {
        if (p.shm_agg_frames == p.shm_agg_seen_frames ||
            mono_ns() - p.shm_agg_open_ns >= agg_flush_ns_)
          shm_agg_flush_locked(p, r, telemetry::counter::agg_flush_age);
        else
          p.shm_agg_seen_frames = p.shm_agg_frames;
      }
    }
    if (p.shm_active) work += pump_shm_peer(rt, r);
  }
  // One backend tick drains every readable socket and feeds the decoders
  // (on_bytes); frames are then processed per peer.
  work += io_.pump(*this);
  for (int r = 0; r < nranks_; ++r) {
    if (r == rank_) continue;
    work += drain_peer(rt, r);
  }
  pumping_.store(false, std::memory_order_relaxed);
  return work;
}

void endpoint::on_bytes(int rank, const void* data, std::size_t len) {
  peer& p = peer_of(rank);
  if (p.departed || !p.dec) return;
  p.dec->feed(data, len);
}

void endpoint::on_eof(int rank) { peer_of(rank).eof_pending = true; }

std::size_t endpoint::pump_shm_peer(gex::runtime& rt, int rank) {
  peer& p = peer_of(rank);
  std::size_t work = 0;
  std::vector<std::byte> rec;
  for (;;) {
    const std::size_t sz = p.shm_in_msg.front_size();
    if (sz == 0) break;
    if (sz < sizeof(shm_rec_hdr)) {
      aspen::fatal("net: runt shm record (%zu bytes) on the rank %d -> %d "
                   "ring",
                   sz, rank, rank_);
    }
    rec.resize(sz);
    p.shm_in_msg.pop_front(rec.data());
    shm_rec_hdr rh;
    std::memcpy(&rh, rec.data(), sizeof rh);
    if ((rh.flags & kShmBatch) != 0) {
      // One ring record carrying rh.handler_delta coalesced sub-records,
      // each [shm_rec_hdr][payload] with its own seq.
      if (sz != sizeof rh + rh.len) {
        aspen::fatal(
            "net: shm batch record length mismatch from rank %d (%zu "
            "record bytes, %u batch bytes)",
            rank, sz, rh.len);
      }
      std::uint64_t remaining = rh.handler_delta;
      const std::byte* q = rec.data() + sizeof rh;
      const std::byte* end = rec.data() + sz;
      while (q != end) {
        shm_rec_hdr sr;
        if (remaining == 0 ||
            static_cast<std::size_t>(end - q) < sizeof sr) {
          remaining = 1;  // force the mismatch diagnostic below
          break;
        }
        std::memcpy(&sr, q, sizeof sr);
        if (sr.flags != 0 ||
            static_cast<std::size_t>(end - q) < sizeof sr + sr.len) {
          remaining = 1;
          break;
        }
        telemetry::count(telemetry::counter::shm_msgs_received);
        telemetry::count(telemetry::counter::shm_bytes_received, sr.len);
        gex::am_message msg(decode_handler(sr.handler_delta, text_anchor()),
                            rank, q + sizeof sr, sr.len);
        msg.set_trace(sr.trace);
        p.staged.emplace(sr.seq,
                         staged_am{std::move(msg), sr.send_ns,
                                   flow_id(rank, rank_, sr.seq), true});
        q += sizeof sr + sr.len;
        --remaining;
        ++work;
      }
      if (remaining != 0) {
        aspen::fatal("net: malformed shm batch from rank %d (announced "
                     "%" PRIu64 " sub-records)",
                     rank, rh.handler_delta);
      }
      continue;
    }
    telemetry::count(telemetry::counter::shm_msgs_received);
    telemetry::count(telemetry::counter::shm_bytes_received, rh.len);
    if ((rh.flags & kShmBulk) != 0) {
      // The producer release-published the bulk payload before the control
      // record, so the matching bulk record is guaranteed present.
      const std::size_t bsz = p.shm_in_bulk.front_size();
      if (bsz != rh.len) {
        aspen::fatal(
            "net: shm bulk record from rank %d does not match its control "
            "record (%zu vs %u bytes)",
            rank, bsz, rh.len);
      }
      std::vector<std::byte> payload(rh.len);
      if (rh.len != 0) p.shm_in_bulk.pop_front(payload.data());
      else p.shm_in_bulk.consume_front();
      gex::am_message msg(decode_handler(rh.handler_delta, text_anchor()),
                          rank, payload.data(), payload.size());
      msg.set_trace(rh.trace);
      p.staged.emplace(rh.seq,
                       staged_am{std::move(msg), rh.send_ns,
                                 flow_id(rank, rank_, rh.seq), true});
    } else {
      if (sz != sizeof rh + rh.len) {
        aspen::fatal(
            "net: shm record length mismatch from rank %d (%zu record "
            "bytes for a %u-byte payload)",
            rank, sz, rh.len);
      }
      gex::am_message msg(decode_handler(rh.handler_delta, text_anchor()),
                          rank, rec.data() + sizeof rh, rh.len);
      msg.set_trace(rh.trace);
      p.staged.emplace(rh.seq,
                       staged_am{std::move(msg), rh.send_ns,
                                 flow_id(rank, rank_, rh.seq), true});
    }
    ++work;
  }
  work += release_staged(rt, rank);
  return work;
}

void endpoint::idle_wait() noexcept {
  // A wait loop has gone a sustained stretch with zero progress: this rank
  // is blocked on a sibling *process*. Park in poll(2) on the mesh sockets,
  // bounded at 1 ms, instead of spinning: the scheduler hands the CPU to
  // the sender at once, and the first inbound byte wakes us.
  //
  // Open coalescing batches are forced out first: a parked waiter may be
  // waiting on replies to the very frames a batch is still holding.
  if (agg_on_) {
    for (int r = 0; r < nranks_; ++r) {
      if (r == rank_) continue;
      peer& p = peer_of(r);
      if (!p.sock.valid()) continue;
      std::lock_guard<std::mutex> lk(p.mu);
      if (p.shm_agg_frames != 0)
        shm_agg_flush_locked(p, r, telemetry::counter::agg_flush_forced);
      if (p.agg_frames != 0)
        agg_flush_locked(p, r, telemetry::counter::agg_flush_forced);
    }
  }
  for (int r = 0; r < nranks_; ++r) {
    if (r == rank_) continue;
    const peer& p = peer_of(r);
    // A non-empty inbound shm ring IS progress waiting to happen: return
    // immediately so the caller pumps instead of parking on sockets that
    // will never see those bytes.
    if (p.shm_active && !p.shm_in_msg.empty()) return;
  }
  io_.idle_park();
}

std::size_t endpoint::drain_peer(gex::runtime& rt, int rank) {
  peer& p = peer_of(rank);
  if (p.departed) return 0;
  std::size_t work = 0;
  frame f;
  while (p.dec && p.dec->try_next(f)) {
    process_frame(rt, rank, std::move(f));
    ++work;
  }
  if (p.dec && p.dec->in_error()) {
    aspen::fatal("net: protocol error on the rank %d -> %d stream: %s",
                 rank, rank_, p.dec->error().c_str());
  }
  if (p.eof_pending) {
    // Resolved after the frame drain: the bye marker may have arrived in
    // the very byte batch that ended with the EOF.
    p.eof_pending = false;
    if (!p.bye_seen) {
      aspen::fatal(
          "net: rank %d closed its connection without a clean shutdown "
          "(crashed?); aborting rank %d",
          rank, rank_);
    }
    p.departed = true;
    io_.detach(rank);
    p.sock.reset();
    ++work;
  }
  work += release_staged(rt, rank);
  return work;
}

void endpoint::process_frame(gex::runtime& rt, int rank, frame&& f) {
  peer& p = peer_of(rank);
  switch (f.kind()) {
    case frame_kind::am_eager: {
      eager_body eb;
      if (!decode_eager_prefix(f.payload.data(), f.payload.size(), &eb)) {
        aspen::fatal("net: runt am_eager frame from rank %d (%zu payload "
                     "bytes)",
                     rank, f.payload.size());
      }
      const std::size_t len = f.payload.size() - kEagerPrefixBytes;
      gex::am_message msg(decode_handler(eb.handler_delta, text_anchor()),
                          rank, f.payload.data() + kEagerPrefixBytes, len);
      msg.set_trace(eb.trace);
      p.staged.emplace(f.hdr.seq,
                       staged_am{std::move(msg), eb.send_ns,
                                 flow_id(rank, rank_, f.hdr.seq), false});
      break;
    }
    case frame_kind::am_rts: {
      rdzv_body rb;
      if (!decode_rdzv_body(f.payload.data(), f.payload.size(), &rb)) {
        aspen::fatal("net: malformed am_rts frame from rank %d (%zu "
                     "payload bytes)",
                     rank, f.payload.size());
      }
      inbound_rdzv in;
      in.seq = f.hdr.seq;
      in.handler_delta = rb.handler_delta;
      in.total_len = rb.total_len;
      in.send_ns = rb.send_ns;
      in.trace = rb.trace;
      p.rdzv_in.emplace(rb.token, in);
      // The RTS->CTS turn: the exporter salts this aux into the rts flow's
      // finish and the cts flow's start.
      otrace::note_id(rb.trace, otrace::stage::wire_cts,
                      flow_id(rank, rank_, f.hdr.seq));
      frame_header cts{};
      cts.kind = static_cast<std::uint16_t>(frame_kind::am_cts);
      cts.src = rank_;
      cts.aux = rb.token;
      enqueue_frame(p, rank, cts, nullptr, 0, /*counted=*/false);
      break;
    }
    case frame_kind::am_cts: {
      std::lock_guard<std::mutex> lk(p.mu);
      auto it = p.rdzv_out.find(f.hdr.aux);
      if (it == p.rdzv_out.end()) break;  // duplicate CTS: ignore
      // The CTS->DATA turn, back on the initiator.
      otrace::note_id(it->second.trace, otrace::stage::wire_data,
                      flow_id(rank_, rank, it->second.seq));
      frame_header dh{};
      dh.kind = static_cast<std::uint16_t>(frame_kind::am_data);
      dh.src = rank_;
      dh.aux = f.hdr.aux;
      dh.seq = it->second.seq;
      // Close any open coalescing batch (a forced flush) and send what is
      // queued, then queue the DATA frame behind it.
      agg_flush_locked(p, rank, telemetry::counter::agg_flush_forced);
      encode_frame(p.out, dh, it->second.bytes.data(),
                   it->second.bytes.size());
      flush_locked(p, rank);
      p.rdzv_out.erase(it);
      break;
    }
    case frame_kind::am_data: {
      auto it = p.rdzv_in.find(f.hdr.aux);
      if (it == p.rdzv_in.end() ||
          it->second.total_len != f.payload.size()) {
        aspen::fatal("net: rendezvous data from rank %d does not match its "
                     "RTS (token %u)",
                     rank, f.hdr.aux);
      }
      gex::am_message msg(
          decode_handler(it->second.handler_delta, text_anchor()), rank,
          f.payload.data(), f.payload.size());
      msg.set_trace(it->second.trace);
      // Pre-salt the delivery edge: release_staged records it as-is, and
      // the DATA leg's sender side staged the matching 's' under the same
      // salt.
      p.staged.emplace(
          it->second.seq,
          staged_am{std::move(msg), it->second.send_ns,
                    flow_id(rank, rank_, it->second.seq) ^
                        otrace::kEdgeSaltData,
                    false});
      p.rdzv_in.erase(it);
      break;
    }
    case frame_kind::coll_contrib: {
      const std::uint64_t key = read_u64(f.payload.data());
      const std::uint64_t seq = read_u64(f.payload.data() + 8);
      coll_contribs_[{key, seq}][rank].assign(f.payload.begin() + 16,
                                              f.payload.end());
      break;
    }
    case frame_kind::coll_result: {
      const std::uint64_t key = read_u64(f.payload.data());
      const std::uint64_t seq = read_u64(f.payload.data() + 8);
      coll_results_[{key, seq}].assign(f.payload.begin() + 16,
                                       f.payload.end());
      break;
    }
    case frame_kind::async_arrive: {
      delivered_from_[static_cast<std::size_t>(rank)].fetch_add(
          1, std::memory_order_relaxed);
      note_async_arrival(f.hdr.seq);
      break;
    }
    case frame_kind::async_release: {
      delivered_from_[static_cast<std::size_t>(rank)].fetch_add(
          1, std::memory_order_relaxed);
      async_done_epoch_.store(f.hdr.seq + 1, std::memory_order_release);
      break;
    }
    case frame_kind::telemetry: {
      if (rank_ != 0) {
        aspen::fatal("net: telemetry frame from rank %d arrived at rank %d "
                     "(only rank 0 collects)",
                     rank, rank_);
      }
      telemetry::count(telemetry::counter::net_telemetry_received);
      telemetry::snapshot d{};
      telemetry::live::gauges g;
      if (!telemetry::live::decode_update(f.payload.data(), f.payload.size(),
                                          &d, &g)) {
        aspen::fatal("net: malformed telemetry update from rank %d (%zu "
                     "payload bytes)",
                     rank, f.payload.size());
      }
      telemetry::live::collector_accumulate(rank, d, g,
                                            (f.hdr.aux & 1u) != 0);
      break;
    }
    case frame_kind::bye:
      p.bye_seen = true;
      break;
    case frame_kind::hello:
    case frame_kind::table:
    case frame_kind::ident:
    case frame_kind::clock_probe:
    case frame_kind::clock_reply:
      aspen::fatal("net: unexpected bootstrap frame (%s) on the "
                   "established rank %d -> %d stream",
                   kind_name(f.kind()), rank, rank_);
  }
}

std::size_t endpoint::release_staged(gex::runtime& rt, int rank) {
  peer& p = peer_of(rank);
  std::size_t released = 0;
  auto it = p.staged.begin();
  while (it != p.staged.end() && it->first == p.next_deliver_seq) {
    telemetry::span sp("wire_deliver", "net");
    telemetry::trace_flow("wire_msg", "net", /*begin=*/false,
                          flow_id(rank, rank_, it->first));
    otrace::note_id(it->second.msg.trace(), otrace::stage::wire_deliver,
                    it->second.edge);
    if (telemetry::compiled_in() && it->second.send_ns != 0) {
      // Both clocks are rank-0-normalized; clamp at 0 against residual
      // offset-estimation error on sub-microsecond hops.
      const auto now_norm = static_cast<std::int64_t>(mono_ns()) -
                            clock_offset_ns_;
      const auto sent = static_cast<std::int64_t>(it->second.send_ns);
      telemetry::note_latency(
          it->second.via_shm ? telemetry::lat_stream::shm_delivery
                             : telemetry::lat_stream::wire_delivery,
          now_norm > sent ? static_cast<std::uint64_t>(now_norm - sent) : 0);
    }
    rt.deliver_from_wire(rank_, std::move(it->second.msg));
    delivered_from_[static_cast<std::size_t>(rank)].fetch_add(
        1, std::memory_order_relaxed);
    telemetry::count(telemetry::counter::net_msgs_received);
    it = p.staged.erase(it);
    ++p.next_deliver_seq;
    ++released;
  }
  return released;
}

bool endpoint::has_pending() const noexcept { return locally_unsettled(); }

bool endpoint::locally_unsettled() const noexcept {
  for (int r = 0; r < nranks_; ++r) {
    if (r == rank_) continue;
    const peer& p = *peers_[static_cast<std::size_t>(r)];
    std::lock_guard<std::mutex> lk(p.mu);
    if (p.out_off < p.out.size()) return true;
    if (p.shm_agg_frames != 0) return true;
    if (!p.rdzv_out.empty()) return true;
    if (!p.staged.empty() || !p.rdzv_in.empty()) return true;
    if (p.dec && p.dec->buffered() != 0) return true;
    // Undrained inbound shm records are local work; outbound ring bytes
    // are the peer's (and show in the quiescence matrices until consumed).
    if (p.shm_active && !p.shm_in_msg.empty()) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Collective exchange / async barrier
// ---------------------------------------------------------------------------

std::vector<std::vector<std::byte>> endpoint::exchange(
    std::uint64_t key, std::uint64_t seq, const std::vector<int>& members,
    const std::vector<std::byte>& mine, const progress_fn& progress) {
  const int coord = members.front();
  const coll_key ck{key, seq};
  const std::size_t m = members.size();
  std::vector<std::vector<std::byte>> out(m);

  if (rank_ == coord) {
    coll_contribs_[ck][rank_] = mine;
    for (;;) {
      auto it = coll_contribs_.find(ck);
      if (it != coll_contribs_.end() && it->second.size() == m) break;
      progress();
    }
    auto contribs = std::move(coll_contribs_[ck]);
    coll_contribs_.erase(ck);
    // Result payload: key, seq, then member-ordered (u32 len, bytes).
    std::vector<std::byte> res;
    append_u64(res, key);
    append_u64(res, seq);
    for (std::size_t i = 0; i < m; ++i) {
      auto& blob = contribs[members[i]];
      const auto len32 = static_cast<std::uint32_t>(blob.size());
      const std::size_t off = res.size();
      res.resize(off + sizeof len32);
      std::memcpy(res.data() + off, &len32, sizeof len32);
      res.insert(res.end(), blob.begin(), blob.end());
      out[i] = std::move(blob);
    }
    frame_header h{};
    h.kind = static_cast<std::uint16_t>(frame_kind::coll_result);
    h.src = rank_;
    for (std::size_t i = 0; i < m; ++i) {
      if (members[i] == rank_) continue;
      enqueue_frame(peer_of(members[i]), members[i], h, res.data(),
                    res.size(), /*counted=*/false);
    }
    return out;
  }

  std::vector<std::byte> body;
  append_u64(body, key);
  append_u64(body, seq);
  body.insert(body.end(), mine.begin(), mine.end());
  frame_header h{};
  h.kind = static_cast<std::uint16_t>(frame_kind::coll_contrib);
  h.src = rank_;
  enqueue_frame(peer_of(coord), coord, h, body.data(), body.size(),
                /*counted=*/false);
  for (;;) {
    auto it = coll_results_.find(ck);
    if (it != coll_results_.end()) break;
    progress();
  }
  std::vector<std::byte> res = std::move(coll_results_[ck]);
  coll_results_.erase(ck);
  const std::byte* q = res.data();
  const std::byte* end = res.data() + res.size();
  for (std::size_t i = 0; i < m; ++i) {
    std::uint32_t len32 = 0;
    if (q + sizeof len32 > end) break;
    std::memcpy(&len32, q, sizeof len32);
    q += sizeof len32;
    if (q + len32 > end) break;
    out[i].assign(q, q + len32);
    q += len32;
  }
  return out;
}

void endpoint::barrier(std::uint64_t key, std::uint64_t seq,
                       const std::vector<int>& members,
                       const progress_fn& progress) {
  (void)exchange(key, seq, members, {}, progress);
}

void endpoint::note_async_arrival(std::uint64_t epoch) {
  // Rank 0 is the async-barrier coordinator. Epochs complete strictly in
  // order (each rank enters epochs in program order and the per-stream
  // frames preserve it), so a watermark suffices.
  int& count = async_arrivals_[epoch];
  if (++count < nranks_) return;
  async_arrivals_.erase(epoch);
  async_done_epoch_.store(epoch + 1, std::memory_order_release);
  frame_header h{};
  h.kind = static_cast<std::uint16_t>(frame_kind::async_release);
  h.src = rank_;
  h.seq = epoch;
  for (int r = 0; r < nranks_; ++r) {
    if (r == rank_) continue;
    enqueue_frame(peer_of(r), r, h, nullptr, 0, /*counted=*/true);
  }
}

void endpoint::async_arrive(std::uint64_t epoch) {
  if (rank_ == 0) {
    note_async_arrival(epoch);
    return;
  }
  frame_header h{};
  h.kind = static_cast<std::uint16_t>(frame_kind::async_arrive);
  h.src = rank_;
  h.seq = epoch;
  enqueue_frame(peer_of(0), 0, h, nullptr, 0, /*counted=*/true);
}

// ---------------------------------------------------------------------------
// Region lifecycle
// ---------------------------------------------------------------------------

namespace {
std::vector<int> world_members(int nranks) {
  std::vector<int> m(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) m[static_cast<std::size_t>(r)] = r;
  return m;
}
}  // namespace

void endpoint::begin_region(const progress_fn& progress) {
  barrier(kRegionKey, region_seq_++, world_members(nranks_), progress);
  // Re-arm the periodic push only once every rank has entered the region:
  // until the entry barrier releases, rank 0 may still be freezing the
  // previous region's aggregate, and an early push would skew it.
  telemetry_final_sent_ = false;
  last_push_ns_ = mono_ns();
}

void endpoint::end_region(const progress_fn& progress) {
  // Counting quiescence: loop until every rank's sent-to row matches every
  // counterpart's delivered-from column AND the global matrix is identical
  // to the previous round (an AM handler executed between two rounds may
  // have sent fresh replies; stability proves the traffic has died out).
  const std::vector<int> members = world_members(nranks_);
  std::vector<std::uint64_t> prev;
  for (;;) {
    while (progress() != 0 || locally_unsettled()) {
      progress();
    }
    std::vector<std::byte> mine;
    for (int r = 0; r < nranks_; ++r)
      append_u64(mine,
                 sent_to_[static_cast<std::size_t>(r)].load(
                     std::memory_order_relaxed));
    for (int r = 0; r < nranks_; ++r)
      append_u64(mine,
                 delivered_from_[static_cast<std::size_t>(r)].load(
                     std::memory_order_relaxed));
    auto all = exchange(kQuiesceKey, quiesce_seq_++, members, mine, progress);
    // flat[i][j] / flat[i][nranks_+j]: rank i's sent_to[j], delivered_from[j]
    std::vector<std::uint64_t> flat;
    flat.reserve(static_cast<std::size_t>(nranks_) * 2u *
                 static_cast<std::size_t>(nranks_));
    for (const auto& blob : all)
      for (std::size_t off = 0; off + 8 <= blob.size(); off += 8)
        flat.push_back(read_u64(blob.data() + off));
    bool matched = true;
    const auto row = static_cast<std::size_t>(2 * nranks_);
    for (int i = 0; i < nranks_ && matched; ++i)
      for (int j = 0; j < nranks_ && matched; ++j) {
        const std::uint64_t sent =
            flat[static_cast<std::size_t>(i) * row +
                 static_cast<std::size_t>(j)];
        const std::uint64_t delivered =
            flat[static_cast<std::size_t>(j) * row +
                 static_cast<std::size_t>(nranks_ + i)];
        if (sent != delivered) matched = false;
      }
    if (matched && flat == prev) break;
    prev = std::move(flat);
  }
  // Quiescent: no counted frame is in flight anywhere, so the telemetry
  // final flush below is the only remaining wire traffic of this region.
  finish_region_telemetry(progress);
  if (const char* tb = telemetry::live::trace_base()) {
    (void)telemetry::write_trace_file(std::string(tb) + ".rank" +
                                      std::to_string(rank_) + ".trace.json");
  }
  // Region-exit otrace export: every rank writes its flight-recorder ring
  // as a Perfetto fragment; bench::merge_rank_otraces (or `cat` plus a
  // JSON array wrapper) joins them into one cross-rank timeline.
  if (otrace::enabled()) {
    (void)otrace::export_json(otrace::dump_path(otrace::dump_base(), rank_),
                              rank_);
    otrace::clear();
  }
}

// ---------------------------------------------------------------------------
// Live telemetry plane
// ---------------------------------------------------------------------------

telemetry::live::gauges endpoint::live_gauges() const {
  telemetry::live::gauges g;
  for (int r = 0; r < nranks_; ++r) {
    if (r == rank_) continue;
    const peer& p = *peers_[static_cast<std::size_t>(r)];
    std::lock_guard<std::mutex> lk(p.mu);
    g.sendq_bytes += p.out.size() - p.out_off + p.shm_agg.size();
    if (p.shm_active)
      g.sendq_bytes +=
          p.shm_out_msg.depth_bytes() + p.shm_out_bulk.depth_bytes();
    g.staged_msgs += p.staged.size();
  }
  g.sendq_high_water = sendq_high_water_.load(std::memory_order_relaxed);
  g.lpc_mailbox_depth = current_persona().mailbox_depth();
  g.wd_state =
      static_cast<std::uint64_t>(telemetry::watchdog::health_state());
  return g;
}

void endpoint::maybe_push_telemetry(bool final_flush) {
  if (telemetry_interval_ms_ == 0 || rank_ == 0) return;
  if (telemetry_final_sent_ && !final_flush) return;
  const std::uint64_t now = mono_ns();
  if (!final_flush &&
      now - last_push_ns_ <
          std::uint64_t{telemetry_interval_ms_} * 1'000'000u)
    return;
  peer& p0 = peer_of(0);
  if (!p0.sock.valid() || p0.departed) return;
  last_push_ns_ = now;
  // Tick the frame's own counter *before* capturing the delta so the count
  // rides the update it announces. Anything ticked after the capture (the
  // flush's own byte counters, say) lands in the next delta — or, on the
  // final flush, stays frozen out of both comparison paths identically.
  telemetry::count(telemetry::counter::net_telemetry_sent);
  const telemetry::live::gauges g = live_gauges();
  const telemetry::snapshot d = telemetry::live::take_update_delta();
  std::vector<std::byte> body;
  telemetry::live::encode_update(d, g, body);
  frame_header h{};
  h.kind = static_cast<std::uint16_t>(frame_kind::telemetry);
  h.src = rank_;
  h.aux = final_flush ? 1u : 0u;
  // Uncounted: telemetry frames ride below the quiescence matrices so
  // periodic pushes can never perturb region-exit stability detection.
  enqueue_frame(p0, 0, h, body.data(), body.size(), /*counted=*/false);
}

void endpoint::finish_region_telemetry(const progress_fn& progress) {
  if (telemetry_interval_ms_ == 0) return;
  if (rank_ != 0) {
    maybe_push_telemetry(/*final_flush=*/true);
    telemetry_final_sent_ = true;
    // The final frame must be fully on the wire before this rank leaves
    // the region: rank 0 blocks on it below, and teardown may follow.
    for (;;) {
      peer& p0 = peer_of(0);
      {
        std::lock_guard<std::mutex> lk(p0.mu);
        if (p0.out_off >= p0.out.size()) return;
        agg_flush_locked(p0, 0, telemetry::counter::agg_flush_forced);
        if (p0.out_off >= p0.out.size()) return;
      }
      progress();
    }
  }
  // Rank 0: pump until every sibling's final update arrived, then freeze
  // the local contribution. The local capture happens *after* the remote
  // finals so their net_telemetry_received ticks are inside it.
  while (telemetry::live::collector_finals() < nranks_ - 1) {
    if (progress() == 0) idle_wait();
  }
  telemetry::live::collector_begin_epoch();
  telemetry::live::collector_note_local(telemetry::live::capture_total(),
                                        live_gauges());
}

}  // namespace aspen::net
