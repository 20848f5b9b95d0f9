// net::endpoint — one rank's socket endpoint in an `aspen-run` job.
//
// The endpoint is this process's seat at the full-mesh table: one
// non-blocking TCP connection per sibling rank, per-peer send queues with
// partial-write resumption, an incremental frame decoder per peer, and the
// eager/rendezvous AM machinery. It implements gex::wire_transport so the
// substrate's poll() drains sockets exactly like the in-process inbox.
//
// Exactly one endpoint exists per process (processes ARE ranks on this
// conduit) and it persists across successive aspen::spmd regions: sockets
// are wired once at first use, regions are delimited by wire barriers, and
// a counting quiescence protocol at region end guarantees no frame crosses
// a region boundary.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/telemetry.hpp"
#include "core/telemetry_live.hpp"
#include "gex/am.hpp"
#include "gex/backend.hpp"
#include "gex/config.hpp"
#include "net/io_backend.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "shm/doorbell.hpp"
#include "shm/ring.hpp"

namespace aspen::net {

/// Names of the bootstrap environment, set by `aspen-run` for each child.
inline constexpr const char* kEnvRank = "ASPEN_NET_RANK";
inline constexpr const char* kEnvNranks = "ASPEN_NET_NRANKS";
inline constexpr const char* kEnvRdzvPort = "ASPEN_NET_RDZV_PORT";

/// Progress callback supplied by the caller of blocking endpoint
/// operations (collective exchange, quiescence). Must advance the full
/// progress engine — substrate poll *and* persona drains — and return the
/// amount of work done, like aspen::progress().
using progress_fn = std::function<std::size_t()>;

class endpoint final : public gex::wire_transport,
                       private io_backend::recv_sink {
 public:
  /// True when this process was launched by `aspen-run` (bootstrap env
  /// present).
  [[nodiscard]] static bool launched();

  /// The process-wide endpoint, wiring the mesh on first call. `cfg` must
  /// already have environment overrides applied; `segment_bytes` is
  /// reported to the launcher for cross-rank consistency checking. Aborts
  /// with a diagnostic if the bootstrap env is missing or the handshake
  /// fails.
  static endpoint& ensure(const gex::net_config& cfg,
                          std::size_t segment_bytes);

  /// Re-arm the per-region tunables (aggregation watermarks, send-queue
  /// bound) from a freshly env-applied config. ensure() calls this on every
  /// region entry, so ASPEN_AGG / ASPEN_NET_SENDQ_MAX toggles between
  /// successive spmd regions of one process take effect — the endpoint
  /// itself (sockets, rings) is wired once and persists.
  void refresh_region_tunables(const gex::net_config& cfg) noexcept;

  /// The already-bootstrapped instance, or nullptr before first ensure().
  [[nodiscard]] static endpoint* instance() noexcept;

  ~endpoint() override;

  [[nodiscard]] int self_rank() const noexcept override { return rank_; }
  [[nodiscard]] int nranks() const noexcept { return nranks_; }
  [[nodiscard]] const gex::net_config& cfg() const noexcept { return cfg_; }

  void send_am(int target, gex::am_message msg) override;
  std::size_t pump(gex::runtime& rt) override;
  [[nodiscard]] bool has_pending() const noexcept override;
  void idle_wait(bool pumps) noexcept override;

  /// The socket data plane (always "poll"; docs/NET.md).
  [[nodiscard]] const char* data_plane() const noexcept { return "poll"; }

  /// Largest per-peer send-queue depth (bytes) observed so far.
  [[nodiscard]] std::size_t sendq_high_water() const noexcept {
    return sendq_high_water_.load(std::memory_order_relaxed);
  }

  /// Largest shm ring depth (bytes, any direction's message+bulk pair)
  /// observed so far. 0 when the shm channel never activated.
  [[nodiscard]] std::size_t shm_ring_high_water() const noexcept {
    return shm_ring_high_water_.load(std::memory_order_relaxed);
  }

  /// Arm or disarm the shared-memory fast path for the coming region.
  /// The shm channel is wired once at bootstrap (when the launcher's table
  /// showed same-host peers and memfds were available), but it only carries
  /// traffic while the active region runs conduit::shm — a later
  /// conduit::tcp region in the same process must see authentic
  /// socket-only behavior.
  void set_region_shm(bool active) noexcept { shm_region_active_ = active; }

  /// True when the shm channel to `target` is wired and armed.
  [[nodiscard]] bool shm_peer(int target) const noexcept {
    return shm_region_active_ &&
           peers_[static_cast<std::size_t>(target)]->shm_active;
  }

  /// Instantaneous transport status in one walk over the peers: the live
  /// plane's gauges (`.live`) plus what only the watchdog's stall dump
  /// reports.
  [[nodiscard]] telemetry::watchdog::transport_status transport_gauges() const;

  /// Estimated steady-clock offset of this rank versus rank 0
  /// (local - rank0, nanoseconds), measured by the bootstrap's RTT-midpoint
  /// probes. 0 on rank 0 and in single-rank jobs.
  [[nodiscard]] std::int64_t clock_offset_ns() const noexcept {
    return clock_offset_ns_;
  }

  // -- collective support (called from the rank thread only) ---------------

  /// All-to-all exchange of opaque byte strings among `members` (a sorted
  /// rank list containing self_rank()). Star-shaped: members[0]
  /// coordinates. (key, seq) must identify this collective identically in
  /// every member; `progress` is pumped while blocked. Returns the
  /// contributions member-ordered (index i belongs to members[i]).
  std::vector<std::vector<std::byte>> exchange(
      std::uint64_t key, std::uint64_t seq, const std::vector<int>& members,
      const std::vector<std::byte>& mine, const progress_fn& progress);

  /// Asynchronous world barrier: signal this rank's arrival at `epoch`.
  /// Epochs complete in order; poll completion with async_done_epoch().
  void async_arrive(std::uint64_t epoch);

  /// Rank 0 only: account one arrival (local or remote) at `epoch`,
  /// releasing the epoch once all ranks have arrived.
  void note_async_arrival(std::uint64_t epoch);

  /// Highest world async-barrier epoch known complete.
  [[nodiscard]] std::uint64_t async_done_epoch() const noexcept {
    return async_done_epoch_.load(std::memory_order_acquire);
  }

  // -- region lifecycle (called by aspen::spmd's tcp path) -----------------

  /// Entry barrier: every process has constructed its substrate runtime
  /// for this region before any user-code frame flows.
  void begin_region(const progress_fn& progress);

  /// Exit quiescence: drains until the global sent/delivered matrices
  /// match and stay stable for two consecutive rounds, so no frame of this
  /// region can leak into the next (or be lost at teardown).
  void end_region(const progress_fn& progress);

 private:
  endpoint(int rank, int nranks, gex::net_config cfg,
           std::size_t segment_bytes);

  /// A record that arrived behind a seq gap, held until the gap closes: the
  /// decoded AM plus the sender's rank-0-normalized send timestamp (0 when
  /// untimed), so its delivery can record wire send -> delivery latency.
  struct staged_am {
    gex::am_message msg;
    std::uint64_t send_ns = 0;
    /// otrace wire edge id for the delivery's wire_deliver record: the
    /// message's flow id, pre-salted with kEdgeSaltData for rendezvous
    /// deliveries so the 'f' flow event pairs with the DATA leg's 's'.
    std::uint64_t edge = 0;
    bool via_shm = false;  ///< arrived over the shm ring (not the socket)
  };

  struct peer {
    fd_handle sock;
    bool bye_seen = false;  ///< clean-shutdown marker received
    bool departed = false;  ///< clean bye + EOF seen
    /// Stream EOF reported by the io_backend this pump tick; resolved
    /// (clean departure vs. crash diagnostic) after the backend pump.
    bool eof_pending = false;
    // ---- send side (any thread; guarded by mu) ----
    mutable std::mutex mu;
    std::vector<std::byte> out;  ///< queued wire bytes
    std::size_t out_off = 0;     ///< consumed prefix of `out`
    /// Local steady-clock time the queue last went non-empty (0 while
    /// drained). Feeds the sendq_residency latency stream and the
    /// watchdog's sendq-stall probe.
    std::uint64_t out_busy_since_ns = 0;
    std::uint64_t next_send_seq = 0;
    /// Rendezvous messages parked until the receiver's CTS, by seq.
    std::unordered_map<std::uint64_t, gex::am_message> rdzv_out;
    // ---- receive side (pump/master thread only) ----
    std::unique_ptr<decoder> dec;
    std::uint64_t next_deliver_seq = 0;
    /// Only records that arrived behind a gap: eager records that overtook
    /// a rendezvous still waiting for its DATA, and ring records that
    /// overtook a ring-full socket fallback. An in-order record runs at
    /// once and never enters the map.
    std::map<std::uint64_t, staged_am> staged;
    std::unordered_map<std::uint64_t, am_record> rdzv_in;  ///< RTS by seq
    // ---- shm channel (wired at bootstrap iff the fd exchange succeeded).
    // The outbound rings are produced under mu (same lock as `out`, so the
    // per-peer seq stays totally ordered across both channels); the inbound
    // rings are consumed by the pump/master thread only.
    bool shm_active = false;
    shm::spsc_ring shm_out_msg;
    shm::spsc_ring shm_out_bulk;
    shm::spsc_ring shm_in_msg;
    shm::spsc_ring shm_in_bulk;
    /// The peer's doorbell, rung after every push into shm_out_msg.
    shm::doorbell shm_bell;
    // ---- the batch (guarded by mu; docs/AGG.md): a run of staged eager
    // records that ships as one ring record or one am_eager frame ----
    std::vector<std::byte> batch;
    std::size_t batch_frames = 0;     ///< records staged in `batch`
    std::size_t batch_payload = 0;    ///< their payload bytes
    std::uint64_t batch_open_ns = 0;  ///< when the first record staged
    /// batch_frames as of the previous pump tick: a batch no record joined
    /// across a full tick is done growing and flushes (the progress-tick
    /// watermark — it keeps single-op round trips at native latency while
    /// burst injection, which stages many records between ticks, batches).
    std::size_t batch_seen_frames = 0;
  };

  void bootstrap(std::uint64_t segment_bytes);
  /// Post-mesh bootstrap phase: exchange memfds with same-host peers over
  /// abstract unix sockets and wire each peer's ring views. Failures leave
  /// individual peers on the socket path; never fatal.
  void bootstrap_shm(const std::vector<std::uint64_t>& host_ids,
                     const std::vector<std::uint8_t>& shm_ready,
                     int exchange_listen_fd);
  peer& peer_of(int rank) { return *peers_[static_cast<std::size_t>(rank)]; }
  /// A header for a frame this rank sends.
  [[nodiscard]] frame_header header(frame_kind k,
                                    std::uint64_t seq = 0) const noexcept {
    return {kMagic, static_cast<std::uint16_t>(k), rank_, 0, 0, seq};
  }

  /// Rank > 0: estimate clock_offset_ns_ against rank 0 over the (still
  /// blocking) mesh socket during bootstrap.
  void clock_sync_with_rank0();
  /// Rank 0: answer one higher rank's bootstrap clock probes.
  void serve_clock_probes(int fd);
  /// Non-zero ranks: ship a telemetry update frame to rank 0 if the push
  /// interval elapsed (or unconditionally on the region-exit final flush).
  void maybe_push_telemetry(bool final_flush);
  /// Region-exit leg of the telemetry plane: senders flush their final
  /// frame to the wire; rank 0 pumps until every final arrived, then
  /// freezes its own contribution.
  void finish_region_telemetry(const progress_fn& progress);

  /// Append a frame to `p`'s queue behind the peer's batch and flush.
  /// Counts toward the quiescence matrix iff `counted`.
  void enqueue_frame(peer& p, int target, const frame_header& hdr,
                     const void* payload, std::size_t len, bool counted);
  /// Flush as much of `p.out` as the socket accepts (mu held by caller).
  void flush_locked(peer& p, int target);
  /// Ship the peer's batch (no-op when empty) as one message-ring record on
  /// an armed shm peer, else — or when the ring is full — as one am_eager
  /// frame of the same bytes on `p.out` for the caller to flush. Ticks
  /// `trigger` when aggregating. True iff it went into the ring; mu held.
  bool ship_batch_locked(peer& p, int target, telemetry::counter trigger);
  /// After publishing a ring record to `p`: wake its consumer if parked.
  static void wake_shm_peer(peer& p) noexcept {
    if (p.shm_bell.ring()) telemetry::count(telemetry::counter::shm_wakeups);
  }
  /// Park the calling injector while the peer's unsent socket bytes exceed
  /// sendq_max_ (bounded spin: progress is always guaranteed; the master
  /// thread reads its sockets instead of spinning so inbound bytes keep
  /// draining). Returns at once inside the pump, so a handler's sends
  /// never park.
  void park_sendq(peer& p, int target);
  /// io_backend::recv_sink — called from io_.pump() on the master thread:
  /// feed the peer's incremental decoder / flag stream EOF. Must not take
  /// peer send locks.
  void on_bytes(int rank, const void* data, std::size_t len) override;
  void on_eof(int rank) override;
  /// Process decoded frames and resolve a pending EOF for one peer (the
  /// post-io_backend half of the old pump_peer).
  std::size_t drain_peer(gex::runtime& rt, int rank);
  /// Decode the peer's inbound ring records where they lie, running or
  /// staging each AM, then release what their arrival un-gapped.
  std::size_t pump_shm_peer(gex::runtime& rt, int rank);
  /// Decode every record of one run — an am_eager frame payload, or a shm
  /// message-ring record — and hand each to arrive(). False on a malformed
  /// run.
  template <run_source Src>
  [[nodiscard]] bool stage_run(gex::runtime& rt, peer& p, int rank,
                               const std::byte* run, std::size_t n);
  void process_frame(gex::runtime& rt, int rank, frame&& f);
  /// One AM record arrived: run it now if its seq is the next to deliver,
  /// else hold it in the staged map behind the gap.
  void arrive(gex::runtime& rt, peer& p, int rank, std::uint64_t seq,
              gex::am_message&& msg, std::uint64_t send_ns,
              std::uint64_t edge, bool via_shm);
  /// The one delivery body, for the in-order fast path and for staged
  /// records alike: the wire_deliver stage, the delivery latency, the
  /// quiescence and message counters, then the handler, on this thread.
  void deliver(gex::runtime& rt, peer& p, int rank, gex::am_message& msg,
               std::uint64_t send_ns, std::uint64_t edge, bool via_shm);
  /// Deliver the staged AMs whose gap has closed, in seq order.
  std::size_t release_staged(gex::runtime& rt, int rank);
  /// True while any local queue/staging/rendezvous state is unsettled.
  [[nodiscard]] bool locally_unsettled() const noexcept;

  int rank_;
  int nranks_;
  gex::net_config cfg_;
  std::vector<std::unique_ptr<peer>> peers_;  ///< [nranks_], self unused
  /// The socket data plane (peer fds attached once the mesh is wired).
  io_backend io_;
  std::thread::id master_tid_;  ///< the bootstrap/pump thread
  /// pump() reentrancy guard, raised while the pump runs AM handlers too.
  /// Written by the master thread only; atomic because park_sendq()
  /// consults it from injector threads.
  std::atomic<bool> pumping_{false};
  /// A ring record that wraps the buffer end, copied out to decode
  /// (pump_shm_peer; every other record decodes in place).
  std::vector<std::byte> ring_scratch_;

  // Quiescence matrices: counted frames sent to / delivered from each
  // rank. Atomic because worker threads may inject sends.
  std::vector<std::atomic<std::uint64_t>> sent_to_;
  std::vector<std::atomic<std::uint64_t>> delivered_from_;

  // Collective staging (rank thread + pump thread, same OS thread).
  using coll_key = std::pair<std::uint64_t, std::uint64_t>;
  std::map<coll_key, std::map<int, std::vector<std::byte>>> coll_contribs_;
  std::map<coll_key, std::vector<std::vector<std::byte>>> coll_results_;

  // Async world barrier.
  std::map<std::uint64_t, int> async_arrivals_;  ///< rank 0 only
  std::atomic<std::uint64_t> async_done_epoch_{0};

  // Region bookkeeping.
  std::uint64_t region_seq_ = 0;
  std::uint64_t quiesce_seq_ = 0;

  std::atomic<std::size_t> sendq_high_water_{0};

  // Shared-memory channel state. shm_ok_ is set at bootstrap when this
  // rank's mapper came up; shm_region_active_ arms the fast path per
  // region (see set_region_shm). Effective payload bounds are derived from
  // cfg_.shm at bootstrap.
  bool shm_ok_ = false;
  bool shm_region_active_ = false;
  /// This rank's own doorbell (consumer side; idle_wait arms it).
  shm::doorbell bell_;
  std::size_t shm_eager_max_ = 0;
  std::size_t shm_bulk_max_ = 0;
  std::size_t shm_msg_cap_ = 0;  ///< message-ring capacity (batch bound)
  std::atomic<std::size_t> shm_ring_high_water_{0};

  // Aggregation watermarks and the send-queue bound (docs/AGG.md),
  // re-derived per region via refresh_region_tunables().
  bool agg_on_ = false;
  std::size_t agg_max_bytes_ = 0;
  std::size_t agg_max_frames_ = 0;
  std::uint64_t agg_flush_ns_ = 0;
  std::size_t sendq_max_ = 0;

  // Live-telemetry plane (0 == disabled) and bootstrap clock sync.
  std::uint32_t telemetry_interval_ms_ = 0;
  std::uint64_t last_push_ns_ = 0;
  /// Set once the region's final flush is shipped: no periodic push may
  /// follow it until the *next* region's entry barrier releases, because
  /// until then rank 0 may still be freezing the previous region's
  /// aggregate (a stray push would reach its collector but not the frozen
  /// sender totals, or vice versa). Cleared after begin_region's barrier.
  bool telemetry_final_sent_ = false;
  std::int64_t clock_offset_ns_ = 0;
};

}  // namespace aspen::net
