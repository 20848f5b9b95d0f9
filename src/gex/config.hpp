// ASPEN substrate configuration.
//
// The substrate ("gex") plays the role GASNet-EX plays under UPC++: it owns
// the shared-memory segments, the inter-rank active-message transport, and
// the raw RMA/atomic primitives. Everything above it (futures, completions,
// the progress engine) lives in aspen::core.
#pragma once

#include <cstddef>
#include <cstdint>

namespace aspen::gex {

/// Transport "conduit" the substrate emulates. All conduits here communicate
/// through shared memory (the paper's experiments are single-node with
/// process-shared memory); the distinction controls metadata behavior:
///
///  - smp:      every rank is known local at startup; `is_local` can be
///              resolved without a dynamic check (the 2021.3.6 constexpr
///              `is_local` optimization applies).
///  - loopback: models the UDP/MPI conduits of the paper: ranks may be
///              declared "remote" via the locality model, in which case
///              RMA/atomics take the active-message path even though the
///              memory is physically shared. Used by tests and the off-node
///              ablation benchmark.
///  - perturbed: loopback plus a deterministic, seeded perturbation engine
///              (gex/perturb.hpp) that delays, reorders (per-source FIFO
///              preserving), and backpressures AM delivery, and can divert
///              shareable-memory RMA/atomics down the AM path (forced-async
///              mode). Used by the seed-sweep correctness harness to stress
///              the eager/defer equivalence claim under adversarial
///              schedules.
///  - tcp:      the one conduit that is NOT an emulation: every rank is a
///              separate OS process and AMs travel over non-blocking TCP
///              sockets in a full mesh (src/net/). Processes are launched
///              and wired together by the `aspen-run` SPMD launcher.
///              `shares_memory` is true only for a rank and itself, so
///              every cross-rank RMA/atomic takes the deferred AM path —
///              the authentic off-node regime of the paper's Figs. 5-7.
///  - shm:      multi-process like tcp (same launcher, same socket mesh for
///              bootstrap and off-host peers), but same-host peers map each
///              other's segment arenas through memfd + SCM_RIGHTS fd-passing
///              (src/shm/, GASNet-EX PSHM style). Every process maps every
///              same-host arena at the same fixed address, so raw global_ptr
///              addresses stay valid across processes: RMA/atomics become
///              direct loads/stores/memcpy and complete synchronously — the
///              eager bypass fires across real process boundaries. AMs to
///              mapped peers travel over lock-free SPSC rings in a shared
///              control segment; any peer that cannot be mapped (off-host,
///              memfd unavailable, ASPEN_SHM=0) transparently keeps the tcp
///              socket path.
enum class conduit : std::uint8_t {
  smp,
  loopback,
  perturbed,
  tcp,
  shm,
};

/// Locality model: which rank pairs are treated as sharing a node.
///
/// `node_size == 0` (or >= rank count) means all ranks share one node, the
/// configuration of every timed experiment in the paper. A positive
/// `node_size` partitions ranks into pseudo-nodes of that size; cross-node
/// pairs then use the AM path, standing in for off-node communication.
struct locality_model {
  std::size_t node_size = 0;

  [[nodiscard]] constexpr bool same_node(int a, int b) const noexcept {
    if (node_size == 0) return true;
    return static_cast<std::size_t>(a) / node_size ==
           static_cast<std::size_t>(b) / node_size;
  }
};

/// Tunables of the `conduit::perturbed` fault-injection engine. All
/// randomness derives from `seed` through per-rank splitmix64/xoshiro256**
/// streams, so every injected schedule is replayable from its seed.
struct perturb_config {
  /// Root seed for every per-rank PRNG stream. Overridable at run time via
  /// ASPEN_PERTURB_SEED (see honor_env).
  std::uint64_t seed = 0xA5BE5EEDCAFEF00Dull;
  /// Percent chance (0..100) that a message is assigned a delivery hold.
  std::uint32_t delay_percent = 0;
  /// A held message is skipped by this many target polls (hold drawn
  /// uniformly in [1, max_hold_polls]).
  std::uint32_t max_hold_polls = 8;
  /// Randomize the interleaving of deliveries from *different* sources.
  /// Per-source FIFO order is always preserved (the RMA remote-completion
  /// protocol depends on it, as GASNet-EX request ordering does).
  bool reorder = false;
  /// Percent chance (0..100) that an RMA/atomic targeting shareable memory
  /// is diverted down the AM path anyway. 100 = forced-async mode: no
  /// operation may complete synchronously, so eager completion factories
  /// must degrade to the deferred remote machinery.
  std::uint32_t forced_async_percent = 0;
  /// Honor config::am_inbox_capacity: senders spin (with yield) while the
  /// target inbox is full, then force-deliver after backpressure_spins to
  /// guarantee progress.
  bool backpressure = true;
  std::uint32_t backpressure_spins = 1u << 16;
  /// Apply ASPEN_PERTURB_* environment overrides when the runtime starts
  /// (the seed-replay workflow). The seed-sweep harness sets this false so
  /// its programmatically derived seeds are authoritative.
  bool honor_env = true;
};

/// Tunables of the shared-memory channel used by `conduit::shm` for
/// same-host peers. Each knob is overridable through the ASPEN_SHM_*
/// environment family (see docs/SHM.md) unless net_config::honor_env is
/// cleared.
struct shm_config {
  /// Master switch: false forces every peer onto the tcp socket path even
  /// when memfd mapping would have succeeded (the degraded-mode leg used by
  /// CI to prove result equivalence). Env: ASPEN_SHM (0 disables).
  bool enabled = true;
  /// Largest AM payload pushed inline through the message ring; larger
  /// payloads stage through the bulk ring. 0 (the default) inherits
  /// net_config::eager_max so the shm and tcp eager/rendezvous cutovers
  /// coincide. The effective value is clamped to a quarter of the message
  /// ring so several inline records always fit. Env: ASPEN_SHM_EAGER_MAX.
  std::size_t eager_max = 0;
  /// Capacity of each directed per-peer message ring (control records +
  /// inline payloads). Rounded to a power of two in [4 KiB, 256 MiB].
  /// Env: ASPEN_SHM_RING_BYTES.
  std::size_t msg_ring_bytes = std::size_t{1} << 20;
  /// Capacity of each directed per-peer bulk ring (payloads above the shm
  /// eager bound). Same rounding. A payload larger than half this ring can
  /// never take the shm path and falls back to the socket rendezvous.
  /// Env: ASPEN_SHM_BULK_BYTES.
  std::size_t bulk_ring_bytes = std::size_t{8} << 20;
};

/// Tunables of the small-message aggregation layer (docs/AGG.md): per-peer
/// batching of eager records into one socket frame or one shm ring record.
/// Each knob is overridable through the ASPEN_AGG* environment family
/// unless net_config::honor_env is cleared. Aggregation never reorders:
/// records accumulate in seq order and any non-eager traffic to a peer
/// ships everything staged ahead of it, so the staged-delivery
/// bit-identity guarantees are unaffected.
struct agg_config {
  /// Master switch. Env: ASPEN_AGG (1 enables).
  bool enabled = false;
  /// Flush a peer's aggregation buffer once this many queued bytes
  /// (headers included) are pending. Env: ASPEN_AGG_BYTES.
  std::size_t max_bytes = std::size_t{64} << 10;
  /// Flush once this many eager records are staged. Env: ASPEN_AGG_FRAMES.
  std::size_t max_frames = 128;
  /// Progress-tick age watermark: a batch older than this is flushed by the
  /// next poll even if under the size/count watermarks, bounding the extra
  /// latency aggregation can add to any single message.
  /// Env: ASPEN_AGG_FLUSH_US.
  std::uint64_t flush_us = 100;
};

/// Tunables of the `conduit::tcp` socket transport (src/net/). Each knob is
/// overridable at run time through the ASPEN_NET_* environment family (see
/// docs/NET.md) unless honor_env is cleared.
struct net_config {
  /// Largest AM payload sent inline in a single eager frame. Larger
  /// payloads negotiate a rendezvous (RTS/CTS/DATA) transfer instead.
  /// Clamped so the frame (its up-to-40-byte record included) fits
  /// max_frame.
  /// Env: ASPEN_NET_EAGER_MAX.
  std::size_t eager_max = std::size_t{8} << 10;
  /// Hard ceiling on any single frame's payload length; a peer announcing
  /// more is treated as a protocol violation and the frame is rejected.
  /// Env: ASPEN_NET_MAX_FRAME.
  std::size_t max_frame = std::size_t{64} << 20;
  /// Virtual address where every process maps the whole segment arena
  /// (MAP_FIXED_NOREPLACE). Identical placement in all ranks keeps raw
  /// global_ptr addresses meaningful across the wire. Env:
  /// ASPEN_NET_SEGMENT_BASE (decimal or 0x-hex).
  std::uintptr_t segment_base = 0x2a5e00000000ull;
  /// Shared-memory channel settings; consulted only when transport is
  /// conduit::shm.
  shm_config shm{};
  /// Small-message aggregation settings (both socket and shm channels).
  agg_config agg{};
  /// Cap on a peer's queued-but-unsent socket bytes (`peer::out`). An
  /// injector finding the queue over this bound parks (flush + yield, with
  /// a bounded spin so progress is always guaranteed) instead of growing it
  /// without bound — the first slice of adaptive flow control, mirroring
  /// the perturbed conduit's bounded-inbox semantics. 0 = unbounded.
  /// Env: ASPEN_NET_SENDQ_MAX.
  std::size_t sendq_max = 0;
  /// Apply ASPEN_NET_* environment overrides when the endpoint starts.
  bool honor_env = true;
};

/// Substrate-wide tunables, fixed for the duration of one SPMD run.
struct config {
  conduit transport = conduit::smp;
  locality_model locality{};
  /// Bytes of shared segment reserved per rank.
  std::size_t segment_bytes = std::size_t{64} << 20;
  /// Capacity (messages) of each rank's active-message inbox ring. Enforced
  /// by the perturbed conduit's backpressure path (perturb_config); the smp
  /// and loopback conduits treat the inbox as unbounded.
  std::size_t am_inbox_capacity = 1 << 14;
  /// Perturbation engine settings; consulted only when transport is
  /// conduit::perturbed.
  perturb_config perturb{};
  /// Socket transport settings; consulted when transport is conduit::tcp
  /// or conduit::shm (the shm conduit bootstraps and falls back over the
  /// same socket mesh).
  net_config net{};
};

}  // namespace aspen::gex
