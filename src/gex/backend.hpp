// The substrate runtime: rank table, segments, inboxes, AM delivery, and the
// locality oracle. One instance exists per SPMD run (see aspen::spmd).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "core/log.hpp"
#include "core/telemetry.hpp"
#include "gex/am.hpp"
#include "gex/config.hpp"
#include "gex/mpsc_queue.hpp"
#include "gex/perturb.hpp"
#include "gex/segment.hpp"
#include "shm/mapper.hpp"

namespace aspen::gex {

class runtime;

/// Abstract socket transport plugged into the runtime by conduit::tcp
/// (implemented by net::endpoint; the substrate stays free of any socket
/// dependency). A wire transport represents exactly one rank of the job —
/// the calling process — and moves AMs to/from every other rank's process.
class wire_transport {
 public:
  virtual ~wire_transport() = default;
  /// The rank this process plays in the wired job.
  [[nodiscard]] virtual int self_rank() const noexcept = 0;
  /// Ship an AM to `target`'s process. Thread-safe (worker threads inject).
  virtual void send_am(int target, am_message msg) = 0;
  /// Advance the socket state machine: flush queued writes, read frames
  /// and ring records, and run each arrived AM's handler for rank
  /// self_rank() in per-source seq order, inside the pump. Returns the
  /// units of work done (0 when nothing arrived). Must be called only
  /// from the master-persona holder (poll()'s contract). The pump does not
  /// re-enter itself: a nested progress() from a handler it runs skips the
  /// wire (and still drains the in-process inbox and the personas).
  virtual std::size_t pump(runtime& rt) = 0;
  /// True while frames are queued outbound, partially received, or parked
  /// awaiting rendezvous — shutdown drains must keep pumping.
  [[nodiscard]] virtual bool has_pending() const noexcept = 0;
  /// Called by the progress engine's wait loops after a sustained run of
  /// zero-work iterations. A transport may park the caller briefly (e.g. in
  /// poll(2) on its sockets) so a co-scheduled sibling process gets the CPU
  /// — on shared cores a spin-wait otherwise costs the sender its whole
  /// timeslice per message. Must return promptly once progress is possible;
  /// may be called from any thread. `pumps` is true iff the caller holds
  /// the master persona, i.e. it is the thread whose progress() pumps this
  /// transport (poll()'s contract), so traffic that only a pump can see
  /// may wake it.
  virtual void idle_wait(bool pumps) noexcept {
    (void)pumps;
    std::this_thread::yield();
  }
};

/// Per-rank substrate state.
struct rank_state {
  mpsc_queue<am_message> inbox;
  /// Scratch buffer reused by poll() to drain the inbox.
  std::vector<am_message> drain_buf;
  /// True while poll() is iterating drain_buf. An AM handler that reenters
  /// the progress engine (and thus poll()) on the same rank must not reuse
  /// the in-flight scratch buffer.
  bool draining = false;
  /// The thread currently holding this rank's master persona (mirrored by
  /// aspen::persona; default-constructed id when unheld or when no persona
  /// runtime is wired, e.g. raw-substrate unit tests). Enforces the poll()
  /// contract below in debug builds.
  std::atomic<std::thread::id> master_holder{};
};

class runtime {
 public:
  runtime(int nranks, config cfg)
      : cfg_(cfg),
        arena_(nranks, cfg.segment_bytes,
               cfg.transport == conduit::tcp || cfg.transport == conduit::shm
                   ? cfg.net.segment_base
                   : 0,
               cfg.transport == conduit::shm),
        states_(static_cast<std::size_t>(nranks)) {
    for (auto& s : states_) s = std::make_unique<rank_state>();
    if (cfg_.transport == conduit::perturbed) {
      if (cfg_.perturb.honor_env)
        cfg_.perturb = perturb::apply_env(cfg_.perturb);
      perturb_ = std::make_unique<perturb::engine>(cfg_.perturb, nranks);
    }
  }

  runtime(const runtime&) = delete;
  runtime& operator=(const runtime&) = delete;

  [[nodiscard]] int nranks() const noexcept { return arena_.nranks(); }
  [[nodiscard]] const config& cfg() const noexcept { return cfg_; }
  [[nodiscard]] segment_arena& arena() noexcept { return arena_; }
  [[nodiscard]] rank_state& state(int rank) noexcept {
    return *states_[static_cast<std::size_t>(rank)];
  }

  /// Do ranks `a` and `b` share direct load/store access? On the smp
  /// conduit this is unconditionally true; on loopback it consults the
  /// locality model; on tcp only a rank and itself share memory (each rank
  /// is a separate process), so rma_target_local is false for every remote
  /// target and all cross-rank traffic rides the deferred AM path. On shm,
  /// two ranks share memory when both segments are mapped into this process
  /// (same host, fd exchange succeeded) — RMA/atomics then complete as
  /// direct loads/stores and the eager bypass fires across processes.
  [[nodiscard]] bool shares_memory(int a, int b) const noexcept {
    if (cfg_.transport == conduit::smp) return true;
    if (cfg_.transport == conduit::tcp) return a == b;
    if (cfg_.transport == conduit::shm) {
      if (a == b) return true;
      const auto* mp = shm::mapper::instance();
      return mp != nullptr && mp->rank_mapped(a) && mp->rank_mapped(b);
    }
    return cfg_.locality.same_node(a, b);
  }

  /// Enqueue an active message for `target`. Callable from any rank thread;
  /// counted (telemetry am_sent) on the sending thread.
  void send_am(int target, am_message msg) {
    telemetry::count(telemetry::counter::am_sent);
    // Single chokepoint where every conduit's AMs pass: stamp the sender's
    // ambient trace id so sampled ops propagate across handler hops, wire
    // frames, and shm rings alike.
    if (const std::uint64_t tid = otrace::current(); tid != 0) {
      msg.set_trace(tid);
      otrace::note_id(tid, otrace::stage::am_send);
    }
    if (wire_ && target != wire_->self_rank()) {
      // Remote process: serialize onto the socket.
      wire_->send_am(target, std::move(msg));
      return;
    }
    if (perturb_) {
      perturb_->send(*this, target, std::move(msg));
      return;
    }
    state(target).inbox.push(std::move(msg));
  }

  /// Plug in (or detach, with nullptr) the socket transport. The pointer is
  /// not owned; net::endpoint outlives the runtime it is attached to.
  void attach_wire(wire_transport* w) noexcept { wire_ = w; }
  [[nodiscard]] wire_transport* wire() const noexcept { return wire_; }

  /// Drain and execute all pending AMs for rank `me`. Returns the number of
  /// messages executed. Must be called only by the thread currently holding
  /// rank `me`'s master persona (nested calls from AM handlers running on
  /// that thread are allowed). Debug builds abort on violation; release
  /// builds leave it as UB, exactly like UPC++'s internal-progress rules.
  std::size_t poll(int me) {
    rank_state& st = state(me);
#ifndef NDEBUG
    if (const std::thread::id holder =
            st.master_holder.load(std::memory_order_relaxed);
        holder != std::thread::id{} &&
        holder != std::this_thread::get_id()) {
      aspen::fatal(
          "gex: poll(%d) called from a thread that does not hold rank %d's "
          "master persona. Only the master-persona holder may poll the "
          "substrate; acquire it with persona_scope after "
          "liberate_master_persona(), or leave polling to the rank thread.",
          me, me);
    }
#endif
    // Advance the socket state machine first. Wire AMs run inside the pump
    // as they arrive in seq order (one poll() turns a received request
    // into an executed handler, matching the in-process conduits'
    // single-call latency); the pump counts them in am_executed itself.
    // The drain below serves the in-process inbox.
    std::size_t pumped = 0;
    if (wire_ && me == wire_->self_rank()) pumped = wire_->pump(*this);
    std::size_t n;
    if (perturb_) {
      n = perturb_->poll(*this, me);
    } else if (!st.inbox.maybe_nonempty()) {
      return pumped;
    } else if (!st.draining) {
      // Fast path: reuse the scratch buffer, guarded against reentry. A
      // handler that triggers nested progress on this rank used to clobber
      // drain_buf mid-iteration (clear + push invalidating the live loop).
      st.draining = true;
      st.drain_buf.clear();
      st.inbox.drain_into(st.drain_buf);
      n = st.drain_buf.size();
      for (auto& msg : st.drain_buf) msg.execute(*this, me);
      st.drain_buf.clear();
      st.draining = false;
    } else {
      // Nested poll: drain into a private buffer, leaving the outer
      // iteration's storage untouched.
      std::vector<am_message> nested;
      st.inbox.drain_into(nested);
      n = nested.size();
      for (auto& msg : nested) msg.execute(*this, me);
    }
    if (n != 0) telemetry::count(telemetry::counter::am_executed, n);
    return pumped + n;
  }

  /// True while rank `me` still has undelivered messages. On the perturbed
  /// conduit a message may be held across several polls, so shutdown drains
  /// must keep polling while this is set rather than polling once.
  [[nodiscard]] bool has_pending(int me) const noexcept {
    if (wire_ && me == wire_->self_rank() && wire_->has_pending())
      return true;
    if (perturb_) return perturb_->has_pending(me);
    return state_const(me).inbox.maybe_nonempty();
  }

  /// Draw one forced-async decision for an operation initiated by `rank`
  /// whose target shares memory. Always false outside the perturbed
  /// conduit; see detail::rma_target_local for the consultation site.
  [[nodiscard]] bool perturb_force_async(int rank) noexcept {
    return perturb_ && perturb_->force_async(rank);
  }

  /// The perturbation engine, or nullptr outside conduit::perturbed.
  [[nodiscard]] perturb::engine* perturb_engine() noexcept {
    return perturb_.get();
  }

 private:
  [[nodiscard]] const rank_state& state_const(int rank) const noexcept {
    return *states_[static_cast<std::size_t>(rank)];
  }

  config cfg_;
  segment_arena arena_;
  std::vector<std::unique_ptr<rank_state>> states_;
  std::unique_ptr<perturb::engine> perturb_;
  wire_transport* wire_ = nullptr;
};

}  // namespace aspen::gex
