#include "gex/perturb.hpp"

#include <cstdlib>
#include <cstring>
#include <limits>
#include <thread>

#include "core/telemetry.hpp"
#include "gex/backend.hpp"

namespace aspen::gex::perturb {

// ---------------------------------------------------------------------------
// Presets & environment
// ---------------------------------------------------------------------------

const char* to_string(mode m) noexcept {
  switch (m) {
    case mode::forced_sync:
      return "forced-sync";
    case mode::forced_async:
      return "forced-async";
    case mode::delay_reorder:
      return "delay-reorder";
  }
  return "?";
}

perturb_config preset(mode m, std::uint64_t seed) noexcept {
  perturb_config p;
  p.seed = seed;
  switch (m) {
    case mode::forced_sync:
      // Control leg: traffic flows through the engine (backpressure armed)
      // but no delays, no reordering, no diversion — operations targeting
      // shareable memory keep the synchronous path and eager completion.
      break;
    case mode::forced_async:
      p.forced_async_percent = 100;
      break;
    case mode::delay_reorder:
      p.delay_percent = 60;
      p.max_hold_polls = 6;
      p.reorder = true;
      p.forced_async_percent = 50;
      break;
  }
  return p;
}

namespace {

bool env_u64(const char* name, std::uint64_t& out) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return false;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 0);
  if (end == v) return false;
  out = static_cast<std::uint64_t>(parsed);
  return true;
}

bool env_u32(const char* name, std::uint32_t& out) {
  std::uint64_t v;
  if (!env_u64(name, v)) return false;
  out = static_cast<std::uint32_t>(
      v > std::numeric_limits<std::uint32_t>::max()
          ? std::numeric_limits<std::uint32_t>::max()
          : v);
  return true;
}

bool env_bool(const char* name, bool& out) {
  std::uint64_t v;
  if (!env_u64(name, v)) return false;
  out = v != 0;
  return true;
}

}  // namespace

perturb_config apply_env(perturb_config base) {
  // MODE first so explicit knob overrides below win over the preset.
  if (const char* m = std::getenv("ASPEN_PERTURB_MODE");
      m != nullptr && *m != '\0') {
    for (mode cand :
         {mode::forced_sync, mode::forced_async, mode::delay_reorder}) {
      if (std::strcmp(m, to_string(cand)) == 0) {
        const perturb_config p = preset(cand, base.seed);
        base.delay_percent = p.delay_percent;
        base.max_hold_polls = p.max_hold_polls;
        base.reorder = p.reorder;
        base.forced_async_percent = p.forced_async_percent;
        break;
      }
    }
  }
  env_u64("ASPEN_PERTURB_SEED", base.seed);
  env_u32("ASPEN_PERTURB_DELAY_PCT", base.delay_percent);
  env_u32("ASPEN_PERTURB_MAX_HOLD", base.max_hold_polls);
  env_bool("ASPEN_PERTURB_REORDER", base.reorder);
  env_u32("ASPEN_PERTURB_FORCED_ASYNC_PCT", base.forced_async_percent);
  env_bool("ASPEN_PERTURB_BACKPRESSURE", base.backpressure);
  if (base.max_hold_polls == 0) base.max_hold_polls = 1;
  return base;
}

// ---------------------------------------------------------------------------
// Per-rank engine state
// ---------------------------------------------------------------------------

/// Guards a rank's initiator-side PRNG streams. With persona-based
/// multithreaded injection (aspen::run_workers) several threads of one rank
/// draw on the same send/op streams concurrently; the lock keeps each draw
/// atomic so every stream output is consumed exactly once. Note that the
/// *interleaving* of draws across injector threads is scheduling-dependent,
/// so bit-exact seed replay is only guaranteed under single-threaded
/// injection (the chaos-matrix configuration).
struct stream_lock {
  std::atomic_flag flag = ATOMIC_FLAG_INIT;
  void lock() noexcept {
    while (flag.test_and_set(std::memory_order_acquire)) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  }
  void unlock() noexcept { flag.clear(std::memory_order_release); }
};

struct alignas(64) engine::rank_state {
  /// Producer side: any rank thread pushes; the owner drains.
  mpsc_queue<envelope> inbox;

  /// Consumer-private: arrived messages still being held, FIFO per source
  /// so same-source messages can never overtake each other.
  std::vector<std::deque<envelope>> held;
  std::size_t held_count = 0;
  std::uint64_t next_arrival_seq = 0;

  /// Decision streams. `op` and `send` are drawn by initiator threads of
  /// this rank (under stream_mu — there may be several with run_workers);
  /// `recv` only by the consumer (the master-persona holder), unlocked.
  stream_lock stream_mu;
  xoshiro256ss op_stream;
  xoshiro256ss send_stream;
  xoshiro256ss recv_stream;

  // Injected-event counts (relaxed; cross-thread readable via totals()).
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> delayed{0};
  std::atomic<std::uint64_t> hold_polls_assigned{0};
  std::atomic<std::uint64_t> reordered{0};
  std::atomic<std::uint64_t> forced_async{0};
  std::atomic<std::uint64_t> bp_waits{0};
  std::atomic<std::uint64_t> bp_forced{0};

  rank_state(std::uint64_t seed, int rank, int nranks)
      : held(static_cast<std::size_t>(nranks)),
        op_stream(stream_seed(seed, rank, 1)),
        send_stream(stream_seed(seed, rank, 2)),
        recv_stream(stream_seed(seed, rank, 3)) {}

  [[nodiscard]] static std::uint64_t stream_seed(std::uint64_t seed, int rank,
                                                 std::uint64_t which) {
    std::uint64_t s = seed;
    (void)splitmix64(s);
    s ^= splitmix64(s) + 0x632BE59BD9B4E019ull * static_cast<std::uint64_t>(
                             static_cast<std::uint32_t>(rank) + 1u);
    s += which * 0x9E3779B97F4A7C15ull;
    return splitmix64(s);
  }
};

engine::engine(const perturb_config& cfg, int nranks) : cfg_(cfg) {
  ranks_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r)
    ranks_.push_back(std::make_unique<rank_state>(cfg_.seed, r, nranks));
}

engine::~engine() = default;

// ---------------------------------------------------------------------------
// Send path: hold assignment + bounded-inbox backpressure
// ---------------------------------------------------------------------------

void engine::send(runtime& rt, int target, am_message msg) {
  const int src = msg.source();
  rank_state& snd = st(src);
  snd.sent.fetch_add(1, std::memory_order_relaxed);

  envelope env;
  env.msg = std::move(msg);
  if (cfg_.delay_percent != 0) {
    bool delayed = false;
    snd.stream_mu.lock();
    if (snd.send_stream.percent(cfg_.delay_percent)) {
      env.hold_polls = 1 + snd.send_stream.below(cfg_.max_hold_polls);
      delayed = true;
    }
    snd.stream_mu.unlock();
    if (delayed) {
      snd.delayed.fetch_add(1, std::memory_order_relaxed);
      snd.hold_polls_assigned.fetch_add(env.hold_polls,
                                        std::memory_order_relaxed);
      telemetry::count(telemetry::counter::perturb_delayed);
    }
  }

  rank_state& tgt = st(target);
  // Bounded inbox: spin (yielding) while the target's undrained ring is at
  // capacity. Self-sends skip backpressure — the only thread that could
  // drain the inbox is the one spinning. After backpressure_spins the
  // message is force-delivered so a non-polling target cannot wedge the
  // sender forever.
  if (cfg_.backpressure && target != src) {
    const std::size_t cap = rt.cfg().am_inbox_capacity;
    if (tgt.inbox.approx_size() >= cap) {
      snd.bp_waits.fetch_add(1, std::memory_order_relaxed);
      telemetry::count(telemetry::counter::perturb_backpressure);
      std::uint32_t spins = 0;
      while (tgt.inbox.approx_size() >= cap) {
        if (++spins > cfg_.backpressure_spins) {
          snd.bp_forced.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        std::this_thread::yield();
      }
    }
  }
  tgt.inbox.push(std::move(env));
}

// ---------------------------------------------------------------------------
// Poll path: drain → age → release (FIFO per source) → execute
// ---------------------------------------------------------------------------

std::size_t engine::poll(runtime& rt, int me) {
  rank_state& mine = st(me);

  // Phase 1: drain arrivals into the per-source hold queues. A fresh local
  // buffer keeps this safe under nested polls from AM handlers.
  if (mine.inbox.maybe_nonempty()) {
    std::vector<envelope> arrived;
    mine.inbox.drain_into(arrived);
    for (auto& env : arrived) {
      env.arrival_seq = mine.next_arrival_seq++;
      mine.held[static_cast<std::size_t>(env.msg.source())].push_back(
          std::move(env));
      ++mine.held_count;
    }
  }
  if (mine.held_count == 0) return 0;

  // Phase 2: release every source's front-run of hold==0 messages. Held
  // messages block everything behind them from the same source (FIFO);
  // cross-source reordering emerges from differing holds and, in reorder
  // mode, from the randomized merge below.
  std::vector<envelope> ready;
  auto source_ready = [&](std::size_t s) {
    return !mine.held[s].empty() && mine.held[s].front().hold_polls == 0;
  };
  const std::size_t nsrc = mine.held.size();
  while (true) {
    // Arrival-order pick: the ready front with the smallest arrival_seq.
    std::size_t oldest = nsrc;
    for (std::size_t s = 0; s < nsrc; ++s) {
      if (source_ready(s) &&
          (oldest == nsrc || mine.held[s].front().arrival_seq <
                                 mine.held[oldest].front().arrival_seq)) {
        oldest = s;
      }
    }
    if (oldest == nsrc) break;
    std::size_t pick = oldest;
    if (cfg_.reorder) {
      // Randomized merge: choose uniformly among sources with a ready
      // front. Same-source order is untouched by construction.
      std::uint32_t nready = 0;
      for (std::size_t s = 0; s < nsrc; ++s)
        if (source_ready(s)) ++nready;
      std::uint32_t k = mine.recv_stream.below(nready);
      for (std::size_t s = 0; s < nsrc; ++s) {
        if (!source_ready(s)) continue;
        if (k == 0) {
          pick = s;
          break;
        }
        --k;
      }
      if (pick != oldest) {
        mine.reordered.fetch_add(1, std::memory_order_relaxed);
        telemetry::count(telemetry::counter::perturb_reordered);
      }
    }
    ready.push_back(std::move(mine.held[pick].front()));
    mine.held[pick].pop_front();
    --mine.held_count;
  }

  // Phase 3: age the survivors — each poll a held message skips brings it
  // one closer to delivery. Ageing after release means hold==k survives
  // exactly k polls beyond its arrival poll.
  for (auto& q : mine.held)
    for (auto& env : q)
      if (env.hold_polls != 0) --env.hold_polls;

  // Phase 4: execute. Handlers may send AMs and trigger nested polls; all
  // state they can touch (inbox, held) is consistent at this point, and
  // `ready` is ours alone.
  for (auto& env : ready) env.msg.execute(rt, me);
  return ready.size();
}

bool engine::force_async(int rank) noexcept {
  if (cfg_.forced_async_percent == 0) return false;
  rank_state& mine = st(rank);
  mine.stream_mu.lock();
  const bool forced = mine.op_stream.percent(cfg_.forced_async_percent);
  mine.stream_mu.unlock();
  if (!forced) return false;
  mine.forced_async.fetch_add(1, std::memory_order_relaxed);
  telemetry::count(telemetry::counter::perturb_forced_async);
  return true;
}

bool engine::has_pending(int me) const noexcept {
  const rank_state& mine = st(me);
  return mine.inbox.maybe_nonempty() || mine.held_count != 0;
}

stats engine::totals() const noexcept {
  stats t;
  for (const auto& r : ranks_) {
    t.sent += r->sent.load(std::memory_order_relaxed);
    t.delayed += r->delayed.load(std::memory_order_relaxed);
    t.hold_polls += r->hold_polls_assigned.load(std::memory_order_relaxed);
    t.reordered += r->reordered.load(std::memory_order_relaxed);
    t.forced_async += r->forced_async.load(std::memory_order_relaxed);
    t.backpressure_waits += r->bp_waits.load(std::memory_order_relaxed);
    t.backpressure_forced += r->bp_forced.load(std::memory_order_relaxed);
  }
  return t;
}

}  // namespace aspen::gex::perturb
