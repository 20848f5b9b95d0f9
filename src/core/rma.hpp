// One-sided remote memory access: rput / rget, scalar and bulk, with full
// completion support.
//
// Local (shared-memory-bypass) transfers complete synchronously during
// initiation; their notifications go through cx_state::process_sync_tuple,
// where eager completion applies. Transfers to ranks outside the caller's
// node (loopback conduit with a split locality model) take an
// active-message round trip; their operation completions are always
// deferred.
//
// Version emulation hooks (paper §IV-A):
//   - version_config::extra_rma_alloc reproduces the 2021.3.0 extra heap
//     allocation per directly-addressable RMA;
//   - version_config::dynamic_is_local reproduces the 2021.3.0 dynamic
//     locality check on the SMP conduit.
#pragma once

#include <cstring>

#include "core/cx_state.hpp"
#include "core/global_ptr.hpp"
#include "core/rpc.hpp"

namespace aspen {

/// RMA transfers operate on trivially copyable objects.
template <typename T>
concept rma_type = std::is_trivially_copyable_v<T>;

namespace detail {

/// Compiler barrier so the emulated legacy allocation cannot be elided.
inline void escape(void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  asm volatile("" : : "g"(p) : "memory");
#else
  volatile void* sink = p;
  (void)sink;
#endif
}

/// The internal descriptor UPC++ 2021.3.0 heap-allocated for every RMA on a
/// directly-addressable global pointer (eliminated in the 2021.3.6
/// snapshot). Size mimics a small completion descriptor.
struct legacy_rma_descriptor {
  void* self;
  std::uint64_t state[5];
};

inline void legacy_extra_alloc_if_configured(const rank_context& c) {
  if (c.ver.extra_rma_alloc) {
    auto* d = new legacy_rma_descriptor;
    d->self = d;
    escape(d);
    delete d;
  }
}

/// The locality branch inside every RMA call (redundant with user-level
/// is_local checks — paper §II-C). On the SMP conduit with 2021.3.6
/// semantics the check is resolved statically. The perturbed conduit may
/// divert a shareable target down the AM path anyway (forced-async mode):
/// eager completion must degrade to the deferred remote machinery with no
/// observable difference, which is exactly what the seed-sweep harness
/// asserts.
[[nodiscard]] inline bool rma_target_local(const rank_context& c,
                                           int target) noexcept {
  if (!c.ver.dynamic_is_local &&
      c.rt->cfg().transport == gex::conduit::smp) {
    return true;
  }
  if (!c.rt->shares_memory(c.rank, target)) return false;
  return !c.rt->perturb_force_async(c.rank);
}

// --------------------------------------------------------------------------
// Active-message protocol
//
// Requests carry the reply handler to invoke, so one generic request
// handler serves every typed operation. Reply payload layout is uniform:
// [u64 record][u64 extra][data bytes].
// --------------------------------------------------------------------------

inline void send_rma_reply(rank_context& c, int initiator,
                           gex::am_handler reply_h, std::uint64_t rec,
                           std::uint64_t extra, const void* data,
                           std::size_t nbytes) {
  ser_writer w(2 * sizeof(std::uint64_t) + nbytes);
  w.write(rec);
  w.write(extra);
  if (nbytes != 0) w.write_bytes(data, nbytes);
  c.rt->send_am(initiator,
                gex::am_message(reply_h, c.rank, w.data(), w.size()));
}

/// Reply for a put: value-less acknowledgment.
inline void rma_put_reply_handler(gex::runtime&, int, int, std::byte* p,
                                  std::size_t len) {
  ser_reader r(p, len);
  auto* rec = reinterpret_cast<op_record<>*>(r.read<std::uint64_t>());
  (void)r.read<std::uint64_t>();  // extra, unused
  rec->fulfill();
}

/// Reply for a scalar get: delivers the value to the record.
template <rma_type T>
void rma_get_reply_handler(gex::runtime&, int, int, std::byte* p,
                           std::size_t len) {
  ser_reader r(p, len);
  auto* rec = reinterpret_cast<op_record<T>*>(r.read<std::uint64_t>());
  (void)r.read<std::uint64_t>();  // extra, unused
  rec->fulfill(r.read<T>());
}

/// Reply for a bulk get: copies the data into the initiator-local buffer
/// named by `extra`, then fulfills the value-less record.
inline void rma_get_bulk_reply_handler(gex::runtime&, int, int, std::byte* p,
                                       std::size_t len) {
  ser_reader r(p, len);
  auto* rec = reinterpret_cast<op_record<>*>(r.read<std::uint64_t>());
  auto* dest = reinterpret_cast<std::byte*>(r.read<std::uint64_t>());
  const std::size_t n = r.remaining();
  r.read_bytes(dest, n);
  rec->fulfill();
}

/// Request: [u64 reply_h][u64 rec][u64 dest][u64 nbytes][bytes] — apply the
/// put at the target, acknowledge.
inline void rma_put_request_handler(gex::runtime&, int /*me*/, int src,
                                    std::byte* p, std::size_t len) {
  ser_reader r(p, len);
  auto reply_h = reinterpret_cast<gex::am_handler>(r.read<std::uint64_t>());
  const auto rec = r.read<std::uint64_t>();
  auto* dest = reinterpret_cast<std::byte*>(r.read<std::uint64_t>());
  const auto nbytes = r.read<std::uint64_t>();
  r.read_bytes(dest, nbytes);
  send_rma_reply(ctx(), src, reply_h, rec, 0, nullptr, 0);
}

/// Request: [u64 reply_h][u64 rec][u64 src_addr][u64 nbytes][u64 extra] —
/// read the data at the target and ship it back (extra is echoed; bulk gets
/// use it to carry the destination buffer address).
inline void rma_get_request_handler(gex::runtime&, int /*me*/, int src,
                                    std::byte* p, std::size_t len) {
  ser_reader r(p, len);
  auto reply_h = reinterpret_cast<gex::am_handler>(r.read<std::uint64_t>());
  const auto rec = r.read<std::uint64_t>();
  auto* addr = reinterpret_cast<const std::byte*>(r.read<std::uint64_t>());
  const auto nbytes = r.read<std::uint64_t>();
  const auto extra = r.read<std::uint64_t>();
  send_rma_reply(ctx(), src, reply_h, rec, extra, addr, nbytes);
}

/// Buffers the remote-completion RPC during async injection so it can be
/// dispatched *after* the data-transfer request (AM FIFO ordering then
/// guarantees it runs after data arrival at the target).
struct buffered_remote_sender {
  int target;
  inplace_function<void(), 128> pending;

  template <typename Fn, typename... Args>
  void operator()(rpc_cx<Fn, Args...>& item) {
    assert(!pending && "at most one remote_cx per operation");
    pending = [t = target, fn = item.fn, args = std::move(item.args)] {
      send_rpc_ff_tuple(t, fn, args);
    };
  }

  void flush() {
    if (pending) pending();
  }
};

/// Immediate remote sender for the synchronous (local-bypass) path: the
/// data is already in place, so the RPC can be dispatched at once. The
/// callback still runs inside the target's progress engine (or the
/// caller's, if targeting itself), never synchronously.
struct immediate_remote_sender {
  int target;

  template <typename Fn, typename... Args>
  void operator()(rpc_cx<Fn, Args...>& item) {
    send_rpc_ff_tuple(target, item.fn, item.args);
  }
};

/// Shared implementation of scalar/bulk put.
template <typename Cxs>
auto rma_put_bytes(int target, void* dest_raw, const void* src,
                   std::size_t nbytes, Cxs&& cxs) -> cx_return_t<Cxs> {
  telemetry::op_scope os(telemetry::op_class::rma_put);
  rank_context& c = ctx();
  if (rma_target_local(c, target)) {
    telemetry::count(telemetry::counter::rma_put_local);
    legacy_extra_alloc_if_configured(c);
    std::memcpy(dest_raw, src, nbytes);
    std::atomic_thread_fence(std::memory_order_release);
    immediate_remote_sender rs{target};
    return collapse_futs(process_sync_tuple<>(std::forward<Cxs>(cxs), rs));
  }
  telemetry::count(telemetry::counter::rma_put_remote);
  buffered_remote_sender rs{target, {}};
  op_record<>* rec = nullptr;
  auto futs = process_async_tuple<>(std::forward<Cxs>(cxs), rs, rec);
  ser_writer w(4 * sizeof(std::uint64_t) + nbytes);
  w.write(reinterpret_cast<std::uint64_t>(&rma_put_reply_handler));
  w.write(reinterpret_cast<std::uint64_t>(rec));
  w.write(reinterpret_cast<std::uint64_t>(dest_raw));
  w.write(static_cast<std::uint64_t>(nbytes));
  w.write_bytes(src, nbytes);
  c.rt->send_am(target, gex::am_message(&rma_put_request_handler, c.rank,
                                        w.data(), w.size()));
  rs.flush();
  return collapse_futs(std::move(futs));
}

}  // namespace detail

/// Write `value` to `dest`. Default completion: an operation future.
template <rma_type T,
          typename Cxs = detail::completions<
              detail::future_cx<detail::event_operation_t>>>
auto rput(T value, global_ptr<T> dest, Cxs cxs = operation_cx::as_future())
    -> detail::cx_return_t<Cxs> {
  return detail::rma_put_bytes(dest.where(), dest.raw(), &value, sizeof(T),
                               std::move(cxs));
}

/// Bulk put: write `n` objects from `src` to `dest`. Supports source,
/// operation and remote completion.
template <rma_type T,
          typename Cxs = detail::completions<
              detail::future_cx<detail::event_operation_t>>>
auto rput(const T* src, global_ptr<T> dest, std::size_t n,
          Cxs cxs = operation_cx::as_future()) -> detail::cx_return_t<Cxs> {
  return detail::rma_put_bytes(dest.where(), dest.raw(), src, n * sizeof(T),
                               std::move(cxs));
}

/// Read one T from `src`; the operation completion carries the value.
template <rma_type T,
          typename Cxs = detail::completions<
              detail::future_cx<detail::event_operation_t>>>
auto rget(global_ptr<T> src, Cxs cxs = operation_cx::as_future())
    -> detail::cx_return_t<Cxs, T> {
  telemetry::op_scope os(telemetry::op_class::rma_get);
  detail::rank_context& c = detail::ctx();
  detail::no_remote_cx rs;
  if (detail::rma_target_local(c, src.where())) {
    telemetry::count(telemetry::counter::rma_get_local);
    detail::legacy_extra_alloc_if_configured(c);
    std::atomic_thread_fence(std::memory_order_acquire);
    T value;
    std::memcpy(&value, src.raw(), sizeof(T));
    return detail::collapse_futs(
        detail::process_sync_tuple<T>(std::move(cxs), rs, value));
  }
  telemetry::count(telemetry::counter::rma_get_remote);
  detail::op_record<T>* rec = nullptr;
  auto futs = detail::process_async_tuple<T>(std::move(cxs), rs, rec);
  ser_writer w(5 * sizeof(std::uint64_t));
  w.write(reinterpret_cast<std::uint64_t>(&detail::rma_get_reply_handler<T>));
  w.write(reinterpret_cast<std::uint64_t>(rec));
  w.write(reinterpret_cast<std::uint64_t>(src.raw()));
  w.write(static_cast<std::uint64_t>(sizeof(T)));
  w.write(std::uint64_t{0});
  c.rt->send_am(src.where(), gex::am_message(&detail::rma_get_request_handler,
                                             c.rank, w.data(), w.size()));
  return detail::collapse_futs(std::move(futs));
}

/// Bulk get: read `n` objects from `src` into the initiator-local buffer
/// `dest`. The operation completion is value-less (this is the idiom the
/// future-conjoining GUPS variant relies on — value-less futures conjoin in
/// a loop; value-carrying ones do not, paper §III-B).
template <rma_type T,
          typename Cxs = detail::completions<
              detail::future_cx<detail::event_operation_t>>>
auto rget(global_ptr<T> src, T* dest, std::size_t n,
          Cxs cxs = operation_cx::as_future()) -> detail::cx_return_t<Cxs> {
  telemetry::op_scope os(telemetry::op_class::rma_get);
  detail::rank_context& c = detail::ctx();
  detail::no_remote_cx rs;
  if (detail::rma_target_local(c, src.where())) {
    telemetry::count(telemetry::counter::rma_get_local);
    detail::legacy_extra_alloc_if_configured(c);
    std::atomic_thread_fence(std::memory_order_acquire);
    std::memcpy(dest, src.raw(), n * sizeof(T));
    return detail::collapse_futs(
        detail::process_sync_tuple<>(std::move(cxs), rs));
  }
  telemetry::count(telemetry::counter::rma_get_remote);
  detail::op_record<>* rec = nullptr;
  auto futs = detail::process_async_tuple<>(std::move(cxs), rs, rec);
  ser_writer w(5 * sizeof(std::uint64_t));
  w.write(reinterpret_cast<std::uint64_t>(&detail::rma_get_bulk_reply_handler));
  w.write(reinterpret_cast<std::uint64_t>(rec));
  w.write(reinterpret_cast<std::uint64_t>(src.raw()));
  w.write(static_cast<std::uint64_t>(n * sizeof(T)));
  w.write(reinterpret_cast<std::uint64_t>(dest));
  c.rt->send_am(src.where(), gex::am_message(&detail::rma_get_request_handler,
                                             c.rank, w.data(), w.size()));
  return detail::collapse_futs(std::move(futs));
}

}  // namespace aspen
