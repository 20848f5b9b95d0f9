// Injection-time completion processing — where eager notification happens.
//
// Communication operations call into this engine with their completion list
// and a flag saying whether the data movement completed synchronously. For
// each requested notification the engine either
//
//   (a) SYNC + eager permitted:  deliver right now — return a ready future
//       (pooled when value-less), skip promise modifications entirely for
//       value-less promises, run LPCs inline; or
//   (b) SYNC + deferred:  perform the legacy machinery the paper measures —
//       heap-allocate an internal cell (futures) or bump the promise
//       counter, and enqueue the notification on the progress queue; or
//   (c) ASYNC (remote transfer): wire the notification into a heap-allocated
//       operation record that the reply handler fulfills during a later
//       progress-engine entry (deferred by nature).
//
// Source completion is synchronous at injection on this substrate (payloads
// are copied into the message before the initiating call returns), so
// source-event items always take path (a)/(b).
#pragma once

#include <tuple>
#include <type_traits>
#include <utility>

#include "core/completion.hpp"
#include "core/future.hpp"
#include "core/inplace_function.hpp"
#include "core/otrace.hpp"
#include "core/persona.hpp"
#include "core/telemetry.hpp"
#include "core/when_all.hpp"

namespace aspen::detail {

[[nodiscard]] inline bool resolve_eager(eagerness e) noexcept {
  switch (e) {
    case eagerness::eager:
      return true;
    case eagerness::defer:
      return false;
    case eagerness::dflt:
      break;
  }
  return have_ctx() ? ctx().ver.eager_default : true;
}

// ---------------------------------------------------------------------------
// Return-type computation
// ---------------------------------------------------------------------------

template <typename Item, typename... V>
struct item_futs {
  using type = std::tuple<>;  // promise/lpc/rpc items yield no return future
};
template <typename... V>
struct item_futs<future_cx<event_operation_t>, V...> {
  using type = std::tuple<future<V...>>;
};
template <typename... V>
struct item_futs<future_cx<event_source_t>, V...> {
  using type = std::tuple<future<>>;
};

template <typename FutsTuple>
struct collapse_type {
  using type = FutsTuple;  // two or more futures: the tuple itself
};
template <>
struct collapse_type<std::tuple<>> {
  using type = void;
};
template <typename F>
struct collapse_type<std::tuple<F>> {
  using type = F;
};

template <typename Cxs, typename... V>
struct cx_return;
template <typename... Items, typename... V>
struct cx_return<completions<Items...>, V...> {
  using futs_tuple = decltype(std::tuple_cat(
      std::declval<typename item_futs<Items, V...>::type>()...));
  using type = typename collapse_type<futs_tuple>::type;
};

template <typename Cxs, typename... V>
using cx_return_t = typename cx_return<std::decay_t<Cxs>, V...>::type;

template <typename FutsTuple>
decltype(auto) collapse_futs(FutsTuple&& t) {
  constexpr std::size_t n = std::tuple_size_v<std::decay_t<FutsTuple>>;
  if constexpr (n == 0) {
    return;
  } else if constexpr (n == 1) {
    return std::get<0>(std::forward<FutsTuple>(t));
  } else {
    return std::forward<FutsTuple>(t);
  }
}

// ---------------------------------------------------------------------------
// Deferred-notification helpers (the machinery eager completion bypasses)
// ---------------------------------------------------------------------------

/// Allocate a cell holding `vals`, enqueue its readying on the *initiating
/// persona's* deferred queue, and return a future for it. This is the
/// legacy per-operation cost: one heap allocation plus a queue round trip.
/// The notification executes only when a thread holding that persona next
/// enters the progress engine — under multithreaded injection, that is the
/// injecting worker's own thread, never a sibling's.
template <typename... V>
[[nodiscard]] future<V...> deferred_future(V... vals) {
  telemetry::count(telemetry::counter::cx_deferred_queued);
  auto* c = new cell<V...>();
  c->deps = 1;
  c->set_value(vals...);
  c->add_ref();  // the queue's reference
  current_persona().enqueue_deferred([c, oc = telemetry::op_capture{}] {
    oc.fulfill_deferred();
    c->satisfy(1);
    c->drop_ref();
  });
  return future<V...>(c, /*add_ref=*/false);
}

/// Enqueue fulfillment of one (already-required) promise dependency on the
/// initiating persona.
template <typename... T, typename... V>
void deferred_promise_fulfill(promise<T...>& p, V... vals) {
  telemetry::count(telemetry::counter::cx_deferred_queued);
  cell<T...>* c = p.raw_cell();
  c->add_ref();
  current_persona().enqueue_deferred(
      [c, vals..., oc = telemetry::op_capture{}] {
        oc.fulfill_deferred();
        if constexpr (sizeof...(V) > 0) c->set_value(vals...);
        c->satisfy(1);
        c->drop_ref();
      });
}

// ---------------------------------------------------------------------------
// Synchronous-completion handlers (one per item kind/event)
// ---------------------------------------------------------------------------

// future_cx, operation event: carries the values.
template <typename... V, typename RemoteSend>
std::tuple<future<V...>> handle_sync(future_cx<event_operation_t>& it,
                                     RemoteSend&, V... vals) {
  if (resolve_eager(it.e)) {
    telemetry::fulfill_eager();
    if constexpr (sizeof...(V) == 0) {
      return {make_future()};
    } else {
      return {make_future(vals...)};
    }
  }
  return {deferred_future<V...>(vals...)};
}

// future_cx, source event: value-less.
template <typename... V, typename RemoteSend>
std::tuple<future<>> handle_sync(future_cx<event_source_t>& it, RemoteSend&,
                                 V...) {
  if (resolve_eager(it.e)) {
    telemetry::fulfill_eager();
    return {make_future()};
  }
  return {deferred_future<>()};
}

// promise_cx, operation event.
template <typename... V, typename... T, typename RemoteSend>
std::tuple<> handle_sync(promise_cx<event_operation_t, T...>& it, RemoteSend&,
                         V... vals) {
  static_assert(std::is_same_v<std::tuple<T...>, std::tuple<V...>>,
                "operation_cx::as_promise: promise type must match the "
                "operation's produced values");
  if constexpr (sizeof...(V) == 0) {
    if (resolve_eager(it.e)) {
      telemetry::fulfill_eager();
      return {};  // full elision (paper §III-A)
    }
    it.pro.require_anonymous(1);
    deferred_promise_fulfill(it.pro);
  } else {
    it.pro.require_anonymous(1);
    if (resolve_eager(it.e)) {
      telemetry::fulfill_eager();
      it.pro.fulfill_result(vals...);
      it.pro.fulfill_anonymous(1);
    } else {
      deferred_promise_fulfill(it.pro, vals...);
    }
  }
  return {};
}

// promise_cx, source event: value-less.
template <typename... V, typename RemoteSend>
std::tuple<> handle_sync(promise_cx<event_source_t>& it, RemoteSend&, V...) {
  if (resolve_eager(it.e)) {
    telemetry::fulfill_eager();
    return {};
  }
  it.pro.require_anonymous(1);
  deferred_promise_fulfill(it.pro);
  return {};
}

// lpc_cx, operation event: receives the values.
template <typename... V, typename Fn, typename RemoteSend>
std::tuple<> handle_sync(lpc_cx<event_operation_t, Fn>& it, RemoteSend&,
                         V... vals) {
  if (resolve_eager(it.e)) {
    telemetry::fulfill_eager();
    it.fn(vals...);
  } else {
    telemetry::count(telemetry::counter::cx_deferred_queued);
    current_persona().enqueue_deferred(
        [fn = std::move(it.fn), vals...,
         oc = telemetry::op_capture{}]() mutable {
          oc.fulfill_deferred();
          fn(vals...);
        });
  }
  return {};
}

// lpc_cx, source event.
template <typename... V, typename Fn, typename RemoteSend>
std::tuple<> handle_sync(lpc_cx<event_source_t, Fn>& it, RemoteSend&, V...) {
  if (resolve_eager(it.e)) {
    telemetry::fulfill_eager();
    it.fn();
  } else {
    telemetry::count(telemetry::counter::cx_deferred_queued);
    current_persona().enqueue_deferred(
        [fn = std::move(it.fn), oc = telemetry::op_capture{}]() mutable {
          oc.fulfill_deferred();
          fn();
        });
  }
  return {};
}

// rpc_cx: delegated to the operation's remote sender.
template <typename... V, typename Fn, typename... Args, typename RemoteSend>
std::tuple<> handle_sync(rpc_cx<Fn, Args...>& it, RemoteSend& rsend, V...) {
  rsend(it);
  return {};
}

/// Process all completions of an operation whose data movement completed
/// synchronously; returns the (possibly empty) tuple of requested futures.
/// `rsend(rpc_item)` dispatches remote-completion RPCs.
template <typename... V, typename Cxs, typename RemoteSend>
auto process_sync_tuple(Cxs&& cxs, RemoteSend&& rsend, V... vals) {
  return std::apply(
      [&](auto&... item) {
        return std::tuple_cat(handle_sync<V...>(item, rsend, vals...)...);
      },
      cxs.items);
}

/// As process_sync_tuple, collapsed to the operation's public return shape
/// (void / single future / tuple).
template <typename... V, typename Cxs, typename RemoteSend>
auto process_sync(Cxs&& cxs, RemoteSend&& rsend, V... vals)
    -> cx_return_t<Cxs, V...> {
  return collapse_futs(
      process_sync_tuple<V...>(std::forward<Cxs>(cxs), rsend, vals...));
}

// ---------------------------------------------------------------------------
// Asynchronous (remote) path
// ---------------------------------------------------------------------------

/// Heap record tracking one in-flight remote operation's operation-event
/// sinks. Fulfilled (with the produced values) by the reply handler, which
/// runs on whichever thread holds the rank's master persona. The record is
/// bound to the *initiating* persona at creation: if the fulfilling thread
/// holds it (the single-threaded case), the sinks run inline during its
/// progress entry; otherwise they are routed to the initiator's mailbox as
/// a cross-thread LPC, so the cells and promises they touch are only ever
/// mutated by the thread holding the initiating persona.
template <typename... V>
struct op_record {
  inplace_function<void(V...), 64> complete;
  persona* initiator = nullptr;
  /// Issuing op's record (class, issue time, trace id), captured at
  /// construction inside the initiating call's op_scope, so the reply-side
  /// fulfillment rejoins the op's latency stream and causal chain. A
  /// remote op's notification is deferred by nature.
  telemetry::op_capture issued;
  std::uint64_t wd_id = 0;  ///< stall-watchdog handle (0 = untracked)

  void add_sink(inplace_function<void(V...), 64> sink) {
    if (!complete) {
      complete = std::move(sink);
    } else {
      complete = [prev = std::move(complete),
                  s = std::move(sink)](V... vs) mutable {
        prev(vs...);
        s(vs...);
      };
    }
  }

  void fulfill(V... vs) {
    // The op is no longer pending the moment the reply reaches us, even if
    // the notification still routes to another thread's mailbox below.
    telemetry::watchdog::complete_op(wd_id);
    if (initiator == nullptr || initiator->active_with_caller()) {
      issued.fulfill_deferred();
      if (complete) complete(vs...);
      delete this;
      return;
    }
    otrace::note_id(issued.trace, otrace::stage::lpc_hop);
    initiator->lpc_ff([this, vs...] {
      issued.fulfill_deferred();
      if (complete) complete(vs...);
      delete this;
    });
  }
};

// future_cx, operation event, async: allocate the cell now, fulfill later.
template <typename... V, typename RemoteSend>
std::tuple<future<V...>> handle_async(future_cx<event_operation_t>&,
                                      op_record<V...>& rec, RemoteSend&) {
  telemetry::count(telemetry::counter::cx_remote_async);
  auto* c = new cell<V...>();
  c->deps = 1;
  c->add_ref();  // the record's reference
  rec.add_sink([c](V... vs) {
    c->set_value(vs...);
    c->satisfy(1);
    c->drop_ref();
  });
  return {future<V...>(c, /*add_ref=*/false)};
}

// future_cx, source event: synchronous even on the async path (the payload
// was copied out of the source buffer during injection).
template <typename... V, typename RemoteSend>
std::tuple<future<>> handle_async(future_cx<event_source_t>& it,
                                  op_record<V...>&, RemoteSend&) {
  if (resolve_eager(it.e)) {
    telemetry::fulfill_eager();
    return {make_future()};
  }
  return {deferred_future<>()};
}

template <typename... V, typename... T, typename RemoteSend>
std::tuple<> handle_async(promise_cx<event_operation_t, T...>& it,
                          op_record<V...>& rec, RemoteSend&) {
  static_assert(std::is_same_v<std::tuple<T...>, std::tuple<V...>>,
                "operation_cx::as_promise: promise type must match the "
                "operation's produced values");
  telemetry::count(telemetry::counter::cx_remote_async);
  it.pro.require_anonymous(1);
  rec.add_sink([p = it.pro](V... vs) mutable {
    if constexpr (sizeof...(V) > 0) p.fulfill_result(vs...);
    p.fulfill_anonymous(1);
  });
  return {};
}

template <typename... V, typename RemoteSend>
std::tuple<> handle_async(promise_cx<event_source_t>& it, op_record<V...>&,
                          RemoteSend&) {
  if (resolve_eager(it.e)) {
    telemetry::fulfill_eager();
    return {};
  }
  it.pro.require_anonymous(1);
  deferred_promise_fulfill(it.pro);
  return {};
}

template <typename... V, typename Fn, typename RemoteSend>
std::tuple<> handle_async(lpc_cx<event_operation_t, Fn>& it,
                          op_record<V...>& rec, RemoteSend&) {
  telemetry::count(telemetry::counter::cx_remote_async);
  rec.add_sink([fn = std::move(it.fn)](V... vs) mutable { fn(vs...); });
  return {};
}

template <typename... V, typename Fn, typename RemoteSend>
std::tuple<> handle_async(lpc_cx<event_source_t, Fn>& it, op_record<V...>&,
                          RemoteSend&) {
  if (resolve_eager(it.e)) {
    telemetry::fulfill_eager();
    it.fn();
  } else {
    telemetry::count(telemetry::counter::cx_deferred_queued);
    current_persona().enqueue_deferred(
        [fn = std::move(it.fn), oc = telemetry::op_capture{}]() mutable {
          oc.fulfill_deferred();
          fn();
        });
  }
  return {};
}

template <typename... V, typename Fn, typename... Args, typename RemoteSend>
std::tuple<> handle_async(rpc_cx<Fn, Args...>& it, op_record<V...>&,
                          RemoteSend& rsend) {
  rsend(it);
  return {};
}

/// Process all completions of an operation that will complete
/// asynchronously; returns the tuple of requested futures and sets
/// `rec_out`. The caller launches the transfer and arranges for
/// `rec_out->fulfill(values...)` to run on the initiator during progress.
template <typename... V, typename Cxs, typename RemoteSend>
auto process_async_tuple(Cxs&& cxs, RemoteSend&& rsend,
                         op_record<V...>*& rec_out) {
  auto* rec = new op_record<V...>();
  rec->initiator = &current_persona();
  rec->wd_id = rec->issued.track();
  rec_out = rec;
  return std::apply(
      [&](auto&... item) {
        return std::tuple_cat(handle_async<V...>(item, *rec, rsend)...);
      },
      cxs.items);
}

/// A remote sender for operations that do not support remote completion
/// (gets, atomics): requesting remote_cx on them is a compile error.
struct no_remote_cx {
  template <typename Fn, typename... Args>
  void operator()(rpc_cx<Fn, Args...>&) const {
    static_assert(sizeof(Fn) == 0,
                  "remote_cx::as_rpc is only supported on rput");
  }
};

}  // namespace aspen::detail
