// when_all — conjoin futures (and plain values) into a single future whose
// readiness is the conjunction of its inputs and whose values are the
// concatenation of theirs.
//
// The general path materializes a dependency-graph node per call: one result
// cell plus one gather record plus one continuation per non-ready input —
// exactly the structure whose cost dominates the future-conjoining GUPS
// variants in the paper (Fig. 1).
//
// The optimized path (paper §III-C, enabled by version_config::when_all_opt)
// avoids all of that whenever the result is semantically equivalent to a
// single input:
//   - all inputs value-less and ready          -> return one of them;
//   - all inputs value-less, exactly one pending -> return the pending one;
//   - exactly one input carries values and every other input is ready
//                                              -> return the valued one.
#pragma once

#include <array>
#include <cstddef>
#include <tuple>

#include "core/future.hpp"

namespace aspen {

namespace detail {

template <typename X>
struct futurize {
  using type = future<std::decay_t<X>>;
};
template <typename... U>
struct futurize<future<U...>> {
  using type = future<U...>;
};
template <typename X>
using futurize_t = typename futurize<std::decay_t<X>>::type;

template <typename F>
struct future_arity;
template <typename... U>
struct future_arity<future<U...>>
    : std::integral_constant<std::size_t, sizeof...(U)> {};

[[nodiscard]] inline bool use_when_all_opt() noexcept {
  return have_ctx() ? ctx().ver.when_all_opt : true;
}

template <std::size_t N>
[[nodiscard]] constexpr std::size_t first_true(std::array<bool, N> flags) {
  for (std::size_t i = 0; i < N; ++i)
    if (flags[i]) return i;
  return N;
}

template <std::size_t N>
[[nodiscard]] constexpr std::size_t count_true(std::array<bool, N> flags) {
  std::size_t c = 0;
  for (bool b : flags) c += b ? 1 : 0;
  return c;
}

/// Heap record for the general conjoining path. Owns copies of all input
/// futures (keeping their values alive), a reference on the result cell,
/// and a countdown of pending inputs.
template <typename RCell, typename FutTuple>
struct gather_node {
  FutTuple inputs;
  RCell* rc;  // holds one reference
  std::size_t remaining;
  std::uint64_t issue_ns = 0;  // when_all() call time if timed, else 0

  gather_node(FutTuple in, RCell* r, std::size_t rem)
      : inputs(std::move(in)), rc(r), remaining(rem) {
    rc->add_ref();
  }

  void arrived() {
    if (--remaining == 0) finish();
  }

  void finish() {
    rc->set_value_tuple(std::apply(
        [](const auto&... f) { return std::tuple_cat(f.result_tuple()...); },
        inputs));
    rc->satisfy(1);
    rc->drop_ref();
    telemetry::note_latency_since(telemetry::lat_stream::whenall_deferred,
                                  issue_ns);
    delete this;
  }
};

template <typename Node>
struct gather_cont final : continuation {
  Node* node;
  explicit gather_cont(Node* n) noexcept : node(n) {}
  void fire(cell_base* /*src*/) override { node->arrived(); }
  // If the input cell is destroyed without ever readying, the conjunction
  // is abandoned; the node (and result cell) are unreachable and leak, as
  // does an unfulfilled promise in UPC++. Tests never abandon inputs.
};

}  // namespace detail

/// Conjoin any number of futures and/or plain values (lifted via to_future)
/// into future<concatenated values...>.
template <typename... Args>
auto when_all(Args&&... args) {
  using RFut = detail::future_cat_t<detail::futurize_t<Args>...>;
  constexpr std::size_t n = sizeof...(Args);

  if constexpr (n == 0) {
    return make_future();
  } else {
    const std::uint64_t wa_issue = telemetry::sampled_issue_ns();
    auto inputs = std::make_tuple(to_future(std::forward<Args>(args))...);
    using FutTuple = decltype(inputs);
    constexpr std::array<bool, n> valued{
        (detail::future_arity<detail::futurize_t<Args>>::value > 0)...};
    constexpr std::size_t valued_count = detail::count_true(valued);

    if (detail::use_when_all_opt()) {
      if constexpr (valued_count == 0) {
        // All inputs are future<>; RFut is future<>.
        const future<>* pending = nullptr;
        std::size_t npend = 0;
        std::apply(
            [&](const auto&... f) {
              ((f.ready() ? void(0) : (pending = &f, ++npend, void(0))), ...);
            },
            inputs);
        if (npend == 0) {
          telemetry::count(telemetry::counter::whenall_all_ready);
          telemetry::note_latency_since(telemetry::lat_stream::whenall_eager,
                                        wa_issue);
          return RFut(std::get<0>(inputs));
        }
        if (npend == 1) {
          telemetry::count(telemetry::counter::whenall_one_pending);
          telemetry::note_latency_since(telemetry::lat_stream::whenall_eager,
                                        wa_issue);
          return RFut(*pending);
        }
      } else if constexpr (valued_count == 1) {
        // If every value-less input is already ready, the result is
        // semantically the single valued input.
        bool others_ready = true;
        std::size_t i = 0;
        std::apply(
            [&](const auto&... f) {
              ((others_ready = others_ready && (valued[i++] || f.ready())),
               ...);
            },
            inputs);
        if (others_ready) {
          telemetry::count(telemetry::counter::whenall_one_valued);
          telemetry::note_latency_since(telemetry::lat_stream::whenall_eager,
                                        wa_issue);
          constexpr std::size_t vi = detail::first_true(valued);
          return RFut(std::get<vi>(inputs));
        }
      }
    }

    // General path: build the dependency-graph node.
    telemetry::count(telemetry::counter::whenall_general);
    auto* rc = detail::make_pending_cell<RFut>();  // deps = 1 (the gather)
    std::size_t npend = 0;
    std::apply([&](const auto&... f) { ((npend += f.ready() ? 0 : 1), ...); },
               inputs);
    using Node = detail::gather_node<std::remove_pointer_t<decltype(rc)>, FutTuple>;
    auto* node = new Node(std::move(inputs), rc, npend);
    node->issue_ns = wa_issue;
    if (npend == 0) {
      node->finish();
    } else {
      std::apply(
          [&](const auto&... f) {
            ((f.ready()
                  ? void(0)
                  : f.raw_cell()->enqueue(new detail::gather_cont<Node>(node))),
             ...);
          },
          node->inputs);
    }
    return detail::wrap_cell_of<RFut>(rc, /*add_ref=*/false);
  }
}

}  // namespace aspen
