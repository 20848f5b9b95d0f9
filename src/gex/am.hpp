// Active messages: the substrate's inter-rank transport.
//
// An active message is a handler function pointer plus a payload of bytes,
// delivered to a target rank's inbox and executed by that rank's thread the
// next time it polls (i.e. inside the ASPEN progress engine). This mirrors
// GASNet-EX AM semantics: handlers run at the target during entry to the
// communication library, never asynchronously.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>

#include "core/otrace.hpp"

namespace aspen::gex {

class runtime;

/// Handler executed on the *target* rank's thread during poll().
/// `src` is the sending rank; the payload is owned by the message and valid
/// for the duration of the call. Handlers may send further AMs (e.g.
/// replies) but must not block.
using am_handler = void (*)(runtime& rt, int me, int src, std::byte* payload,
                            std::size_t len);

/// One active message. Payloads up to kInlineBytes are stored inline (no
/// heap traffic for typical request/reply metadata); larger payloads spill
/// to a heap buffer.
class am_message {
 public:
  static constexpr std::size_t kInlineBytes = 104;

  am_message() = default;

  // GCC 12's -Warray-bounds mis-ranges these copies at -O3 when this
  // constructor is inlined into callers with small serialization buffers
  // (it conflates the branch bounds); `len` always equals the payload's
  // true size.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
#pragma GCC diagnostic ignored "-Wstringop-overread"
#endif
  am_message(am_handler h, int src, const void* payload, std::size_t len)
      : handler_(h), src_(src), len_(static_cast<std::uint32_t>(len)) {
    if (len <= kInlineBytes) {
      if (len != 0) std::memcpy(inline_buf_, payload, len);
    } else {
      overflow_ = std::make_unique<std::byte[]>(len);
      std::memcpy(overflow_.get(), payload, len);
    }
  }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

  /// Construct with an uninitialized payload of `len` bytes; the caller
  /// fills `payload()` before sending. Avoids a staging copy for builders.
  am_message(am_handler h, int src, std::size_t len)
      : handler_(h), src_(src), len_(static_cast<std::uint32_t>(len)) {
    if (len > kInlineBytes) overflow_ = std::make_unique<std::byte[]>(len);
  }

  am_message(am_message&&) noexcept = default;
  am_message& operator=(am_message&&) noexcept = default;
  am_message(const am_message&) = delete;
  am_message& operator=(const am_message&) = delete;

  [[nodiscard]] std::byte* payload() noexcept {
    return overflow_ ? overflow_.get() : inline_buf_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return len_; }
  [[nodiscard]] int source() const noexcept { return src_; }
  /// The target-side handler; exposed so the socket conduit (src/net/) can
  /// encode it on the wire as an offset from the process text anchor.
  [[nodiscard]] am_handler handler() const noexcept { return handler_; }

  /// otrace trace id carried with the message (0 = the originating op was
  /// not sampled). Stamped by runtime::send_am from the sender's ambient
  /// trace, restored by conduits that deserialize from the wire.
  [[nodiscard]] std::uint64_t trace() const noexcept { return trace_; }
  void set_trace(std::uint64_t id) noexcept { trace_ = id; }

  void execute(runtime& rt, int me) {
    if (trace_ != 0) {
      // Run the handler under the message's trace so any AMs it sends
      // (e.g. the rpc reply) inherit the causal chain.
      otrace::scope ts(trace_);
      otrace::note_id(trace_, otrace::stage::handler_run);
      handler_(rt, me, src_, payload(), len_);
      return;
    }
    handler_(rt, me, src_, payload(), len_);
  }

 private:
  am_handler handler_ = nullptr;
  int src_ = -1;
  std::uint32_t len_ = 0;
  std::uint64_t trace_ = 0;
  std::byte inline_buf_[kInlineBytes];
  std::unique_ptr<std::byte[]> overflow_;
};

}  // namespace aspen::gex
