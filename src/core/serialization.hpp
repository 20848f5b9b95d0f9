// Byte-stream serialization for the active-message path (RPC arguments and
// results, dist_object fetches).
//
// Supported out of the box: trivially copyable types, std::string,
// std::vector<S>, std::pair, std::tuple, std::array of serializable types.
// User types can opt in by specializing aspen::serde<T>.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace aspen {

class ser_writer;
class ser_reader;

/// Customization point: specialize for user types.
///   static void write(ser_writer&, const T&);
///   static T read(ser_reader&);
template <typename T, typename Enable = void>
struct serde;

class ser_writer {
 public:
  ser_writer() = default;
  explicit ser_writer(std::size_t reserve_bytes) { buf_.reserve(reserve_bytes); }

  void write_bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::byte*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  template <typename T>
  void write(const T& v) {
    serde<std::decay_t<T>>::write(*this, v);
  }

  [[nodiscard]] const std::byte* data() const noexcept { return buf_.data(); }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] std::vector<std::byte> take() noexcept {
    return std::move(buf_);
  }

 private:
  std::vector<std::byte> buf_;
};

class ser_reader {
 public:
  ser_reader(const std::byte* p, std::size_t n) : p_(p), end_(p + n) {}

  void read_bytes(void* out, std::size_t n) {
    assert(p_ + n <= end_ && "serialization buffer underrun");
    if (n != 0) std::memcpy(out, p_, n);
    p_ += n;
  }

  template <typename T>
  [[nodiscard]] T read() {
    return serde<std::decay_t<T>>::read(*this);
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - p_);
  }

 private:
  const std::byte* p_;
  const std::byte* end_;
};

// --- trivially copyable types -------------------------------------------

template <typename T>
struct serde<T, std::enable_if_t<std::is_trivially_copyable_v<T>>> {
  static void write(ser_writer& w, const T& v) { w.write_bytes(&v, sizeof(T)); }
  static T read(ser_reader& r) {
    T v;
    r.read_bytes(&v, sizeof(T));
    return v;
  }
};

// --- std::string ----------------------------------------------------------

template <>
struct serde<std::string> {
  static void write(ser_writer& w, const std::string& s) {
    w.write(static_cast<std::uint64_t>(s.size()));
    w.write_bytes(s.data(), s.size());
  }
  static std::string read(ser_reader& r) {
    const auto n = r.read<std::uint64_t>();
    std::string s(n, '\0');
    r.read_bytes(s.data(), n);
    return s;
  }
};

// --- std::vector -----------------------------------------------------------

template <typename S>
struct serde<std::vector<S>, std::enable_if_t<!std::is_same_v<S, bool>>> {
  static void write(ser_writer& w, const std::vector<S>& v) {
    w.write(static_cast<std::uint64_t>(v.size()));
    if constexpr (std::is_trivially_copyable_v<S>) {
      w.write_bytes(v.data(), v.size() * sizeof(S));
    } else {
      for (const S& e : v) w.write(e);
    }
  }
  static std::vector<S> read(ser_reader& r) {
    const auto n = r.read<std::uint64_t>();
    std::vector<S> v;
    if constexpr (std::is_trivially_copyable_v<S>) {
      v.resize(n);
      r.read_bytes(v.data(), n * sizeof(S));
    } else {
      v.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) v.push_back(r.read<S>());
    }
    return v;
  }
};

// --- std::pair / std::tuple / std::array (of possibly non-trivial parts) ---

template <typename A, typename B>
struct serde<std::pair<A, B>,
             std::enable_if_t<!std::is_trivially_copyable_v<std::pair<A, B>>>> {
  static void write(ser_writer& w, const std::pair<A, B>& p) {
    w.write(p.first);
    w.write(p.second);
  }
  static std::pair<A, B> read(ser_reader& r) {
    A a = r.read<A>();
    B b = r.read<B>();
    return {std::move(a), std::move(b)};
  }
};

template <typename... Ts>
struct serde<std::tuple<Ts...>,
             std::enable_if_t<!std::is_trivially_copyable_v<std::tuple<Ts...>>>> {
  static void write(ser_writer& w, const std::tuple<Ts...>& t) {
    std::apply([&](const Ts&... e) { (w.write(e), ...); }, t);
  }
  static std::tuple<Ts...> read(ser_reader& r) {
    // Evaluation order of braced-init-list elements is left-to-right.
    return std::tuple<Ts...>{r.read<Ts>()...};
  }
};

template <typename S, std::size_t N>
struct serde<std::array<S, N>,
             std::enable_if_t<!std::is_trivially_copyable_v<std::array<S, N>>>> {
  static void write(ser_writer& w, const std::array<S, N>& a) {
    for (const S& e : a) w.write(e);
  }
  static std::array<S, N> read(ser_reader& r) {
    std::array<S, N> a;
    for (S& e : a) e = r.read<S>();
    return a;
  }
};

// --- concept ---------------------------------------------------------------

namespace detail {
template <typename T, typename = void>
struct is_serializable : std::false_type {};
template <typename T>
struct is_serializable<
    T, std::void_t<decltype(serde<std::decay_t<T>>::read(
           std::declval<ser_reader&>()))>> : std::true_type {};
}  // namespace detail

template <typename T>
concept serializable = detail::is_serializable<std::decay_t<T>>::value;

}  // namespace aspen
