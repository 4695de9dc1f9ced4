// The little-endian byte codec behind every persisted sweep format: the
// canonical RunConfig bytes (config_key.hpp), the RunResult codec
// (result_codec.hpp), the result-store file (result_store.cpp) and the
// frames of the remote worker protocol (frame_io.hpp, remote.cpp).
//
// One type-directed rule codes a value, and both directions share it:
//  - bool and enums travel as one byte;
//  - integers and doubles travel at their own width, little-endian
//    (doubles by IEEE bit pattern), so the bytes do not depend on the host;
//  - strings, vectors and maps carry a u32 element count, then the
//    elements; the reader rejects a count larger than the bytes left, so
//    a hostile length never becomes an allocation;
//  - any other type is a struct and goes through its field list, found by
//    argument-dependent lookup:
//      template <class Io> void fields(Io& io, T& t) { io(t.a, t.b); }
//    The list *is* the wire order; encoding and decoding both run it.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace sdrmpi::sweep {

/// Thrown by ByteReader (and the decoders built on it) on truncated or
/// malformed input. The ResultStore treats it as a torn tail record (stop
/// loading, truncate) rather than a fatal error.
struct CodecError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

namespace detail {
template <class T>
inline constexpr bool kIsSequence = false;
template <class C, class Tr, class A>
inline constexpr bool kIsSequence<std::basic_string<C, Tr, A>> = true;
template <class T, class A>
inline constexpr bool kIsSequence<std::vector<T, A>> = true;
template <class T>
inline constexpr bool kIsMap = false;
template <class K, class V, class C, class A>
inline constexpr bool kIsMap<std::map<K, V, C, A>> = true;
}  // namespace detail

/// The one rule. `Io` is ByteWriter or ByteReader; a writer only reads
/// `v`, a reader only assigns it.
template <class Io, class T>
void code(Io& io, T& v) {
  if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
    auto b = static_cast<std::uint8_t>(v);
    io.scalar(b);
    if constexpr (Io::kReads) v = static_cast<T>(b);
  } else if constexpr (std::is_arithmetic_v<T>) {
    io.scalar(v);
  } else if constexpr (detail::kIsSequence<T>) {
    using E = typename T::value_type;
    static_assert(!std::is_same_v<E, bool>, "vector<bool> has no data()");
    auto n = static_cast<std::uint32_t>(v.size());
    io.count(n);
    if constexpr (Io::kReads) v.resize(n);
    if constexpr (sizeof(E) == 1 && std::is_trivially_copyable_v<E>) {
      io.raw(v.data(), n);  // chars and bytes: one copy, same bytes
    } else {
      for (auto& e : v) code(io, e);
    }
  } else if constexpr (detail::kIsMap<T>) {
    auto n = static_cast<std::uint32_t>(v.size());
    io.count(n);
    if constexpr (Io::kReads) {
      v.clear();
      for (std::uint32_t i = 0; i < n; ++i) {
        typename T::key_type key{};
        typename T::mapped_type value{};
        code(io, key);
        code(io, value);
        v.emplace(std::move(key), std::move(value));
      }
    } else {
      for (auto& [key, value] : v) {
        code(io, const_cast<typename T::key_type&>(key));
        code(io, value);
      }
    }
  } else {
    fields(io, v);
  }
}

/// Append-only encoder: `w(a, b, ...)` appends each value by the rule.
class ByteWriter {
 public:
  static constexpr bool kReads = false;

  /// Field lists take mutable references so one list serves both
  /// directions; the writer never writes through them.
  template <class... Ts>
  void operator()(const Ts&... vs) {
    (code(*this, const_cast<Ts&>(vs)), ...);
  }

  /// `v` at its own width, little-endian; a double by its bit pattern.
  template <class T>
  void scalar(T v) {
    if constexpr (std::is_floating_point_v<T>) {
      scalar(std::bit_cast<std::uint64_t>(v));
    } else {
      const auto u = static_cast<std::make_unsigned_t<T>>(v);
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        bytes_.push_back(static_cast<std::byte>(u >> (8 * i)));
      }
    }
  }
  void count(std::uint32_t n) { scalar(n); }
  void raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::byte*>(data);
    bytes_.insert(bytes_.end(), p, p + n);
  }

  [[nodiscard]] const std::vector<std::byte>& bytes() const noexcept {
    return bytes_;
  }
  [[nodiscard]] std::vector<std::byte> take() noexcept {
    return std::move(bytes_);
  }

 private:
  std::vector<std::byte> bytes_;
};

/// Bounds-checked decoder over a borrowed byte span: `r(a, b, ...)`
/// assigns each value by the rule, or throws CodecError.
class ByteReader {
 public:
  static constexpr bool kReads = true;

  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  template <class... Ts>
  void operator()(Ts&... vs) {
    (code(*this, vs), ...);
  }

  template <class T>
  void scalar(T& v) {
    if constexpr (std::is_floating_point_v<T>) {
      std::uint64_t bits = 0;
      scalar(bits);
      v = std::bit_cast<T>(bits);
    } else {
      using U = std::make_unsigned_t<T>;
      const std::byte* p = take(sizeof(T));
      U u = 0;
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        u |= static_cast<U>(std::to_integer<U>(p[i]) << (8 * i));
      }
      v = static_cast<T>(u);
    }
  }
  /// Every element takes at least one byte, so a count beyond the bytes
  /// left is malformed: reject it before anything is sized by it.
  void count(std::uint32_t& n) {
    scalar(n);
    if (n > remaining()) {
      throw CodecError("codec: count " + std::to_string(n) + " exceeds the " +
                       std::to_string(remaining()) + " bytes left");
    }
  }
  void raw(void* data, std::size_t n) {
    if (n > 0) std::memcpy(data, take(n), n);
  }

  /// Throws unless every byte was consumed; `what` names the format.
  void finish(const char* what) const {
    if (remaining() != 0) {
      throw CodecError(std::string(what) + ": " + std::to_string(remaining()) +
                       " trailing bytes");
    }
  }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }

 private:
  const std::byte* take(std::size_t n) {
    if (remaining() < n) throw CodecError("codec: truncated input");
    const std::byte* p = data_.data() + pos_;
    pos_ += n;
    return p;
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace sdrmpi::sweep
