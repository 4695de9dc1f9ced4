// Hashing utilities.
//
// Two uses in the library:
//  1. Workload checksums: every benchmark kernel folds its numeric output
//     into a 64-bit digest so that tests can assert bit-identical results
//     between native and replicated executions.
//  2. The redMPI-style protocol sends a per-message payload hash to sibling
//     replicas to detect silent data corruption.
//
// FNV-1a's byte loop h' = (h ^ b) * P (mod 2^64) looks like a serial chain,
// but only its low byte is. Writing l = h mod 256 and x = l ^ b,
//
//   h ^ b = h + e    with e = x - l, a small signed value, so
//   h_n = h_0 * P^n + sum_i e_i * P^(n-i)     (mod 2^64),
//
// a weighted sum with constant weights once every e_i is known. The e_i
// need the low bytes l_i, and those evolve on their own:
//
//   l' = (x * 0xb3) mod 256        (0xb3 = P mod 256).
//
// Bit j of l' is x_j XOR bit_j((x mod 2^j) * 0xb3): the odd multiplier
// keeps x_j in place and the lower bits of x set the rest. So with
// d_i = b_ij XOR bit_j((x_i mod 2^j) * 0xb3), bit j of l_i is bit j of l_0
// XOR the prefix XOR of d_0 .. d_(i-1), and d only depends on bits below j.
// Bit by bit, j = 0..7, the low bytes of a whole block come out of a table
// lookup and a prefix XOR (a carry-less multiply by ~0). hash.cpp computes
// fnv1a this way, bit-identical to the byte loop; fnv1a_kernels() lists
// its variants.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>

namespace sdrmpi::util {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// FNV-1a one byte at a time: the definition every kernel must match.
constexpr std::uint64_t fnv1a_scalar(std::span<const std::byte> data,
                                     std::uint64_t seed = kFnvOffset) noexcept {
  std::uint64_t h = seed;
  for (std::byte b : data) {
    h ^= static_cast<std::uint64_t>(std::to_integer<unsigned char>(b));
    h *= kFnvPrime;
  }
  return h;
}

/// One compiled variant of FNV-1a over host bytes. Every variant returns
/// fnv1a_scalar's digest; they differ only in the instructions used.
struct FnvKernel {
  using Fn = std::uint64_t (*)(std::span<const std::byte> data,
                               std::uint64_t seed) noexcept;
  const char* name;  ///< the instruction-set extensions it is compiled for
  Fn hash;
  bool runnable;  ///< the host CPU supports those extensions
};

/// Every compiled variant, fastest first; the last one, the scalar loop, is
/// always runnable.
[[nodiscard]] std::span<const FnvKernel> fnv1a_kernels() noexcept;

/// fnv1a through the first fnv1a_kernels() variant the host CPU supports,
/// chosen once per process (hash.cpp).
[[nodiscard]] std::uint64_t fnv1a_kernel(std::span<const std::byte> data,
                                         std::uint64_t seed) noexcept;

/// Below this many bytes (one 64-byte block and a tail) the scalar loop is
/// as fast as the kernels.
inline constexpr std::size_t kFnvKernelMinBytes = 128;

/// FNV-1a over raw bytes, resumable via the `seed` parameter.
constexpr std::uint64_t fnv1a(std::span<const std::byte> data,
                              std::uint64_t seed = kFnvOffset) noexcept {
  if (std::is_constant_evaluated() || data.size() < kFnvKernelMinBytes) {
    return fnv1a_scalar(data, seed);
  }
  return fnv1a_kernel(data, seed);
}

/// Strong 64-bit finalizer (splitmix64 finaliser) for combining values.
constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Order-dependent combination of two digests.
constexpr std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept {
  return mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

/// Incremental checksum builder used by workloads.
class Checksum {
 public:
  constexpr Checksum() noexcept = default;

  constexpr void add_u64(std::uint64_t v) noexcept {
    digest_ = hash_combine(digest_, mix64(v));
  }

  void add_double(double v) noexcept { add_u64(std::bit_cast<std::uint64_t>(v)); }

  void add_bytes(std::span<const std::byte> data) noexcept {
    add_u64(fnv1a(data));
  }

  template <class T>
  void add_range(std::span<const T> values) noexcept {
    static_assert(std::is_trivially_copyable_v<T>);
    add_bytes(std::as_bytes(values));
  }
  template <class T>
  void add_range(std::span<T> values) noexcept {
    add_range(std::span<const T>(values));
  }

  [[nodiscard]] constexpr std::uint64_t digest() const noexcept {
    return digest_;
  }

 private:
  std::uint64_t digest_ = kFnvOffset;
};

}  // namespace sdrmpi::util
