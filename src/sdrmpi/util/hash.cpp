// FNV-1a over host bytes, compiled once per instruction set and chosen for
// the host CPU once per process. The algebra is in hash.hpp.
//
// The AVX-512 variant takes up to eight 64-byte blocks at a time. For each
// bit j of the low byte, and for every block, it looks up
// (x mod 2^j) * 0xb3 for all 64 bytes with vpermi2b (a 128-entry table),
// turns the driving bits d into a 64-bit mask with a byte test, and takes
// the mask's prefix XOR with a carry-less multiply by ~0; bit j's value at
// the end of one block is the carry into the next. Bit j of every low byte
// is then known and feeds the lookups for bit j + 1.
//
// With every low byte l known, the group's sum of e_t * P^(64G - t) is a dot
// product with constant weights. Each weight splits into eight signed
// base-256 digits, and vpdpbusd multiplies the unsigned bytes x and 255 - l
// by one digit row and sums each four products into a 32-bit lane. Using
// 255 - l instead of -l adds 255 * (sum of the weights), a constant per
// group size that is subtracted at the end. A lane sums at most 64 such
// products of 255 * 128, so no lane overflows.
#include "sdrmpi/util/hash.hpp"

#include <immintrin.h>

#include <algorithm>
#include <array>

namespace sdrmpi::util {

namespace {

constexpr std::size_t kBlock = 64;  // bytes per mask / per vector
constexpr int kGroup = 8;           // blocks per group, at most

[[nodiscard]] constexpr std::uint64_t prime_pow(std::uint64_t n) noexcept {
  std::uint64_t r = 1;
  std::uint64_t p = kFnvPrime;
  for (; n != 0; n >>= 1, p *= p) {
    if ((n & 1) != 0) r *= p;
  }
  return r;
}

struct Tables {
  /// (m * 0xb3) mod 256 for every 7-bit m: the low byte's step. Bit j of
  /// an entry is read only for m < 2^j.
  alignas(64) std::array<std::uint8_t, 128> step;
  /// digit[r][d][t]: signed base-256 digit d of P^(64 * (7 - r) + 64 - t),
  /// the weight of byte t of block r in a group of eight. A group of
  /// G < 8 blocks uses rows 8 - G .. 7, whose weights are its own.
  alignas(64) std::array<std::array<std::array<std::int8_t, kBlock>, 8>,
                         kGroup> digit;
};

constexpr Tables make_tables() noexcept {
  Tables t{};
  for (unsigned m = 0; m < t.step.size(); ++m) {
    t.step[m] = static_cast<std::uint8_t>(m * (kFnvPrime & 0xff));
  }
  for (unsigned r = 0; r < kGroup; ++r) {
    for (unsigned i = 0; i < kBlock; ++i) {
      std::uint64_t w = prime_pow(kBlock * (kGroup - 1 - r) + kBlock - i);
      for (auto& row : t.digit[r]) {
        const int d = static_cast<int>(w & 0xff) - ((w & 0x80) != 0 ? 256 : 0);
        row[i] = static_cast<std::int8_t>(d);
        w = (w - static_cast<std::uint64_t>(d)) >> 8;
      }
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

/// 255 * (sum of a G-block group's weights): what x + (255 - l) adds to
/// the group's sum of e_t * P^(64G - t).
[[nodiscard]] constexpr std::uint64_t group_bias(int g) noexcept {
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < kBlock * g; ++i) {
    sum += prime_pow(kBlock * g - i);
  }
  return 255 * sum;
}

typedef long long I64x8 __attribute__((vector_size(64)));
typedef unsigned long long U64x8 __attribute__((vector_size(64)));

/// fnv1a over the G blocks at `p` resumed from `h`, whose low byte is `low`;
/// leaves the low byte of the result in `low` (known before the sum is).
template <int G>
[[gnu::target("avx512f,avx512bw,avx512vbmi,avx512vnni,pclmul"),
  gnu::always_inline]] inline std::uint64_t
fold_group(const std::byte* p, std::uint64_t h, unsigned& low, __m512i tlo,
           __m512i thi) noexcept {
  __m512i b[G];
  __m512i l[G];  // low byte of the state before each byte, bit by bit
#pragma GCC unroll 8
  for (int k = 0; k < G; ++k) {
    b[k] = _mm512_loadu_si512(p + kBlock * k);
    l[k] = _mm512_setzero_si512();
  }
  const __m128i ones = _mm_set1_epi64x(-1);
  unsigned low_out = 0;
#pragma GCC unroll 8
  for (int j = 0; j < 8; ++j) {
    const __m512i bit = _mm512_set1_epi8(static_cast<char>(1u << j));
    const __m512i below = _mm512_set1_epi8(static_cast<char>((1u << j) - 1));
    std::uint64_t flips[G];  // inclusive prefix XOR of d over a block
#pragma GCC unroll 8
    for (int k = 0; k < G; ++k) {
      // 0x28: (l ^ b) & below, i.e. x mod 2^j.
      const __m512i x = _mm512_ternarylogic_epi64(l[k], b[k], below, 0x28);
      const __m512i t = _mm512_permutex2var_epi8(tlo, x, thi);
      const __mmask64 d =
          _mm512_test_epi8_mask(_mm512_xor_si512(t, b[k]), bit);
      flips[k] = static_cast<std::uint64_t>(_mm_cvtsi128_si64(
          _mm_clmulepi64_si128(_mm_cvtsi64_si128(static_cast<long long>(d)),
                               ones, 0)));
    }
    std::uint64_t carry = (low >> j) & 1;
#pragma GCC unroll 8
    for (int k = 0; k < G; ++k) {
      l[k] = _mm512_mask_add_epi8(l[k], (flips[k] << 1) ^ (0 - carry), l[k],
                                  bit);
      carry ^= flips[k] >> 63;
    }
    low_out |= static_cast<unsigned>(carry) << j;
  }
  low = low_out;

  __m512i acc[8];
#pragma GCC unroll 8
  for (auto& a : acc) a = _mm512_setzero_si512();
#pragma GCC unroll 8
  for (int k = 0; k < G; ++k) {
    const __m512i x = _mm512_xor_si512(l[k], b[k]);
    const __m512i not_l = _mm512_xor_si512(l[k], _mm512_set1_epi8(-1));
#pragma GCC unroll 8
    for (int d = 0; d < 8; ++d) {
      const __m512i w =
          _mm512_load_si512(kTables.digit[kGroup - G + k][d].data());
      acc[d] = _mm512_dpbusd_epi32(acc[d], x, w);
      acc[d] = _mm512_dpbusd_epi32(acc[d], not_l, w);
    }
  }
  // Digit d's 32-bit lane sums, sign-extended in place and weighted 256^d;
  // the weighting wraps mod 2^64, so it runs unsigned.
  U64x8 sum{};
#pragma GCC unroll 8
  for (int d = 0; d < 8; ++d) {
    const auto q = reinterpret_cast<U64x8>(acc[d]);
    const I64x8 lanes = (reinterpret_cast<I64x8>(q << 32) >> 32) +
                        (reinterpret_cast<I64x8>(q) >> 32);
    sum += reinterpret_cast<U64x8>(lanes) << (8 * d);
  }
  std::uint64_t s = 0;
  for (int i = 0; i < 8; ++i) s += sum[i];
  constexpr std::uint64_t kScale = prime_pow(kBlock * G);
  constexpr std::uint64_t kBias = group_bias(G);
  return h * kScale + s - kBias;
}

[[gnu::target("avx512f,avx512bw,avx512vbmi,avx512vnni,pclmul")]] std::uint64_t
hash_avx512(std::span<const std::byte> data, std::uint64_t h) noexcept {
  const std::byte* p = data.data();
  std::size_t blocks = data.size() / kBlock;
  const __m512i tlo = _mm512_load_si512(kTables.step.data());
  const __m512i thi = _mm512_load_si512(kTables.step.data() + kBlock);
  auto low = static_cast<unsigned>(h & 0xff);
  for (; blocks >= 8; blocks -= 8, p += 8 * kBlock) {
    h = fold_group<8>(p, h, low, tlo, thi);
  }
  if (blocks >= 4) {
    h = fold_group<4>(p, h, low, tlo, thi);
    blocks -= 4;
    p += 4 * kBlock;
  }
  if (blocks >= 2) {
    h = fold_group<2>(p, h, low, tlo, thi);
    blocks -= 2;
    p += 2 * kBlock;
  }
  if (blocks == 1) {
    h = fold_group<1>(p, h, low, tlo, thi);
    p += kBlock;
  }
  return fnv1a_scalar({p, data.data() + data.size()}, h);
}

}  // namespace

std::span<const FnvKernel> fnv1a_kernels() noexcept {
  static const std::array<FnvKernel, 2> kernels = [] {
    __builtin_cpu_init();
    const bool avx512 = __builtin_cpu_supports("avx512f") != 0 &&
                        __builtin_cpu_supports("avx512bw") != 0 &&
                        __builtin_cpu_supports("avx512vbmi") != 0 &&
                        __builtin_cpu_supports("avx512vnni") != 0 &&
                        __builtin_cpu_supports("pclmul") != 0;
    return std::array<FnvKernel, 2>{{
        {"avx512-vbmi-vnni", &hash_avx512, avx512},
        {"scalar", &fnv1a_scalar, true},
    }};
  }();
  return kernels;
}

std::uint64_t fnv1a_kernel(std::span<const std::byte> data,
                           std::uint64_t seed) noexcept {
  // The scalar loop is always runnable, so the search always finds one.
  static const FnvKernel::Fn hash =
      std::ranges::find_if(fnv1a_kernels(), &FnvKernel::runnable)->hash;
  return hash(data, seed);
}

}  // namespace sdrmpi::util
