// The Pattern generator's whole-word kernel, compiled once per x86-64 ISA
// level and chosen for the host CPU once per process.
//
// Generator words are independent (splitmix64's finaliser over an
// arithmetic sequence), so the loop is pure 64-bit integer arithmetic:
// each lane of a GCC vector computes one word with the same wrapping
// multiplies, shifts and xors as pattern_word, and the bytes stored are
// bit-identical to the scalar loop's. x86-64-v4 (AVX-512DQ) multiplies
// 64-bit lanes natively, 8 words per step; x86-64-v3 (AVX2) builds each
// 64-bit product from 32-bit ones, 4 words per step. The baseline keeps
// the scalar loop, which SSE2's emulated multiplies would not beat.
#include "sdrmpi/net/content.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace sdrmpi::net {

namespace {

// Words are stored with memcpy, which is little-endian only on such a host.
static_assert(std::endian::native == std::endian::little);

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;  // as pattern_word

void words_scalar(std::uint64_t seed, std::uint64_t first, std::size_t n,
                  std::byte* out) noexcept {
  for (std::size_t i = 0; i < n; ++i, out += 8) {
    const std::uint64_t v = pattern_word(seed, first + i);
    std::memcpy(out, &v, sizeof v);
  }
}

// GCC vectors of 8 and 4 64-bit lanes (one zmm / ymm register).
typedef std::uint64_t U64x8 __attribute__((vector_size(64)));
typedef std::uint64_t U64x4 __attribute__((vector_size(32)));

// pattern_word for one vector of consecutive words per step: lane j holds
// the mix64 input seed + kGolden * (w + j + 1) of word w + j, and each
// step adds kGolden * Lanes to every lane. Inlined into each
// target-specific variant below, so one body compiles to each ISA's
// instructions.
template <class V>
[[gnu::always_inline]] inline void words_lanes(std::uint64_t seed,
                                               std::uint64_t first,
                                               std::size_t n,
                                               std::byte* out) noexcept {
  constexpr int Lanes = sizeof(V) / sizeof(std::uint64_t);
  V x;
  for (int j = 0; j < Lanes; ++j) {
    x[j] = seed + kGolden * (first + 1 + static_cast<std::uint64_t>(j));
  }
  const V step = V{} + kGolden * Lanes;
  std::size_t i = 0;
  for (; i + Lanes <= n; i += Lanes, out += 8 * Lanes) {
    V z = x;  // util::mix64, lane by lane
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    std::memcpy(out, &z, sizeof z);
    x += step;
  }
  words_scalar(seed, first + i, n - i, out);
}

[[gnu::target("arch=x86-64-v4")]] void words_v4(std::uint64_t seed,
                                                std::uint64_t first,
                                                std::size_t n,
                                                std::byte* out) noexcept {
  words_lanes<U64x8>(seed, first, n, out);
}

[[gnu::target("arch=x86-64-v3")]] void words_v3(std::uint64_t seed,
                                                std::uint64_t first,
                                                std::size_t n,
                                                std::byte* out) noexcept {
  words_lanes<U64x4>(seed, first, n, out);
}

}  // namespace

std::span<const PatternKernel> pattern_kernels() noexcept {
  static const std::array<PatternKernel, 3> kernels = [] {
    __builtin_cpu_init();
    return std::array<PatternKernel, 3>{{
        {"x86-64-v4", &words_v4, __builtin_cpu_supports("x86-64-v4") != 0},
        {"x86-64-v3", &words_v3, __builtin_cpu_supports("x86-64-v3") != 0},
        {"baseline", &words_scalar, true},
    }};
  }();
  return kernels;
}

void fill_pattern_words(std::uint64_t seed, std::uint64_t first_word,
                        std::size_t nwords, std::byte* out) noexcept {
  // The baseline is always runnable, so the search always finds one.
  static const PatternKernel::Fn fill =
      std::ranges::find_if(pattern_kernels(), &PatternKernel::runnable)->fill;
  fill(seed, first_word, nwords, out);
}

}  // namespace sdrmpi::net
