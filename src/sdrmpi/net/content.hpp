// Symbolic payload contents: what a message *is* without storing its bytes.
//
// Simulated payloads are almost always pattern-generated by the workload and
// consumed only as a digest (redMPI hash comparison) or ignored entirely, so
// the bytes can be represented by a content descriptor instead of a buffer:
//
//   Zeros(len)                 len zero bytes
//   Pattern(seed, len)         len bytes of the deterministic generator below
//   Tile(seed, period, reps)   one Pattern block repeated back to back
//   Corrupt(base, bit)         base's contents with one bit flipped (SDC)
//   Concat(leaves...)          other payloads' contents back to back (a rope)
//
// Raw is the one kind with host bytes: a slab of its own, or a zero-copy
// view onto a window of another Raw payload's slab (Payload::slice).
// Concat is what a join produces when no exact descriptor exists: a table
// of refcounted leaf payloads, so a collective's packed messages and
// gathered results copy no byte (Payload::concat_payloads).
//
// Every kind defines an exact byte sequence; materialization (content.hpp
// generators) and streaming digests agree on it on any platform (bytes are
// little-endian within each generator word), and a payload's digest()
// always equals util::fnv1a over its materialized bytes — the invariant
// payload_symbolic_test pins. bytes_hashed counts only the bytes fed
// through FNV byte steps, so the closed form below (fnv1a_zeros) and
// Payload's digest memos keep it far below the bytes a run digests.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "sdrmpi/util/hash.hpp"

namespace sdrmpi::net {

enum class ContentKind : std::uint8_t {
  Raw,      ///< host bytes: the payload's own slab, or a view into another
  Zeros,    ///< all-zero contents
  Pattern,  ///< deterministic pseudo-random contents from a 64-bit seed
  Corrupt,  ///< another payload's contents with one bit flipped
  Tile,     ///< one Pattern block repeated back to back
  Concat,   ///< a rope: other payloads' contents back to back
};

[[nodiscard]] constexpr const char* to_string(ContentKind k) noexcept {
  switch (k) {
    case ContentKind::Raw: return "raw";
    case ContentKind::Zeros: return "zeros";
    case ContentKind::Pattern: return "pattern";
    case ContentKind::Corrupt: return "corrupt";
    case ContentKind::Tile: return "tile";
    case ContentKind::Concat: return "concat";
  }
  return "?";
}

/// A buffer-free description of message contents; the symbolic send path
/// (Endpoint::isend_symbolic) turns one of these into a net::Payload whose
/// bytes exist only if somebody asks for them.
///
/// Pattern contents carry a stream `offset`: byte i of the payload is byte
/// offset+i of the Pattern(seed) stream. That is what keeps *segments* of a
/// symbolic message symbolic — the collective engine's scatter/Bruck
/// schedules slice and rejoin blocks, and a slice of Pattern(seed) is
/// exactly Pattern(seed) at a shifted offset (Payload::slice/concat).
///
/// Tile contents are len/period repetitions of the Pattern block
/// [offset, offset+period): byte i is Pattern byte offset + (i % period).
/// Tiles are what allgather-style concatenation produces when every rank
/// contributes the *same* symbolic block — the joined payload stays O(1)
/// instead of materializing an O(nranks) slab (Payload::concat_payloads).
struct ContentDesc {
  ContentKind kind = ContentKind::Zeros;
  std::size_t len = 0;
  std::uint64_t seed = 0;
  std::uint64_t offset = 0;  ///< Pattern stream position of byte 0
  std::uint64_t period = 0;  ///< Tile repetition length in bytes (Tile only)

  [[nodiscard]] bool operator==(const ContentDesc&) const = default;

  [[nodiscard]] static ContentDesc zeros(std::size_t n) noexcept {
    return {ContentKind::Zeros, n, 0, 0, 0};
  }
  [[nodiscard]] static ContentDesc pattern(std::uint64_t seed,
                                           std::size_t n) noexcept {
    return {ContentKind::Pattern, n, seed, 0, 0};
  }
  [[nodiscard]] static ContentDesc pattern_at(std::uint64_t seed,
                                              std::size_t n,
                                              std::uint64_t offset) noexcept {
    return {ContentKind::Pattern, n, seed, offset, 0};
  }
  /// `reps` repetitions of Pattern bytes [offset, offset+period).
  [[nodiscard]] static ContentDesc tile(std::uint64_t seed,
                                        std::uint64_t offset,
                                        std::uint64_t period,
                                        std::uint64_t reps) noexcept {
    return {ContentKind::Tile, static_cast<std::size_t>(period * reps), seed,
            offset, period};
  }
};

/// 8 deterministic bytes per 64-bit block index.
[[nodiscard]] constexpr std::uint64_t pattern_word(
    std::uint64_t seed, std::uint64_t block) noexcept {
  return util::mix64(seed + 0x9e3779b97f4a7c15ULL * (block + 1));
}

/// Byte i of the Pattern(seed) stream (little-endian within each word).
[[nodiscard]] constexpr std::byte pattern_byte(std::uint64_t seed,
                                               std::uint64_t i) noexcept {
  return static_cast<std::byte>(
      (pattern_word(seed, i >> 3) >> (8 * (i & 7))) & 0xff);
}

/// Writes generator words [first_word, first_word + nwords) to `out`, 8
/// little-endian bytes each: the whole-word middle of fill_pattern. Runs
/// the first pattern_kernels() variant the host CPU supports, chosen once
/// per process (content.cpp).
void fill_pattern_words(std::uint64_t seed, std::uint64_t first_word,
                        std::size_t nwords, std::byte* out) noexcept;

/// One compiled variant of fill_pattern_words. Every variant writes the
/// same bytes as pattern_word; they differ only in the instructions used.
struct PatternKernel {
  using Fn = void (*)(std::uint64_t seed, std::uint64_t first_word,
                      std::size_t nwords, std::byte* out) noexcept;
  const char* name;  ///< the x86-64 ISA level it is compiled for
  Fn fill;
  bool runnable;  ///< the host CPU supports that ISA level
};

/// Every compiled variant, fastest first; the last one is always runnable.
[[nodiscard]] std::span<const PatternKernel> pattern_kernels() noexcept;

/// Writes `n` bytes of the Pattern(seed) stream starting at stream position
/// `off` to `out`: one generator word per 8 output bytes, whatever the
/// alignment of `off`. The partial head and tail words are written here
/// byte by byte; the whole words between them by fill_pattern_words.
inline void fill_pattern(std::uint64_t seed, std::uint64_t off, std::size_t n,
                         std::byte* out) noexcept {
  // Bytes [from, to) of generator word w, little-endian within the word.
  const auto put = [seed](std::byte* dst, std::uint64_t w, unsigned from,
                          unsigned to) {
    const std::uint64_t v = pattern_word(seed, w);
    for (unsigned j = from; j < to; ++j) {
      *dst++ = static_cast<std::byte>((v >> (8 * j)) & 0xff);
    }
  };
  std::uint64_t w = off >> 3;
  const auto head = static_cast<unsigned>(off & 7);
  if (head != 0) {
    const auto take = static_cast<unsigned>(std::min<std::size_t>(8 - head, n));
    put(out, w++, head, head + take);
    out += take;
    n -= take;
  }
  if (n >= 8) {
    const std::size_t words = n / 8;
    fill_pattern_words(seed, w, words, out);
    w += words;
    out += 8 * words;
    n -= 8 * words;
  }
  if (n != 0) put(out, w, 0, static_cast<unsigned>(n));
}

/// fnv1a over `len` zero bytes resumed from `h`: each step multiplies by the
/// prime, so the whole run is h * prime^len — O(log len) by binary
/// exponentiation instead of touching len bytes.
[[nodiscard]] constexpr std::uint64_t fnv1a_zeros(
    std::size_t len, std::uint64_t h = util::kFnvOffset) noexcept {
  std::uint64_t p = util::kFnvPrime;
  auto n = static_cast<std::uint64_t>(len);
  while (n != 0) {
    if ((n & 1) != 0) h *= p;
    p *= p;
    n >>= 1;
  }
  return h;
}

/// fnv1a over bytes [begin, end) of the Pattern(seed) stream, resumed from
/// `h`, without materializing them all: the stream is generated one stack
/// chunk at a time and each chunk hashed by util::fnv1a.
[[nodiscard]] inline std::uint64_t fnv1a_pattern(
    std::uint64_t seed, std::uint64_t begin, std::uint64_t end,
    std::uint64_t h = util::kFnvOffset) noexcept {
  std::byte chunk[1024];
  while (begin < end) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(end - begin, sizeof chunk));
    fill_pattern(seed, begin, n, chunk);
    h = util::fnv1a({chunk, n}, h);
    begin += n;
  }
  return h;
}

}  // namespace sdrmpi::net
