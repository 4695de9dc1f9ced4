// Symbolic payload contents: digests equal fnv1a ground truth, lazy
// materialization happens exactly once, Corrupt is an O(1) wrapper whose
// digest differs from its base, the per-shape digest memo makes repeated
// shapes free, Raw slices are zero-copy views that re-join to their owner,
// joins of anything else are Concat ropes whose bytes, slices and digests
// are exact and whose leaves are hashed once per chain, host bytes fold
// all-zero blocks and reuse the digest of an equal live buffer, and the
// symbolic end-to-end path (symbolic send → sink or buffered receive,
// redMPI detection) behaves exactly like raw bytes. Fresh slabs are filled
// in place: their writer's bytes are never counted as a copy.
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sdrmpi/net/content.hpp"
#include "sdrmpi/net/payload.hpp"
#include "sdrmpi/util/alloc_counter.hpp"
#include "sdrmpi/util/byte_counter.hpp"
#include "sdrmpi/util/hash.hpp"
#include "sdrmpi/util/rng.hpp"
#include "sdrmpi/workloads/symbolic.hpp"
#include "test_support.hpp"

namespace sdrmpi {
namespace {

using net::ContentDesc;
using net::ContentKind;
using net::Payload;

// ------------------------------------------------------ digest ground truth

TEST(SymbolicPayload, ZerosDigestMatchesFnv1aGroundTruth) {
  util::BufferPool pool;
  for (std::size_t n : {1u, 7u, 8u, 63u, 64u, 1000u, 4097u}) {
    Payload p = Payload::zeros(&pool, n);
    const std::vector<std::byte> ref(n, std::byte{0});
    EXPECT_EQ(p.digest(), util::fnv1a(ref)) << "n=" << n;
    // And the closed form agrees with the materialized bytes.
    EXPECT_EQ(p.digest(), util::fnv1a(p.bytes())) << "n=" << n;
  }
}

TEST(SymbolicPayload, PatternDigestMatchesMaterializedBytes) {
  util::BufferPool pool;
  for (std::size_t n : {1u, 3u, 8u, 9u, 255u, 256u, 10000u}) {
    Payload p = Payload::pattern(&pool, 0xfeedULL + n, n);
    const std::uint64_t symbolic_digest = p.digest();  // before materializing
    EXPECT_FALSE(p.is_materialized()) << "digest() must not materialize";
    EXPECT_EQ(symbolic_digest, util::fnv1a(p.bytes())) << "n=" << n;
  }
}

TEST(SymbolicPayload, PatternBytesAreTheDocumentedGenerator) {
  util::BufferPool pool;
  Payload p = Payload::pattern(&pool, 0xabcULL, 100);
  const std::byte* d = p.data();
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(d[i], net::pattern_byte(0xabcULL, i)) << "i=" << i;
  }
}

TEST(SymbolicPayload, FillPatternMatchesPatternByteAtEveryOffset) {
  const std::uint64_t seed = 0xf111ULL;
  for (std::uint64_t off = 0; off < 16; ++off) {  // every offset mod 8, twice
    // Up to 64 bytes, and spans ending short of, on and past the streaming
    // digest's 1 KiB chunk boundary.
    for (std::size_t n :
         {0u, 1u, 5u, 7u, 8u, 9u, 16u, 23u, 64u, 1023u, 1024u, 1025u, 5000u}) {
      std::vector<std::byte> out(n + 1, std::byte{0xee});
      net::fill_pattern(seed, off, n, out.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], net::pattern_byte(seed, off + i))
            << "off=" << off << " n=" << n << " i=" << i;
      }
      EXPECT_EQ(out[n], std::byte{0xee}) << "wrote past n";
      // The streaming digest walks the same bytes, from any resume state.
      const std::span<const std::byte> bytes(out.data(), n);
      EXPECT_EQ(net::fnv1a_pattern(seed, off, off + n),
                util::fnv1a_scalar(bytes));
      EXPECT_EQ(net::fnv1a_pattern(seed, off, off + n, 0),
                util::fnv1a_scalar(bytes, 0));
    }
  }
}

// ------------------------------------------------ whole-word kernel variants

/// Pattern(seed) bytes [off, off + n) from the scalar generator alone.
std::vector<std::byte> scalar_pattern(std::uint64_t seed, std::uint64_t off,
                                      std::size_t n) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t b = off + i;
    out[i] = static_cast<std::byte>(
        (net::pattern_word(seed, b >> 3) >> (8 * (b & 7))) & 0xff);
  }
  return out;
}

TEST(PatternKernel, BaselineIsLastAndAlwaysRunnable) {
  const auto kernels = net::pattern_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.back().name, "baseline");
  EXPECT_TRUE(kernels.back().runnable);
}

TEST(PatternKernel, EveryRunnableVariantMatchesScalarPatternWord) {
  // fill_pattern's split, with `k` writing the whole words: the words
  // start at every alignment of the output pointer and every word index.
  const auto fill_with = [](const net::PatternKernel& k, std::uint64_t seed,
                            std::uint64_t off, std::size_t n,
                            std::byte* out) {
    const std::size_t head =
        std::min<std::size_t>(n, static_cast<std::size_t>((8 - off % 8) % 8));
    const std::size_t words = (n - head) / 8;
    const auto ref = scalar_pattern(seed, off, n);
    std::copy(ref.begin(), ref.begin() + static_cast<std::ptrdiff_t>(head),
              out);
    k.fill(seed, (off + head) / 8, words, out + head);
    std::copy(ref.begin() + static_cast<std::ptrdiff_t>(head + 8 * words),
              ref.end(), out + head + 8 * words);
  };
  const std::uint64_t seed = 0x5eed'1234'abcdULL;
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 130; ++n) lengths.push_back(n);
  lengths.push_back(std::size_t{1} << 20);
  int ran = 0;
  for (const net::PatternKernel& k : net::pattern_kernels()) {
    if (!k.runnable) continue;
    ++ran;
    for (std::uint64_t off = 0; off < 16; ++off) {
      for (std::size_t n : lengths) {
        const auto want = scalar_pattern(seed, off, n);
        std::vector<std::byte> got(n + 1, std::byte{0xee});
        fill_with(k, seed, off, n, got.data());
        ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin()))
            << k.name << " off=" << off << " n=" << n;
        ASSERT_EQ(got[n], std::byte{0xee}) << k.name << " wrote past n";
      }
    }
  }
  EXPECT_GE(ran, 1);
}

TEST(PatternKernel, FillPatternMatchesScalarUpToAMebibyte) {
  const std::uint64_t seed = 0xb16'b10bULL;
  for (std::uint64_t off = 0; off < 16; ++off) {
    for (std::size_t n : {std::size_t{130}, std::size_t{1} << 20}) {
      std::vector<std::byte> got(n);
      net::fill_pattern(seed, off, n, got.data());
      ASSERT_EQ(got, scalar_pattern(seed, off, n)) << "off=" << off;
    }
  }
}

TEST(PatternKernel, TileAndStraddleSliceMatchScalar) {
  util::BufferPool pool;
  const std::uint64_t seed = 0x711eULL;
  const std::uint64_t offset = 5;  // a partial head word in every period
  const std::uint64_t period = 77;
  const std::uint64_t reps = 9;
  const auto block = scalar_pattern(seed, offset, period);
  std::vector<std::byte> want;
  for (std::uint64_t r = 0; r < reps; ++r) {
    want.insert(want.end(), block.begin(), block.end());
  }
  Payload tile =
      Payload::symbolic(&pool, ContentDesc::tile(seed, offset, period, reps));
  ASSERT_EQ(tile.kind(), ContentKind::Tile);
  const auto bytes = tile.bytes();
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), want.begin(), want.end()));
  // A slice that straddles repetition boundaries is generated chunk by
  // chunk, each chunk a fill_pattern at its own stream offset.
  Payload fresh_tile =
      Payload::symbolic(&pool, ContentDesc::tile(seed, offset, period, reps));
  const std::size_t off = 40;
  const std::size_t len = 3 * period + 11;
  Payload straddle = Payload::slice(&pool, fresh_tile, off, len);
  EXPECT_FALSE(fresh_tile.is_materialized());
  const auto sbytes = straddle.bytes();
  EXPECT_TRUE(std::equal(sbytes.begin(), sbytes.end(),
                         want.begin() + static_cast<std::ptrdiff_t>(off),
                         want.begin() + static_cast<std::ptrdiff_t>(off + len)));
}

// ------------------------------------------------------------- FNV kernels

// Constant evaluation takes the scalar loop: FNV-1a 64 of a fixed string.
constexpr auto kFixedText = [] {
  constexpr char text[] = "send-deterministic";
  std::array<std::byte, sizeof text - 1> out{};
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::byte>(text[i]);
  }
  return out;
}();
static_assert(util::fnv1a(kFixedText) == 0x0b74b572bcd097ecULL);

/// A buffer whose end is the start of a PROT_NONE page: bytes placed flush
/// against it make a read past their end fault.
class GuardedBytes {
 public:
  explicit GuardedBytes(std::size_t capacity)
      : page_(static_cast<std::size_t>(sysconf(_SC_PAGESIZE))),
        span_((capacity + page_ - 1) / page_ * page_) {
    void* m = mmap(nullptr, span_ + page_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (m == MAP_FAILED) throw std::runtime_error("mmap failed");
    base_ = static_cast<std::byte*>(m);
    if (mprotect(base_ + span_, page_, PROT_NONE) != 0) {
      munmap(base_, span_ + page_);
      throw std::runtime_error("mprotect failed");
    }
  }
  GuardedBytes(const GuardedBytes&) = delete;
  GuardedBytes& operator=(const GuardedBytes&) = delete;
  ~GuardedBytes() { munmap(base_, span_ + page_); }

  /// Copies `bytes` so that they end `gap` bytes before the guard page.
  std::span<const std::byte> place(std::span<const std::byte> bytes,
                                   std::size_t gap = 0) {
    std::byte* out = base_ + span_ - gap - bytes.size();
    std::copy(bytes.begin(), bytes.end(), out);
    return {out, bytes.size()};
  }

 private:
  std::size_t page_;
  std::size_t span_;
  std::byte* base_ = nullptr;
};

/// n bytes of one kernel input shape: random, all 0xff, all zero, or
/// 64-byte blocks alternately zero and random.
std::vector<std::byte> kernel_input(int shape, std::size_t n,
                                    std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto r = static_cast<std::byte>(rng());
    switch (shape) {
      case 0: out[i] = r; break;
      case 1: out[i] = std::byte{0xff}; break;
      case 2: out[i] = std::byte{0}; break;
      default: out[i] = (i / 64) % 2 == 0 ? std::byte{0} : r; break;
    }
  }
  return out;
}

TEST(FnvKernel, BaselineIsLastAndAlwaysRunnable) {
  const auto kernels = util::fnv1a_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.back().name, "scalar");
  EXPECT_TRUE(kernels.back().runnable);
}

TEST(FnvKernel, EveryRunnableVariantMatchesScalar) {
  constexpr std::size_t kShort = 1100;
  constexpr std::size_t kLong = std::size_t{1} << 20;
  const std::uint64_t states[] = {util::kFnvOffset, 0, ~std::uint64_t{0},
                                  0x9d2c'5680'1bad'cafeULL};
  GuardedBytes guard(kLong + 64);
  int ran = 0;
  for (const util::FnvKernel& k : util::fnv1a_kernels()) {
    if (!k.runnable) continue;
    ++ran;
    for (int shape = 0; shape < 4; ++shape) {
      const auto bytes = kernel_input(shape, kShort, 0xf00dULL + shape);
      // Every length, flush against the guard page; the start's offset
      // from a 64-byte boundary is -n mod 64, so every offset occurs.
      for (std::size_t n = 0; n <= kShort; ++n) {
        const auto in = guard.place(std::span(bytes).first(n));
        for (std::uint64_t h : states) {
          ASSERT_EQ(k.hash(in, h), util::fnv1a_scalar(in, h))
              << k.name << " shape=" << shape << " n=" << n << " h=" << h;
        }
      }
      // Every start offset for one length.
      for (std::size_t gap = 0; gap < 64; ++gap) {
        const auto in = guard.place(bytes, gap);
        ASSERT_EQ(k.hash(in, util::kFnvOffset), util::fnv1a_scalar(in))
            << k.name << " shape=" << shape << " gap=" << gap;
      }
      const auto big = kernel_input(shape, kLong, 0xb16ULL + shape);
      const auto in = guard.place(big);
      for (std::uint64_t h : states) {
        ASSERT_EQ(k.hash(in, h), util::fnv1a_scalar(in, h))
            << k.name << " shape=" << shape << " 1 MiB h=" << h;
      }
    }
  }
  EXPECT_GE(ran, 1);
}

TEST(SymbolicPayload, EmptyHandleDigestsLikeEmptySpan) {
  EXPECT_EQ(Payload{}.digest(), util::kFnvOffset);
  EXPECT_EQ(util::fnv1a({}), util::kFnvOffset);
}

// --------------------------------------------------- slice/concat algebra

TEST(SymbolicPayload, SliceOfPatternStaysSymbolicAndExact) {
  util::BufferPool pool;
  Payload base = Payload::pattern(&pool, 0x51edULL, 1000);
  Payload mid = Payload::slice(&pool, base, 123, 456);
  EXPECT_EQ(mid.kind(), net::ContentKind::Pattern);
  EXPECT_FALSE(mid.is_materialized());
  EXPECT_EQ(mid.size(), 456u);
  const std::uint64_t d = mid.digest();
  EXPECT_FALSE(mid.is_materialized()) << "digest() must not materialize";
  EXPECT_EQ(d, util::fnv1a(base.bytes().subspan(123, 456)));
  // Slices of slices compose: stream offsets add.
  Payload nested = Payload::slice(&pool, mid, 7, 100);
  EXPECT_EQ(nested.desc().offset, 130u);
  EXPECT_EQ(nested.digest(), util::fnv1a(base.bytes().subspan(130, 100)));
}

TEST(SymbolicPayload, SliceOfZerosStaysZeros) {
  util::BufferPool pool;
  Payload base = Payload::zeros(&pool, 1 << 20);
  Payload s = Payload::slice(&pool, base, 12345, 6789);
  EXPECT_EQ(s.kind(), net::ContentKind::Zeros);
  EXPECT_EQ(s.digest(), net::fnv1a_zeros(6789));
}

/// 0, 1, 2, ... as a Raw payload of n bytes.
Payload counting_bytes(util::BufferPool* pool, std::size_t n) {
  std::vector<std::byte> bytes(n);
  for (std::size_t i = 0; i < n; ++i) bytes[i] = static_cast<std::byte>(i);
  return Payload::copy_of(pool, bytes);
}

TEST(SymbolicPayload, SliceOfRawIsAZeroCopyView) {
  util::BufferPool pool;
  Payload base = counting_bytes(&pool, 64);
  const std::uint64_t c0 = util::byte_counters().bytes_copied;
  Payload s = Payload::slice(&pool, base, 8, 16);
  EXPECT_EQ(util::byte_counters().bytes_copied, c0) << "slice copied bytes";
  EXPECT_EQ(s.kind(), net::ContentKind::Raw);
  EXPECT_EQ(s.size(), 16u);
  EXPECT_EQ(s.data(), base.data() + 8);
  EXPECT_EQ(s[0], std::byte{8});
  EXPECT_EQ(s[15], std::byte{23});
  EXPECT_EQ(s.digest(), util::fnv1a(base.bytes().subspan(8, 16)));
  EXPECT_EQ(base.use_count(), 2u);  // the view holds the owner
  // Full-range slices alias the handle itself.
  Payload whole = Payload::slice(&pool, base, 0, 64);
  EXPECT_EQ(whole.data(), base.data());
  EXPECT_EQ(base.use_count(), 3u);
}

TEST(SymbolicPayload, SliceOfAViewPointsAtTheOwner) {
  util::BufferPool pool;
  Payload base = counting_bytes(&pool, 64);
  Payload view = Payload::slice(&pool, base, 10, 40);
  Payload nested = Payload::slice(&pool, view, 5, 20);
  EXPECT_EQ(nested.data(), base.data() + 15);
  // Views never chain: the nested slice references the owner, not `view`.
  EXPECT_EQ(view.use_count(), 1u);
  EXPECT_EQ(base.use_count(), 3u);
  view.reset();
  EXPECT_EQ(base.use_count(), 2u);
  EXPECT_EQ(nested[0], std::byte{15});
  EXPECT_EQ(nested.digest(), util::fnv1a(base.bytes().subspan(15, 20)));
}

TEST(SymbolicPayload, ContiguousViewsRejoinToTheOwner) {
  util::BufferPool pool;
  Payload base = counting_bytes(&pool, 99);
  const Payload parts[4] = {Payload::slice(&pool, base, 0, 10), Payload{},
                            Payload::slice(&pool, base, 10, 50),
                            Payload::slice(&pool, base, 60, 39)};
  const std::uint64_t c0 = util::byte_counters().bytes_copied;
  Payload joined = Payload::concat_payloads(&pool, parts);
  EXPECT_EQ(util::byte_counters().bytes_copied, c0) << "re-join copied";
  EXPECT_EQ(joined.data(), base.data());
  EXPECT_EQ(joined.size(), 99u);
  // The same header: the owner's digest is computed once for both.
  (void)base.digest();
  const std::uint64_t h0 = util::byte_counters().bytes_hashed;
  EXPECT_EQ(joined.digest(), base.digest());
  EXPECT_EQ(util::byte_counters().bytes_hashed, h0);
  // A contiguous run that stops short of the owner re-joins to a view.
  Payload inner = Payload::concat_payloads(
      &pool, std::span<const Payload>(parts + 2, 2));
  EXPECT_EQ(util::byte_counters().bytes_copied, c0);
  EXPECT_EQ(inner.data(), base.data() + 10);
  EXPECT_EQ(inner.size(), 89u);
}

TEST(SymbolicPayload, NonContiguousViewsJoinTheExactBytes) {
  util::BufferPool pool;
  Payload base = counting_bytes(&pool, 64);
  Payload other = counting_bytes(&pool, 8);
  // Out of order, then a view of a different owner: neither re-joins.
  const Payload swapped[2] = {Payload::slice(&pool, base, 32, 32),
                              Payload::slice(&pool, base, 0, 32)};
  const Payload mixed[2] = {Payload::slice(&pool, base, 0, 4), other};
  for (const auto parts : {std::span<const Payload>(swapped),
                           std::span<const Payload>(mixed)}) {
    Payload joined = Payload::concat_payloads(&pool, parts);
    ASSERT_EQ(joined.kind(), net::ContentKind::Concat);
    std::vector<std::byte> expect;
    for (const Payload& p : parts) {
      expect.insert(expect.end(), p.bytes().begin(), p.bytes().end());
    }
    ASSERT_EQ(joined.size(), expect.size());
    EXPECT_NE(joined.data(), base.data());
    EXPECT_TRUE(std::equal(expect.begin(), expect.end(), joined.data()));
    EXPECT_EQ(joined.digest(), util::fnv1a(expect));
  }
}

TEST(SymbolicPayload, CorruptOverAViewDigestsAndMaterializesExactly) {
  util::BufferPool pool;
  Payload base = counting_bytes(&pool, 200);
  Payload view = Payload::slice(&pool, base, 50, 100);
  const std::uint64_t bit = 3 * 8 + 1;  // byte 3 of the window, bit 1
  std::vector<std::byte> expect(view.bytes().begin(), view.bytes().end());
  expect[3] ^= std::byte{0x02};
  // Digest first (streamed from the window), then materialize.
  Payload c = Payload::corrupt(&pool, view, bit);
  EXPECT_EQ(c.digest(), util::fnv1a(expect));
  Payload c2 = Payload::corrupt(&pool, view, bit);
  EXPECT_TRUE(std::equal(expect.begin(), expect.end(), c2.data()));
  EXPECT_EQ(c2.digest(), c.digest());
  EXPECT_EQ(base[53], std::byte{53}) << "corrupt wrote through the view";
}

TEST(SymbolicPayload, ViewKeepsItsOwnerAlive) {
  util::BufferPool pool;
  Payload view;
  {
    Payload base = counting_bytes(&pool, 128);
    view = Payload::slice(&pool, base, 64, 64);
  }  // last direct handle to the owner dropped here
  EXPECT_EQ(pool.cached_slabs(), 0u) << "owner slab returned while viewed";
  EXPECT_EQ(view[0], std::byte{64});
  EXPECT_EQ(view[63], std::byte{127});
  std::vector<std::byte> expect(64);
  for (std::size_t i = 0; i < 64; ++i) {
    expect[i] = static_cast<std::byte>(64 + i);
  }
  EXPECT_EQ(view.digest(), util::fnv1a(expect));
  view.reset();
  EXPECT_EQ(pool.cached_slabs(), 2u);  // view header + owner slab
}

TEST(SymbolicPayload, SliceOutOfRangeThrowsWithAReason) {
  util::BufferPool pool;
  const Payload bases[] = {counting_bytes(&pool, 64),
                           Payload::pattern(&pool, 0x66ULL, 64),
                           Payload::zeros(&pool, 64)};
  for (const Payload& base : bases) {
    EXPECT_NO_THROW((void)Payload::slice(&pool, base, 64, 0));
    try {
      (void)Payload::slice(&pool, base, 48, 17);
      ADD_FAILURE() << "slice past the end did not throw";
    } catch (const std::out_of_range& e) {
      EXPECT_NE(std::string(e.what()).find("exceed the payload size 64"),
                std::string::npos)
          << e.what();
    }
    // An offset+length that wraps around is out of range too.
    EXPECT_THROW((void)Payload::slice(&pool, base, 8, SIZE_MAX),
                 std::out_of_range);
  }
}

TEST(SymbolicPayload, ConcatRejoinsContiguousPatternSlices) {
  util::BufferPool pool;
  Payload base = Payload::pattern(&pool, 0xc4a7ULL, 999);
  // Split into three uneven segments and rejoin: the inverse of slice.
  const Payload parts[3] = {Payload::slice(&pool, base, 0, 100),
                            Payload::slice(&pool, base, 100, 500),
                            Payload::slice(&pool, base, 600, 399)};
  Payload joined = Payload::concat_payloads(&pool, parts);
  EXPECT_EQ(joined.kind(), net::ContentKind::Pattern);
  EXPECT_FALSE(joined.is_materialized());
  EXPECT_EQ(joined.size(), 999u);
  EXPECT_EQ(joined.digest(), base.digest());
}

TEST(SymbolicPayload, ConcatOfZerosStaysZeros) {
  util::BufferPool pool;
  const Payload parts[3] = {Payload::zeros(&pool, 10), Payload{},
                            Payload::zeros(&pool, 30)};
  Payload joined = Payload::concat_payloads(&pool, parts);
  EXPECT_EQ(joined.kind(), net::ContentKind::Zeros);
  EXPECT_EQ(joined.size(), 40u);
  EXPECT_EQ(joined.digest(), net::fnv1a_zeros(40));
}

TEST(SymbolicPayload, ConcatOfMixedContentsMaterializesExactBytes) {
  util::BufferPool pool;
  // Non-contiguous pattern parts (both restart at offset 0) cannot merge
  // symbolically; the generic path must still produce the exact bytes.
  const Payload parts[2] = {Payload::pattern(&pool, 0x1ULL, 24),
                            Payload::pattern(&pool, 0x2ULL, 40)};
  Payload joined = Payload::concat_payloads(&pool, parts);
  EXPECT_EQ(joined.kind(), net::ContentKind::Concat);
  ASSERT_EQ(joined.size(), 64u);
  for (std::size_t i = 0; i < 24; ++i) {
    EXPECT_EQ(joined[i], net::pattern_byte(0x1ULL, i));
  }
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(joined[24 + i], net::pattern_byte(0x2ULL, i));
  }
  // Single-part concat aliases.
  const Payload one[1] = {parts[0]};
  Payload same = Payload::concat_payloads(&pool, one);
  EXPECT_EQ(same.desc().seed, 0x1ULL);
  EXPECT_EQ(same.size(), 24u);
}

// -------------------------------------------------------------- Concat ropes

/// One random part of 1..200 bytes: an owning Raw, a view, an offset
/// Pattern, Zeros, a Tile, or a Corrupt over one of those. Deterministic
/// in `seed`, so calling twice yields twins with separate headers: one goes
/// into a rope, the other serves as ground truth.
Payload random_part(util::BufferPool* pool, std::uint64_t seed) {
  util::Rng rng(seed);
  const std::size_t n = 1 + rng.below(200);
  const std::size_t skip = rng.below(17);
  const auto leaf = [&](std::uint64_t kind) -> Payload {
    switch (kind) {
      case 0: {
        std::vector<std::byte> bytes(n);
        for (auto& b : bytes) b = static_cast<std::byte>(rng.below(256));
        return Payload::copy_of(pool, bytes);
      }
      case 1: {
        std::vector<std::byte> bytes(n + skip);
        for (auto& b : bytes) b = static_cast<std::byte>(rng.below(256));
        return Payload::slice(pool, Payload::copy_of(pool, bytes), skip, n);
      }
      case 2:
        return Payload::slice(
            pool, Payload::pattern(pool, rng(), n + skip), skip, n);
      case 3:
        return Payload::zeros(pool, n);
      default: {
        const std::uint64_t period = 1 + rng.below(9);
        return Payload::symbolic(
            pool, ContentDesc::tile(rng(), rng.below(13), period,
                                    2 + rng.below(20)));
      }
    }
  };
  const std::uint64_t kind = rng.below(6);
  if (kind < 5) return leaf(kind);
  Payload base = leaf(rng.below(5));
  return Payload::corrupt(pool, base, rng.below(base.size() * 8));
}

std::vector<std::byte> bytes_of(std::span<const Payload> parts) {
  std::vector<std::byte> out;
  for (const Payload& p : parts) {
    out.insert(out.end(), p.bytes().begin(), p.bytes().end());
  }
  return out;
}

TEST(ConcatRope, RandomMixturesJoinAndSliceExactly) {
  util::BufferPool pool;
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    util::Rng rng(0x7095ULL + trial);
    const std::size_t nparts = 2 + rng.below(7);
    std::vector<Payload> parts;
    std::vector<Payload> twins;
    for (std::size_t i = 0; i < nparts; ++i) {
      const std::uint64_t seed = rng();
      parts.push_back(random_part(&pool, seed));
      twins.push_back(random_part(&pool, seed));
    }
    const std::vector<std::byte> expect = bytes_of(twins);
    const std::uint64_t c0 = util::byte_counters().bytes_copied;
    const Payload joined = Payload::concat_payloads(&pool, parts);
    EXPECT_EQ(util::byte_counters().bytes_copied, c0) << "join copied";
    ASSERT_EQ(joined.size(), expect.size()) << "trial " << trial;
    // Digest first (streamed from unmaterialized leaves), then slices,
    // then the bytes themselves.
    EXPECT_EQ(joined.digest(), util::fnv1a(expect)) << "trial " << trial;
    for (int s = 0; s < 4; ++s) {
      const std::size_t off = rng.below(expect.size());
      const std::size_t len = 1 + rng.below(expect.size() - off);
      const Payload sub = Payload::slice(&pool, joined, off, len);
      const auto want = std::span<const std::byte>(expect).subspan(off, len);
      EXPECT_EQ(sub.digest(), util::fnv1a(want))
          << "trial " << trial << " slice " << off << "+" << len;
      ASSERT_EQ(sub.size(), len);
      EXPECT_TRUE(std::equal(want.begin(), want.end(), sub.data()))
          << "trial " << trial << " slice " << off << "+" << len;
    }
    EXPECT_TRUE(std::equal(expect.begin(), expect.end(), joined.data()))
        << "trial " << trial;
    EXPECT_EQ(joined.digest(), util::fnv1a(joined.bytes()));
  }
}

TEST(ConcatRope, ConcatOfRopesFlattens) {
  util::BufferPool pool;
  const Payload a = counting_bytes(&pool, 10);
  const Payload b = Payload::pattern(&pool, 0xf1aULL, 20);
  const Payload c = counting_bytes(&pool, 30);
  const Payload d = Payload::zeros(&pool, 40);
  const Payload ab_parts[2] = {a, b};
  const Payload cd_parts[2] = {c, d};
  const Payload ab = Payload::concat_payloads(&pool, ab_parts);
  const Payload cd = Payload::concat_payloads(&pool, cd_parts);
  ASSERT_EQ(ab.kind(), ContentKind::Concat);
  ASSERT_EQ(cd.kind(), ContentKind::Concat);
  const Payload halves[2] = {ab, cd};
  const std::uint32_t ab_refs = ab.use_count();
  const std::uint32_t a_refs = a.use_count();
  const Payload all = Payload::concat_payloads(&pool, halves);
  EXPECT_EQ(all.kind(), ContentKind::Concat);
  EXPECT_EQ(all.size(), 100u);
  // The outer rope references the leaves, not the inner ropes.
  EXPECT_EQ(ab.use_count(), ab_refs);
  EXPECT_EQ(a.use_count(), a_refs + 1);
  // So a slice at an inner leaf boundary is that leaf.
  EXPECT_EQ(Payload::slice(&pool, all, 30, 30).data(), c.data());
  const Payload ground[4] = {a, b, c, d};
  EXPECT_EQ(all.digest(), util::fnv1a(bytes_of(ground)));
}

TEST(ConcatRope, SliceAtALeafBoundaryAliasesTheLeaf) {
  util::BufferPool pool;
  const Payload parts[3] = {counting_bytes(&pool, 16), counting_bytes(&pool, 32),
                            counting_bytes(&pool, 48)};
  const Payload rope = Payload::concat_payloads(&pool, parts);
  EXPECT_EQ(parts[1].use_count(), 2u);
  const std::uint64_t c0 = util::byte_counters().bytes_copied;
  const Payload mid = Payload::slice(&pool, rope, 16, 32);
  EXPECT_EQ(util::byte_counters().bytes_copied, c0);
  EXPECT_EQ(mid.kind(), ContentKind::Raw);
  EXPECT_EQ(mid.data(), parts[1].data());
  EXPECT_EQ(parts[1].use_count(), 3u);  // the same header, one more handle
  // A range inside one leaf is a view of that leaf.
  const Payload inner = Payload::slice(&pool, rope, 20, 8);
  EXPECT_EQ(inner.data(), parts[1].data() + 4);
  EXPECT_FALSE(rope.is_materialized()) << "slicing materialized the rope";
}

TEST(ConcatRope, SliceAcrossLeavesIsAnExactSubRope) {
  util::BufferPool pool;
  const Payload parts[3] = {counting_bytes(&pool, 16),
                            Payload::pattern(&pool, 0x5b5ULL, 32),
                            counting_bytes(&pool, 48)};
  const Payload rope = Payload::concat_payloads(&pool, parts);
  const std::vector<std::byte> expect = bytes_of(parts);
  const std::uint64_t c0 = util::byte_counters().bytes_copied;
  const Payload sub = Payload::slice(&pool, rope, 10, 60);
  EXPECT_EQ(util::byte_counters().bytes_copied, c0) << "sub-rope copied";
  EXPECT_EQ(sub.kind(), ContentKind::Concat);
  EXPECT_EQ(parts[1].use_count(), 3u) << "whole middle leaf not shared";
  const auto want = std::span<const std::byte>(expect).subspan(10, 60);
  EXPECT_EQ(sub.digest(), util::fnv1a(want));
  ASSERT_EQ(sub.size(), 60u);
  EXPECT_TRUE(std::equal(want.begin(), want.end(), sub.data()));
}

TEST(ConcatRope, RopesOverOneLeafChainHashItOnce) {
  util::BufferPool pool;
  constexpr std::size_t kLeaves = 8;
  constexpr std::size_t kLeafBytes = 4096;
  std::vector<Payload> leaves;
  for (std::size_t i = 0; i < kLeaves; ++i) {
    leaves.push_back(Payload::slice(
        &pool, counting_bytes(&pool, kLeafBytes + i), i, kLeafBytes));
  }
  const std::uint64_t expect = util::fnv1a(bytes_of(leaves));
  // K ranks each build their own rope over the same chain (the
  // Rabenseifner allgather result), then digest it.
  constexpr int kRanks = 16;
  const std::uint64_t h0 = util::byte_counters().bytes_hashed;
  for (int k = 0; k < kRanks; ++k) {
    const Payload rope = Payload::concat_payloads(&pool, leaves);
    EXPECT_EQ(rope.digest(), expect) << "rank " << k;
  }
  EXPECT_EQ(util::byte_counters().bytes_hashed - h0, kLeaves * kLeafBytes);
}

TEST(ConcatRope, CorruptOverARopeIsExact) {
  util::BufferPool pool;
  const auto make = [&pool] {
    const Payload parts[3] = {counting_bytes(&pool, 40),
                              Payload::pattern(&pool, 0xc0ULL, 50),
                              Payload::zeros(&pool, 60)};
    return Payload::concat_payloads(&pool, parts);
  };
  for (const std::uint64_t byte : {0u, 39u, 40u, 77u, 90u, 149u}) {
    const std::uint64_t bit = byte * 8 + byte % 8;
    const Payload ground = make();
    std::vector<std::byte> expect(ground.bytes().begin(), ground.bytes().end());
    expect[byte] ^= std::byte{1} << (byte % 8);
    // Digest over an unmaterialized rope, then over a materialized one.
    const Payload fresh = Payload::corrupt(&pool, make(), bit);
    EXPECT_EQ(fresh.digest(), util::fnv1a(expect)) << "byte " << byte;
    const Payload base = make();
    (void)base.data();
    const Payload warm = Payload::corrupt(&pool, base, bit);
    EXPECT_EQ(warm.digest(), util::fnv1a(expect)) << "byte " << byte;
    ASSERT_EQ(fresh.size(), expect.size());
    EXPECT_TRUE(std::equal(expect.begin(), expect.end(), fresh.data()))
        << "byte " << byte;
  }
}

TEST(ConcatRope, RopeKeepsLeavesAliveAndReturnsEverySlab) {
  util::BufferPool pool;
  Payload rope;
  {
    const Payload owner = counting_bytes(&pool, 64);  // 1 slab
    const Payload parts[3] = {
        counting_bytes(&pool, 8),                     // 1 slab
        Payload::slice(&pool, owner, 32, 16),         // view header
        Payload::pattern(&pool, 0xa11eULL, 24)};      // header
    rope = Payload::concat_payloads(&pool, parts);    // rope header
  }  // every direct handle to the leaves dropped here
  EXPECT_EQ(pool.cached_slabs(), 0u) << "a leaf slab returned while roped";
  std::vector<std::byte> expect;
  for (std::size_t i = 0; i < 8; ++i) expect.push_back(std::byte(i));
  for (std::size_t i = 32; i < 48; ++i) expect.push_back(std::byte(i));
  for (std::size_t i = 0; i < 24; ++i) {
    expect.push_back(net::pattern_byte(0xa11eULL, i));
  }
  EXPECT_EQ(rope.digest(), util::fnv1a(expect));
  ASSERT_EQ(rope.size(), expect.size());
  EXPECT_TRUE(std::equal(expect.begin(), expect.end(), rope.data()));
  rope.reset();
  // Owner, Raw leaf, view, pattern, rope header, materialized rope bytes.
  EXPECT_EQ(pool.cached_slabs(), 6u);
}

TEST(ConcatRope, CopyToWritesContentsWithoutMaterializing) {
  util::BufferPool pool;
  const Payload parts[2] = {counting_bytes(&pool, 16),
                            Payload::pattern(&pool, 0xc0deULL, 48)};
  const Payload rope = Payload::concat_payloads(&pool, parts);
  std::vector<std::byte> out(64);
  const std::uint64_t c0 = util::byte_counters().bytes_copied;
  const std::uint64_t mat0 = util::byte_counters().materializations;
  rope.copy_to(out.data());
  EXPECT_EQ(util::byte_counters().bytes_copied - c0, 64u);
  EXPECT_EQ(util::byte_counters().materializations, mat0);
  EXPECT_FALSE(rope.is_materialized());
  EXPECT_FALSE(parts[1].is_materialized());
  EXPECT_EQ(util::fnv1a(out), rope.digest());
  EXPECT_EQ(out, bytes_of(parts));
}

// ------------------------------------------- host-byte digests hash once

/// Bytes fed through FNV byte steps for a digest of `bytes`: every 64-byte
/// block (counted from the start) that is not all zero, plus the tail.
std::uint64_t expected_hashed(std::span<const std::byte> bytes) {
  std::uint64_t fed = bytes.size() % 64;
  for (std::size_t b = 0; b + 64 <= bytes.size(); b += 64) {
    if (std::any_of(bytes.begin() + b, bytes.begin() + b + 64,
                    [](std::byte x) { return x != std::byte{0}; })) {
      fed += 64;
    }
  }
  return fed;
}

/// n bytes of a seeded stream with no zero byte.
std::vector<std::byte> nonzero_bytes(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng() | 1);
  return out;
}

TEST(HostDigest, AllZeroBlocksFoldInClosedForm) {
  util::BufferPool pool;
  net::clear_digest_memos();
  std::uint64_t trial = 0;
  for (std::size_t align = 0; align < 64; ++align) {
    for (std::size_t tail : {0u, 1u, 31u, 63u}) {
      // Below and above the live-table threshold: both hash host bytes.
      for (std::size_t blocks : {1u, 3u, 9u}) {
        const std::size_t n = 64 * blocks + tail;
        std::vector<std::byte> bytes = nonzero_bytes(0x2e40ULL + trial++, n);
        // A zero run from `align` over about two blocks, and a zero tail.
        const std::size_t run = std::min<std::size_t>(130 + align, n - align);
        std::fill_n(bytes.begin() + static_cast<std::ptrdiff_t>(align), run,
                    std::byte{0});
        std::fill_n(bytes.end() - static_cast<std::ptrdiff_t>(tail / 2),
                    tail / 2, std::byte{0});
        const Payload p = Payload::copy_of(&pool, bytes);
        const std::uint64_t h0 = util::byte_counters().bytes_hashed;
        EXPECT_EQ(p.digest(), util::fnv1a(bytes))
            << "align=" << align << " n=" << n;
        EXPECT_EQ(util::byte_counters().bytes_hashed - h0,
                  expected_hashed(bytes))
            << "align=" << align << " n=" << n;
        // A view folds the blocks counted from its own first byte.
        const Payload view = Payload::slice(&pool, p, align, n - align);
        EXPECT_EQ(view.digest(),
                  util::fnv1a(std::span<const std::byte>(bytes).subspan(align)))
            << "align=" << align << " n=" << n;
      }
    }
  }
  // An all-zero buffer feeds only its tail.
  const std::vector<std::byte> zeros(64 * 5 + 7, std::byte{0});
  const Payload z = Payload::copy_of(&pool, zeros);
  const std::uint64_t h0 = util::byte_counters().bytes_hashed;
  EXPECT_EQ(z.digest(), util::fnv1a(zeros));
  EXPECT_EQ(util::byte_counters().bytes_hashed - h0, 7u);
}

TEST(HostDigest, NonZeroRunsMatchScalarAndCountExactly) {
  // Runs of one to nine non-zero blocks between zero runs, then a tail:
  // each run is one kernel call, and only its bytes count as hashed.
  util::BufferPool pool;
  net::clear_digest_memos();
  util::Rng rng(0x4a11ULL);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<std::byte> bytes;
    while (bytes.size() < 64 * 48) {
      const auto run = nonzero_bytes(rng(), 64 * (1 + rng() % 9));
      bytes.insert(bytes.end(), run.begin(), run.end());
      bytes.resize(bytes.size() + 64 * (rng() % 3), std::byte{0});
    }
    const auto tail = nonzero_bytes(rng(), static_cast<std::size_t>(rng() % 64));
    bytes.insert(bytes.end(), tail.begin(), tail.end());
    const Payload p = Payload::copy_of(&pool, bytes);
    const std::uint64_t h0 = util::byte_counters().bytes_hashed;
    EXPECT_EQ(p.digest(), util::fnv1a_scalar(bytes)) << "trial " << trial;
    EXPECT_EQ(util::byte_counters().bytes_hashed - h0, expected_hashed(bytes))
        << "trial " << trial;
  }
}

TEST(LiveDigestTable, EqualLiveBufferIsHashedOnce) {
  util::BufferPool pool;
  net::clear_digest_memos();
  const std::vector<std::byte> bytes = nonzero_bytes(0x11ULL, 4096);
  const Payload a = Payload::copy_of(&pool, bytes);
  const Payload b = Payload::copy_of(&pool, bytes);
  const std::uint64_t h0 = util::byte_counters().bytes_hashed;
  EXPECT_EQ(a.digest(), util::fnv1a(bytes));
  EXPECT_EQ(util::byte_counters().bytes_hashed - h0, 4096u);
  const std::uint64_t h1 = util::byte_counters().bytes_hashed;
  EXPECT_EQ(b.digest(), util::fnv1a(bytes));
  EXPECT_EQ(util::byte_counters().bytes_hashed, h1) << "equal buffer rehashed";
  // Below the threshold every buffer hashes its own bytes.
  const std::vector<std::byte> small(bytes.begin(), bytes.begin() + 255);
  const Payload c = Payload::copy_of(&pool, small);
  const Payload d = Payload::copy_of(&pool, small);
  (void)c.digest();
  const std::uint64_t h2 = util::byte_counters().bytes_hashed;
  EXPECT_EQ(d.digest(), util::fnv1a(small));
  EXPECT_EQ(util::byte_counters().bytes_hashed - h2, 255u);
}

TEST(LiveDigestTable, DestroyedBufferNoLongerServes) {
  util::BufferPool pool;
  net::clear_digest_memos();
  const std::vector<std::byte> bytes = nonzero_bytes(0x12ULL, 1024);
  Payload a = Payload::copy_of(&pool, bytes);
  const Payload b = Payload::copy_of(&pool, bytes);
  (void)a.digest();
  const std::uint64_t h0 = util::byte_counters().bytes_hashed;
  (void)b.digest();
  EXPECT_EQ(util::byte_counters().bytes_hashed, h0);
  // b was served, not registered: once a is gone nothing holds the slot.
  a.reset();
  const Payload c = Payload::copy_of(&pool, bytes);
  EXPECT_EQ(c.digest(), util::fnv1a(bytes));
  EXPECT_EQ(util::byte_counters().bytes_hashed - h0, 1024u);
}

TEST(LiveDigestTable, BuffersThatDifferOnlyOffTheSamplesNeverShare) {
  // Flipping one byte at every position of a 512-byte buffer: most
  // positions lie outside the sampled words, so those twins agree on the
  // table key and only the full compare tells them apart.
  util::BufferPool pool;
  net::clear_digest_memos();
  const std::vector<std::byte> bytes = nonzero_bytes(0x13ULL, 512);
  for (std::size_t k = 0; k < bytes.size(); ++k) {
    std::vector<std::byte> twin = bytes;
    twin[k] ^= std::byte{0x80};
    const Payload a = Payload::copy_of(&pool, bytes);
    const Payload b = Payload::copy_of(&pool, twin);
    ASSERT_EQ(a.digest(), util::fnv1a(bytes)) << "k=" << k;
    const std::uint64_t h0 = util::byte_counters().bytes_hashed;
    ASSERT_EQ(b.digest(), util::fnv1a(twin)) << "k=" << k;
    EXPECT_EQ(util::byte_counters().bytes_hashed - h0, 512u) << "k=" << k;
  }
}

TEST(LiveDigestTable, EvictedHeaderDestroyLeavesTheNewOwnerIntact) {
  // b evicts a whenever they share a slot (most positions k: same length,
  // same sampled words); a's destroy must then leave b's entry alone.
  util::BufferPool pool;
  net::clear_digest_memos();
  const std::vector<std::byte> bytes = nonzero_bytes(0x14ULL, 512);
  for (std::size_t k = 0; k < bytes.size(); ++k) {
    std::vector<std::byte> twin = bytes;
    twin[k] ^= std::byte{0x80};
    Payload a = Payload::copy_of(&pool, bytes);
    const Payload b = Payload::copy_of(&pool, twin);
    (void)a.digest();
    (void)b.digest();
    a.reset();
    const Payload c = Payload::copy_of(&pool, twin);
    const std::uint64_t h0 = util::byte_counters().bytes_hashed;
    ASSERT_EQ(c.digest(), util::fnv1a(twin)) << "k=" << k;
    EXPECT_EQ(util::byte_counters().bytes_hashed, h0)
        << "slot owner lost, k=" << k;
  }
}

TEST(LiveDigestTable, EqualLeavesOnDistinctRopesHashOnce) {
  // Two ranks each receive their own copies of the same two blocks and
  // join them: the second leaf of each rope resumes from a non-basis
  // state, and the second rope's leaves are served from the first's.
  util::BufferPool pool;
  net::clear_digest_memos();
  const std::vector<std::byte> first = nonzero_bytes(0x17ULL, 1024);
  const std::vector<std::byte> second = nonzero_bytes(0x18ULL, 768);
  std::vector<std::byte> joined = first;
  joined.insert(joined.end(), second.begin(), second.end());
  const auto rope_of_copies = [&] {
    const Payload parts[] = {Payload::copy_of(&pool, first),
                             Payload::copy_of(&pool, second)};
    return Payload::concat_payloads(&pool, parts);
  };
  const Payload a = rope_of_copies();
  const Payload b = rope_of_copies();
  ASSERT_EQ(a.kind(), ContentKind::Concat);
  ASSERT_EQ(b.kind(), ContentKind::Concat);
  const std::uint64_t h0 = util::byte_counters().bytes_hashed;
  EXPECT_EQ(a.digest(), util::fnv1a(joined));
  EXPECT_EQ(util::byte_counters().bytes_hashed - h0, joined.size());
  const std::uint64_t h1 = util::byte_counters().bytes_hashed;
  EXPECT_EQ(b.digest(), util::fnv1a(joined));
  EXPECT_EQ(util::byte_counters().bytes_hashed, h1) << "equal leaves rehashed";
}

TEST(LiveDigestTable, HeaderOwnsAtMostOneSlot) {
  // x takes a basis slot, then a continuation slot as a rope's second
  // leaf. Once x is gone, its slab comes back with a twin of its bytes
  // that differs off the sampled words, so the twin's key equals x's basis
  // key: an entry x left behind would serve x's digest for the twin.
  util::BufferPool pool;
  net::clear_digest_memos();
  const std::vector<std::byte> bytes = nonzero_bytes(0x19ULL, 512);
  const Payload head = Payload::copy_of(&pool, nonzero_bytes(0x1aULL, 300));
  for (std::size_t k = 0; k < bytes.size(); ++k) {
    const std::byte* slab = nullptr;
    {
      const Payload x = Payload::copy_of(&pool, bytes);
      slab = x.data();
      ASSERT_EQ(x.digest(), util::fnv1a(bytes));
      const Payload parts[] = {head, x};
      (void)Payload::concat_payloads(&pool, parts).digest();
    }
    std::vector<std::byte> twin = bytes;
    twin[k] ^= std::byte{0x80};
    const Payload z = Payload::copy_of(&pool, twin);
    ASSERT_EQ(z.data(), slab) << "the pool did not reuse x's slab";
    ASSERT_EQ(z.digest(), util::fnv1a(twin)) << "stale hit, k=" << k;
  }
}

TEST(LiveDigestTable, DigestingAllocatesNothing) {
  util::BufferPool pool;
  net::clear_digest_memos();
  const std::vector<std::byte> bytes = nonzero_bytes(0x15ULL, 2048);
  const Payload warm = Payload::copy_of(&pool, nonzero_bytes(0x16ULL, 300));
  (void)warm.digest();  // first touch of this thread's table
  const Payload a = Payload::copy_of(&pool, bytes);
  const Payload b = Payload::copy_of(&pool, bytes);
  const std::uint64_t before = util::alloc_count();
  const std::uint64_t da = a.digest();  // registers a
  const std::uint64_t db = b.digest();  // served from a
  EXPECT_EQ(util::alloc_count() - before, 0u);
  EXPECT_EQ(da, db);
}

// ------------------------------------------------------ lazy materialization

TEST(SymbolicPayload, MaterializationHappensExactlyOnce) {
  util::BufferPool pool;
  Payload p = Payload::pattern(&pool, 0x11ULL, 5000);
  Payload alias = p;
  EXPECT_FALSE(p.is_materialized());

  const std::uint64_t mat0 = util::byte_counters().materializations;
  const std::uint64_t copied0 = util::byte_counters().bytes_copied;
  const std::byte* d1 = p.data();
  EXPECT_TRUE(p.is_materialized());
  EXPECT_TRUE(alias.is_materialized());  // shared header
  EXPECT_EQ(util::byte_counters().materializations - mat0, 1u);
  EXPECT_EQ(util::byte_counters().bytes_copied - copied0, 5000u);

  // Further access — including through the alias — reuses the same bytes.
  const std::byte* d2 = alias.data();
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(util::byte_counters().materializations - mat0, 1u);
  EXPECT_EQ(util::byte_counters().bytes_copied - copied0, 5000u);
}

TEST(SymbolicPayload, DigestNeverMaterializesAndIsCached) {
  util::BufferPool pool;
  const std::uint64_t mat0 = util::byte_counters().materializations;
  Payload p = Payload::pattern(&pool, 0x222ULL, 1 << 20);
  const std::uint64_t h0 = util::byte_counters().bytes_hashed;
  (void)p.digest();
  EXPECT_EQ(util::byte_counters().materializations, mat0);
  EXPECT_GE(util::byte_counters().bytes_hashed - h0, 1u << 20);
  // Cached in the header: a second digest() hashes nothing.
  const std::uint64_t h1 = util::byte_counters().bytes_hashed;
  (void)p.digest();
  EXPECT_EQ(util::byte_counters().bytes_hashed, h1);
}

TEST(SymbolicPayload, PatternDigestMemoMakesRepeatedShapesFree) {
  util::BufferPool pool;
  // Same (seed, len) as a fresh payload: the per-thread memo serves it.
  Payload a = Payload::pattern(&pool, 0x333ULL, 123457);
  (void)a.digest();
  const std::uint64_t h0 = util::byte_counters().bytes_hashed;
  Payload b = Payload::pattern(&pool, 0x333ULL, 123457);
  EXPECT_EQ(b.digest(), a.digest());
  EXPECT_EQ(util::byte_counters().bytes_hashed, h0) << "memo miss";
}

TEST(SymbolicPayload, GigabyteZerosDigestIsClosedForm) {
  // O(log n) closed form: no hashing, no materialization, no allocation of
  // the logical size — this is the GB-scale case the design exists for.
  util::BufferPool pool;
  const std::size_t gb = std::size_t{1} << 30;
  Payload p = Payload::zeros(&pool, gb);
  const std::uint64_t h0 = util::byte_counters().bytes_hashed;
  const std::uint64_t c0 = util::byte_counters().bytes_copied;
  EXPECT_EQ(p.digest(), net::fnv1a_zeros(gb));
  EXPECT_EQ(util::byte_counters().bytes_hashed, h0);
  EXPECT_EQ(util::byte_counters().bytes_copied, c0);
  EXPECT_FALSE(p.is_materialized());
  EXPECT_EQ(p.size(), gb);
}

// ----------------------------------------------------------------- Corrupt

TEST(SymbolicPayload, CorruptDigestDiffersFromBaseAndMatchesBytes) {
  util::BufferPool pool;
  // Over every base kind, including a Raw buffer.
  const std::vector<std::byte> raw_bytes(300, std::byte{0x5a});
  const Payload bases[] = {
      Payload::copy_of(&pool, raw_bytes),
      Payload::zeros(&pool, 300),
      Payload::pattern(&pool, 0x444ULL, 300),
  };
  for (const Payload& base : bases) {
    const std::uint64_t bit = 7 * 8 + 6;  // byte 7, bit 6 (the SDC position)
    Payload c = Payload::corrupt(&pool, base, bit);
    EXPECT_EQ(c.size(), base.size());
    EXPECT_NE(c.digest(), base.digest());
    EXPECT_EQ(c.digest(), util::fnv1a(c.bytes()));
    // Exactly one bit differs from the base contents.
    const std::byte* cb = c.data();
    const std::byte* bb = base.data();
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (i == 7) {
        EXPECT_EQ(cb[i], bb[i] ^ std::byte{0x40});
      } else {
        EXPECT_EQ(cb[i], bb[i]) << "i=" << i;
      }
    }
  }
}

TEST(SymbolicPayload, CorruptIsO1AtCreation) {
  util::BufferPool pool;
  Payload base = Payload::pattern(&pool, 0x555ULL, 1 << 22);
  const std::uint64_t c0 = util::byte_counters().bytes_copied;
  Payload c = Payload::corrupt(&pool, base, 6);
  EXPECT_EQ(util::byte_counters().bytes_copied, c0) << "corrupt cloned bytes";
  EXPECT_FALSE(c.is_materialized());
  EXPECT_EQ(base.use_count(), 2u);  // aliased, not copied
}

// ----------------------------------------------------- pool/slab mechanics

TEST(SymbolicPayload, MaterializedSlabReturnsToItsOwnPool) {
  util::BufferPool pool_a;
  util::BufferPool pool_b;
  {
    Payload pa = Payload::pattern(&pool_a, 1, 500);
    Payload pb = Payload::pattern(&pool_b, 2, 500);
    (void)pa.data();
    (void)pb.data();
  }
  // Header slab + materialized slab per payload, each home again.
  EXPECT_EQ(pool_a.cached_slabs(), 2u);
  EXPECT_EQ(pool_b.cached_slabs(), 2u);
}

TEST(SymbolicPayload, PoollessSymbolicHandlesUseTheHeap) {
  Payload p = Payload::pattern(nullptr, 3, 64);
  EXPECT_EQ(p.digest(), util::fnv1a(p.bytes()));
}

// ----------------------------------------------------------- fresh slabs

TEST(FreshSlab, ZeroLengthIsAnEmptyHandle) {
  util::BufferPool pool;
  std::byte sentinel{};
  std::byte* data = &sentinel;  // must be reset
  const Payload p = Payload::fresh(&pool, 0, data);
  EXPECT_FALSE(p);
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(data, nullptr);
  EXPECT_EQ(p.digest(), util::kFnvOffset);
}

TEST(FreshSlab, FillingInPlaceCopiesNothingAndDigestsTheWrittenBytes) {
  util::BufferPool pool;
  net::clear_digest_memos();
  const std::vector<std::byte> expect = nonzero_bytes(0xf7e5ULL, 5000);
  const std::uint64_t c0 = util::byte_counters().bytes_copied;
  std::byte* data = nullptr;
  Payload p = Payload::fresh(&pool, expect.size(), data);
  ASSERT_NE(data, nullptr);
  std::copy(expect.begin(), expect.end(), data);  // the writer's own fill
  EXPECT_EQ(util::byte_counters().bytes_copied, c0)
      << "fresh must not count a copy";
  EXPECT_EQ(p.kind(), ContentKind::Raw);
  EXPECT_EQ(p.size(), expect.size());
  EXPECT_EQ(p.data(), data);
  EXPECT_EQ(p.digest(), util::fnv1a(expect));
  EXPECT_TRUE(std::equal(expect.begin(), expect.end(), p.data()));
  p.reset();
  EXPECT_EQ(pool.cached_slabs(), 1u);  // the slab went home
}

// --------------------------------------------------------- end-to-end MPI

TEST(SymbolicEndToEnd, SymbolicSendToSinkRecvNeverTouchesBytes) {
  core::RunConfig cfg;
  cfg.nranks = 2;
  const std::size_t size = std::size_t{4} << 20;  // rendezvous-sized
  auto res = core::run(cfg, [size](mpi::Env& env) {
    auto& world = env.world();
    const auto desc = net::ContentDesc::pattern(0x777ULL, size);
    if (env.rank() == 0) {
      world.send_symbolic(desc, 1, 5);
    } else {
      auto req = world.irecv_sink(size, 0, 5);
      world.wait(req);
      EXPECT_EQ(req->status.bytes, size);
      EXPECT_FALSE(req->recv_payload.is_materialized());
      // The delivered handle digests to the sender's contents.
      util::Checksum cs;
      cs.add_u64(req->recv_payload.digest());
      env.report_checksum(cs.digest());
    }
  });
  ASSERT_TRUE(test::run_clean(res));
  // Wire accounting saw the full message; the host never copied it.
  EXPECT_GE(res.fabric.payload_bytes, size);
  EXPECT_LT(res.bytes_copied, std::size_t{64} << 10);
}

// A materialized skeleton block is generated straight into its payload
// slab, and the allgather forwards handles, so the host copies only frame
// headers — not the 1 MiB blocks the wire carries. The symbolic twin
// delivers the same contents.
TEST(SymbolicEndToEnd, MaterializedSymCollAllgatherCopiesNoBlockBytes) {
  constexpr std::size_t kBlock = std::size_t{1} << 20;
  core::RunConfig cfg;
  cfg.nranks = 4;
  const auto app = [](wl::PayloadMode mode) {
    return [mode](mpi::Env& env) {
      wl::SymColl coll(env.world(), mode, /*seed=*/0x5a11ULL);
      util::Checksum cs;
      coll.allgather(kBlock, /*tag=*/3, cs);
      env.report_checksum(cs.digest());
    };
  };
  const auto mat = core::run(cfg, app(wl::PayloadMode::Materialized));
  ASSERT_TRUE(test::run_clean(mat));
  EXPECT_GE(mat.fabric.payload_bytes, 3 * kBlock);
  EXPECT_LT(mat.bytes_copied, std::size_t{64} << 10);
  const auto sym = core::run(cfg, app(wl::PayloadMode::Symbolic));
  ASSERT_TRUE(test::run_clean(sym));
  ASSERT_EQ(sym.slots.size(), mat.slots.size());
  for (std::size_t s = 0; s < sym.slots.size(); ++s) {
    EXPECT_EQ(sym.slots[s].checksum, mat.slots[s].checksum) << "slot " << s;
  }
}

TEST(SymbolicEndToEnd, SymbolicSendIntoRealBufferMaterializesTheContents) {
  core::RunConfig cfg;
  cfg.nranks = 2;
  constexpr std::size_t kSize = 2048;
  auto res = core::run(cfg, [](mpi::Env& env) {
    auto& world = env.world();
    if (env.rank() == 0) {
      world.send_symbolic(net::ContentDesc::pattern(0x888ULL, kSize), 1, 5);
    } else {
      std::vector<std::byte> buf(kSize);
      world.recv(std::span<std::byte>(buf), 0, 5);
      for (std::size_t i = 0; i < kSize; ++i) {
        ASSERT_EQ(buf[i], net::pattern_byte(0x888ULL, i)) << "i=" << i;
      }
    }
  });
  ASSERT_TRUE(test::run_clean(res));
}

TEST(SymbolicEndToEnd, SinkRecvOfRawSendKeepsDeliveredContents) {
  core::RunConfig cfg;
  cfg.nranks = 2;
  auto res = core::run(cfg, [](mpi::Env& env) {
    auto& world = env.world();
    const std::vector<std::byte> data(777, std::byte{0x31});
    if (env.rank() == 0) {
      world.send(std::span<const std::byte>(data), 1, 5);
    } else {
      auto req = world.irecv_sink(1024, 0, 5);
      world.wait(req);
      EXPECT_EQ(req->status.bytes, 777u);
      EXPECT_EQ(req->recv_payload.digest(), util::fnv1a(data));
    }
  });
  ASSERT_TRUE(test::run_clean(res));
}

// redMPI SDC pin: the O(1) Corrupt wrapper must still be detected through
// digest comparison — on the raw path AND on the fully symbolic path.
TEST(SymbolicEndToEnd, RedMpiDetectsCorruptWrapperOnSymbolicTraffic) {
  for (const bool symbolic : {false, true}) {
    core::RunConfig cfg;
    cfg.nranks = 2;
    cfg.replication = 2;
    cfg.protocol = core::ProtocolKind::RedMpiSd;
    cfg.sdc.push_back({.slot = 0, .at_send = 1});
    auto res = core::run(cfg, [symbolic](mpi::Env& env) {
      auto& world = env.world();
      const std::size_t size = 4096;
      const std::vector<std::byte> data(size, std::byte{0x21});
      const auto desc = net::ContentDesc::pattern(0x999ULL, size);
      const int peer = env.rank() ^ 1;
      for (int i = 0; i < 3; ++i) {
        if (env.rank() == 0) {
          if (symbolic) {
            world.send_symbolic(desc, peer, 1);
            (void)world.recv_sink(size, peer, 1);
          } else {
            std::vector<std::byte> buf(size);
            world.send(std::span<const std::byte>(data), peer, 1);
            world.recv(std::span<std::byte>(buf), peer, 1);
          }
        } else {
          if (symbolic) {
            (void)world.recv_sink(size, peer, 1);
            world.send_symbolic(desc, peer, 1);
          } else {
            std::vector<std::byte> buf(size);
            world.recv(std::span<std::byte>(buf), peer, 1);
            world.send(std::span<const std::byte>(data), peer, 1);
          }
        }
      }
    });
    ASSERT_TRUE(test::run_clean(res)) << "symbolic=" << symbolic;
    EXPECT_GE(res.protocol.sdc_detected, 1u) << "symbolic=" << symbolic;
  }
}

}  // namespace
}  // namespace sdrmpi
