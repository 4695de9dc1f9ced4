// Payload: an immutable, refcounted byte buffer drawn from a BufferPool —
// or a *symbolic* content descriptor that never stores its bytes at all.
//
// One Payload handle is a single pointer; copying bumps a (non-atomic)
// refcount, and the last handle returns the slab to the pool it came from
// instead of the heap. This is what lets a replicated send share ONE buffer
// across r replica copies, the sender-side retransmission store, and the
// receiver's unexpected/parked queues — where the seed code re-copied the
// bytes at every hand-off.
//
// Raw payloads own their bytes inline in the slab — or are *views*: a
// header-only window [offset, offset+size) into another Raw payload's
// bytes (slice() of Raw). A view refcounts its owner, never another view,
// so the owner lives as long as any window onto it; concat_payloads() of
// contiguous views re-joins them without a copy.
//
// Symbolic payloads (Zeros / Pattern / Tile / Corrupt, see content.hpp)
// carry only a header: size() and wire-byte accounting see the logical
// length, but no host byte is touched until someone actually asks for
// contents:
//   * data()/bytes() materialize lazily — exactly once per payload, into a
//     pool slab shared by every aliasing handle;
//   * digest() never materializes: Zeros digests in O(log n) closed form,
//     Pattern and Tile digests stream the generator once per shape and are
//     memoized per host thread, Corrupt streams its base with the bit
//     flipped. digest() always equals fnv1a over the materialized bytes.
// That makes GB-scale simulated messages O(1) host work end to end (send,
// redMPI hash compare, SDC injection, ack/retransmission buffering).
//
// Thread-confinement: a Payload must stay on the host thread of the Engine
// whose pool it came from (one run = one thread, like everything else in a
// World). Pool-less Payloads (pool = nullptr) use the plain heap and exist
// for standalone tests.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>

#include "sdrmpi/net/content.hpp"
#include "sdrmpi/util/buffer_pool.hpp"
#include "sdrmpi/util/byte_counter.hpp"

namespace sdrmpi::net {

class Payload {
 public:
  Payload() noexcept = default;

  Payload(const Payload& other) noexcept : h_(other.h_) {
    if (h_ != nullptr) ++h_->refs;
  }

  Payload(Payload&& other) noexcept : h_(std::exchange(other.h_, nullptr)) {}

  Payload& operator=(const Payload& other) noexcept {
    Payload tmp(other);
    std::swap(h_, tmp.h_);
    return *this;
  }

  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      release();
      h_ = std::exchange(other.h_, nullptr);
    }
    return *this;
  }

  ~Payload() { release(); }

  /// Copies `bytes` into a slab from `pool` (heap when pool is null).
  /// An empty span yields an empty (null) handle.
  [[nodiscard]] static Payload copy_of(util::BufferPool* pool,
                                       std::span<const std::byte> bytes) {
    if (bytes.empty()) return {};
    Payload p(pool, bytes.size(), bytes.size());
    std::memcpy(p.mutable_data(), bytes.data(), bytes.size());
    util::count_bytes_copied(bytes.size());
    return p;
  }

  /// Copies `bytes` like copy_of, but hands back a mutable view of the
  /// fresh slab through `data` so the caller can transform the contents in
  /// place *before* the handle is shared — the collective engine's
  /// reduction combine (copy operand a, fold operand b in) costs one copy
  /// instead of scratch + copy. The view is only valid until the handle
  /// is aliased; after that the payload is immutable like any other.
  [[nodiscard]] static Payload copy_of_mutable(util::BufferPool* pool,
                                               std::span<const std::byte> bytes,
                                               std::byte*& data) {
    Payload p = copy_of(pool, bytes);
    data = p.h_ != nullptr ? slab_data(p.h_) : nullptr;
    return p;
  }

  /// Copies a trivially-copyable object's bytes (frame headers).
  template <class T>
  [[nodiscard]] static Payload copy_of_object(util::BufferPool* pool,
                                              const T& obj) {
    static_assert(std::is_trivially_copyable_v<T>);
    return copy_of(pool, std::span<const std::byte>(
                             reinterpret_cast<const std::byte*>(&obj),
                             sizeof(T)));
  }

  /// Concatenates two spans into one buffer (header + inline payload).
  [[nodiscard]] static Payload concat(util::BufferPool* pool,
                                      std::span<const std::byte> head,
                                      std::span<const std::byte> tail) {
    if (head.empty() && tail.empty()) return {};
    Payload p(pool, head.size() + tail.size(), head.size() + tail.size());
    if (!head.empty()) {
      std::memcpy(p.mutable_data(), head.data(), head.size());
    }
    if (!tail.empty()) {
      std::memcpy(p.mutable_data() + head.size(), tail.data(), tail.size());
    }
    util::count_bytes_copied(head.size() + tail.size());
    return p;
  }

  /// Symbolic payload from a content descriptor: O(1) regardless of
  /// desc.len (allocates only the header slab). Empty lengths yield an
  /// empty handle; Raw descriptors are invalid here (they have no bytes to
  /// draw from).
  [[nodiscard]] static Payload symbolic(util::BufferPool* pool,
                                        const ContentDesc& desc);
  [[nodiscard]] static Payload zeros(util::BufferPool* pool, std::size_t n) {
    return symbolic(pool, ContentDesc::zeros(n));
  }
  [[nodiscard]] static Payload pattern(util::BufferPool* pool,
                                       std::uint64_t seed, std::size_t n) {
    return symbolic(pool, ContentDesc::pattern(seed, n));
  }

  /// Sub-range [off, off+len) of `base`'s contents. Exact descriptor
  /// algebra where it exists: a slice of Zeros is Zeros, a slice of
  /// Pattern(seed) is Pattern(seed) at a shifted stream offset — both O(1),
  /// no byte touched. A slice of Raw is a zero-copy view onto the owning
  /// slab (a slice of a view points at the same owner); only Corrupt bases
  /// copy the sub-span into a fresh slab. The collective engine's scatter
  /// and Bruck schedules are built on this: segments of a broadcast stay
  /// symbolic, or alias the root's buffer, end to end. Throws
  /// std::out_of_range when the range exceeds base.size() (in every build:
  /// a view past the end would alias foreign memory).
  [[nodiscard]] static Payload slice(util::BufferPool* pool,
                                     const Payload& base, std::size_t off,
                                     std::size_t len);

  /// Joins `parts` in order into one payload. Exact where the descriptor
  /// algebra allows: all-Zeros parts stay Zeros, stream-contiguous
  /// same-seed Pattern parts merge back into one Pattern descriptor and
  /// contiguous Raw views of one owner re-join into one view — the owner
  /// itself when they cover it (both the inverse of slice) — and
  /// repetitions of one identical Pattern block (Pattern or Tile parts
  /// sharing seed/offset/period) fold into a Tile — the allgather case,
  /// where every rank contributes the same symbolic block. Otherwise every part materializes once and the bytes are
  /// packed into a fresh Raw slab. Empty parts are skipped; a single
  /// non-empty part is aliased, not copied.
  [[nodiscard]] static Payload concat_payloads(util::BufferPool* pool,
                                               std::span<const Payload> parts);

  /// `base` with bit `bit_index` (byte bit_index/8, bit bit_index%8)
  /// flipped — the O(1) SDC-injection wrapper: no bytes are cloned, the
  /// base buffer is aliased via refcount and the flip is applied on
  /// materialization / streamed into the digest.
  [[nodiscard]] static Payload corrupt(util::BufferPool* pool,
                                       const Payload& base,
                                       std::uint64_t bit_index);

  /// Contents as bytes; symbolic payloads materialize lazily (exactly once,
  /// shared by all aliasing handles). Prefer size()/digest() where possible
  /// — they never materialize.
  [[nodiscard]] const std::byte* data() const {
    if (h_ == nullptr) return nullptr;
    return h_->kind == ContentKind::Raw ? raw_data(h_) : materialize(h_);
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return h_ != nullptr ? h_->size : 0;
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] explicit operator bool() const noexcept {
    return h_ != nullptr;
  }

  [[nodiscard]] std::span<const std::byte> bytes() const {
    return {data(), size()};
  }

  [[nodiscard]] std::byte operator[](std::size_t i) const {
    assert(i < size());
    return data()[i];
  }

  /// fnv1a digest of the contents (== util::fnv1a(bytes()) always), cached
  /// in the shared header so aliases — including the receive side of a
  /// zero-copy delivery — reuse one computation. Symbolic payloads digest
  /// without materializing; repeated Pattern shapes hit a per-thread
  /// (seed, len) memo and cost O(1). Empty handles digest to kFnvOffset
  /// like the empty span.
  [[nodiscard]] std::uint64_t digest() const;

  [[nodiscard]] ContentKind kind() const noexcept {
    return h_ != nullptr ? h_->kind : ContentKind::Raw;
  }
  /// Content descriptor view (kind/len/seed/offset/period) — lets callers
  /// reason about the slice/concat algebra without touching bytes.
  [[nodiscard]] ContentDesc desc() const noexcept {
    if (h_ == nullptr) return ContentDesc{ContentKind::Zeros, 0, 0, 0, 0};
    return {h_->kind, h_->size, h_->seed, h_->offset,
            h_->kind == ContentKind::Tile ? h_->bit_index : 0};
  }
  [[nodiscard]] bool is_symbolic() const noexcept {
    return h_ != nullptr && h_->kind != ContentKind::Raw;
  }
  /// True once contents exist as host bytes (Raw always; symbolic after
  /// the first data() call).
  [[nodiscard]] bool is_materialized() const noexcept {
    return h_ != nullptr &&
           (h_->kind == ContentKind::Raw || h_->mat != nullptr);
  }

  /// Handles sharing this buffer (test/diagnostic; 0 for empty handles).
  [[nodiscard]] std::uint32_t use_count() const noexcept {
    return h_ != nullptr ? h_->refs : 0;
  }

  void reset() noexcept {
    release();
    h_ = nullptr;
  }

 private:
  /// Slab layout: [Header][data bytes for an owning Raw]. The header
  /// records which pool (and free-list class) the slab returns to, so a
  /// Payload can outlive the Fabric/Endpoint that made it as long as the
  /// Engine (pool owner) lives. Raw views and symbolic kinds store no
  /// inline bytes; a symbolic kind's lazily materialized buffer and every
  /// kind's cached digest live in the shared header so every aliasing
  /// handle benefits.
  struct Header {
    std::uint32_t refs;
    std::uint32_t size_class;
    std::size_t size;
    util::BufferPool* pool;

    ContentKind kind;
    bool digest_valid;
    std::uint64_t seed;       // Pattern/Tile generator seed
    std::uint64_t offset;     // Pattern/Tile stream position of byte 0;
                              // Raw view: window start in the owner
    std::uint64_t bit_index;  // Corrupt flip position; Tile period (bytes)
    Header* base;             // refcounted: Corrupt base contents, Raw
                              // view owner, Tile's shared block slice
    void* mat;                // lazily materialized bytes (symbolic kinds)
    std::uint32_t mat_class;
    std::uint64_t digest;
  };

  Payload(util::BufferPool* pool, std::size_t n, std::size_t inline_bytes) {
    void* slab;
    std::uint32_t size_class = util::BufferPool::kOversize;
    if (pool != nullptr) {
      slab = pool->acquire(sizeof(Header) + inline_bytes, size_class);
    } else {
      slab = ::operator new(sizeof(Header) + inline_bytes);
    }
    h_ = static_cast<Header*>(slab);
    h_->refs = 1;
    h_->size_class = size_class;
    h_->size = n;
    h_->pool = pool;
    h_->kind = ContentKind::Raw;
    h_->digest_valid = false;
    h_->seed = 0;
    h_->offset = 0;
    h_->bit_index = 0;
    h_->base = nullptr;
    h_->mat = nullptr;
    h_->mat_class = util::BufferPool::kOversize;
    h_->digest = 0;
  }

  [[nodiscard]] static std::byte* slab_data(Header* h) noexcept {
    return reinterpret_cast<std::byte*>(h + 1);
  }
  [[nodiscard]] std::byte* mutable_data() noexcept { return slab_data(h_); }
  /// Bytes of a Raw header: its own slab, or its window into the owner's.
  [[nodiscard]] static const std::byte* raw_data(const Header* h) noexcept {
    return h->base == nullptr
               ? slab_data(const_cast<Header*>(h))
               : slab_data(h->base) + h->offset;
  }

  // Symbolic machinery (payload.cpp): produce/lookup bytes and digests.
  [[nodiscard]] static const std::byte* materialize(Header* h);
  static void fill_contents(const Header* h, std::byte* out);
  [[nodiscard]] static std::uint64_t compute_digest(const Header* h);

  static void destroy(Header* h) noexcept {
    // Iterative base-chain walk (Corrupt-over-Corrupt stays shallow in
    // practice, but recursion depth should not depend on data). A Raw
    // view's base is its owner, so the owner outlives every view.
    while (h != nullptr) {
      Header* base = h->base;
      if (h->mat != nullptr) {
        if (h->pool != nullptr) {
          h->pool->release(h->mat, h->mat_class);
        } else {
          ::operator delete(h->mat);
        }
      }
      if (h->pool != nullptr) {
        h->pool->release(h, h->size_class);
      } else {
        ::operator delete(h);
      }
      if (base == nullptr || --base->refs != 0) break;
      h = base;
    }
  }

  void release() noexcept {
    if (h_ == nullptr || --h_->refs != 0) return;
    destroy(h_);
  }

  Header* h_ = nullptr;
};

}  // namespace sdrmpi::net
