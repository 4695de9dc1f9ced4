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
// Joins never copy. Where no exact descriptor exists, concat_payloads()
// builds a Concat *rope*: a header whose inline bytes are a flat table of
// refcounted leaf headers with their cumulative end offsets (ropes of
// ropes flatten, so a leaf is never itself a rope). slice() of a rope
// binary-searches the table and hands back a leaf itself when the range is
// exactly one leaf — a Bruck receiver gets the senders' own block headers —
// and bytes exist only once somebody calls data() or copy_to().
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
//     flipped, and a rope folds its leaves' digests in order. Every header
//     caches its digest from the FNV offset basis *and* its last
//     continuation (state in -> state out), so ranks digesting ropes over
//     one leaf chain stream the bytes once and then pay O(leaves).
//     digest() always equals fnv1a over the materialized bytes.
// Host bytes skip the FNV byte loop wherever the result is already known:
//   * each all-zero 64-byte block folds into one multiply by prime^64 (a
//     zero byte's FNV step is a bare multiply, the fnv1a_zeros algebra);
//   * a byte-backed header of at least 256 bytes reuses the fold of an
//     equal buffer from an equal FNV state, found in a fixed per-thread
//     table of 64 live digested headers keyed by (resume state, bytes)
//     and confirmed by a full memcmp. The table owns nothing: a header
//     holds at most one slot, and destroy() clears it. Equal allgather
//     blocks of every rank and the byte-identical messages of
//     send-deterministic replicas are hashed once, and so are equal rope
//     leaves folded from equal continuation states.
// The bytes left, each run of non-zero blocks in one call, go through
// util::fnv1a's vector kernel (the algebra is in util/hash.hpp).
// bytes_hashed counts only the bytes fed through FNV byte steps.
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

  /// An uninitialized Raw slab of `n` bytes from `pool` (heap when pool is
  /// null); `data` points at its bytes, which the caller must fill *before*
  /// the handle is shared — after that the payload is immutable like any
  /// other. Writers produce their contents straight into the slab: a
  /// reduction combine writes op(a, b) there, a materialized skeleton
  /// generates its pattern there, so neither copies a scratch buffer in.
  /// n == 0 yields an empty (null) handle and data == nullptr.
  [[nodiscard]] static Payload fresh(util::BufferPool* pool, std::size_t n,
                                     std::byte*& data) {
    if (n == 0) {
      data = nullptr;
      return {};
    }
    Payload p(pool, n, n);
    data = p.mutable_data();
    return p;
  }

  /// Copies `bytes` into a slab from `pool` (heap when pool is null).
  /// An empty span yields an empty (null) handle.
  [[nodiscard]] static Payload copy_of(util::BufferPool* pool,
                                       std::span<const std::byte> bytes) {
    if (bytes.empty()) return {};
    std::byte* data = nullptr;
    Payload p = fresh(pool, bytes.size(), data);
    std::memcpy(data, bytes.data(), bytes.size());
    util::count_bytes_copied(bytes.size());
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
  /// slab (a slice of a view points at the same owner). A slice of a rope
  /// is the leaf itself when the range is exactly one leaf, a slice of
  /// that leaf when it lies inside one, and a sub-rope otherwise; only
  /// Corrupt bases copy the sub-span into a fresh slab. The collective
  /// engine's scatter and Bruck schedules are built on this: segments of a
  /// broadcast stay symbolic, or alias the root's buffer, end to end. Throws
  /// std::out_of_range when the range exceeds base.size() (in every build:
  /// a view past the end would alias foreign memory).
  [[nodiscard]] static Payload slice(util::BufferPool* pool,
                                     const Payload& base, std::size_t off,
                                     std::size_t len);

  /// Joins `parts` in order into one payload without copying a byte.
  /// Exact descriptors where the algebra allows: all-Zeros parts stay
  /// Zeros, stream-contiguous same-seed Pattern parts merge back into one
  /// Pattern descriptor and contiguous Raw views of one owner re-join into
  /// one view — the owner itself when they cover it (both the inverse of
  /// slice) — and repetitions of one identical Pattern block (Pattern or
  /// Tile parts sharing seed/offset/period) fold into a Tile — the
  /// allgather case, where every rank contributes the same symbolic block.
  /// Anything else becomes a Concat rope over the parts (a rope part
  /// contributes its leaves). Empty parts are skipped; a single non-empty
  /// part is aliased.
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

  /// Writes the size() content bytes to `dst`: one memcpy when the bytes
  /// exist (Raw, or already materialized), generated straight into `dst`
  /// otherwise — a symbolic payload or rope landing in an application
  /// buffer is copied once, never materialized first.
  void copy_to(std::byte* dst) const {
    if (h_ == nullptr) return;
    fill_contents(h_, dst);
    util::count_bytes_copied(h_->size);
  }

  [[nodiscard]] std::byte operator[](std::size_t i) const {
    assert(i < size());
    return data()[i];
  }

  /// fnv1a digest of the contents (== util::fnv1a(bytes()) always), cached
  /// in the shared header so aliases — including the receive side of a
  /// zero-copy delivery — reuse one computation. Symbolic payloads digest
  /// without materializing; repeated Pattern and Tile shapes hit a
  /// per-thread shape memo and cost O(1); a rope folds its leaves through their
  /// continuation caches; host bytes equal to a live digested buffer
  /// folded from the same state cost one memcmp. Empty handles digest to kFnvOffset like the empty span.
  [[nodiscard]] std::uint64_t digest() const {
    return h_ != nullptr ? digest_from(h_, util::kFnvOffset)
                         : util::kFnvOffset;
  }

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
  /// True once contents exist as host bytes (Raw always; header-only kinds
  /// after the first data() call).
  [[nodiscard]] bool is_materialized() const noexcept {
    return h_ != nullptr && bytes_if_any(h_) != nullptr;
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
  /// Slab layout: [Header][data bytes for an owning Raw | rope table].
  /// The header records which pool (and free-list class) the slab returns
  /// to, so a Payload can outlive the Fabric/Endpoint that made it as long
  /// as the Engine (pool owner) lives. Raw views and symbolic kinds store
  /// no inline bytes; a rope stores its leaf table. A header-only kind's
  /// lazily materialized buffer and every kind's cached digest and digest
  /// continuation live in the shared header so every aliasing handle
  /// benefits.
  struct Header {
    std::uint32_t refs;
    std::uint32_t size_class;
    std::size_t size;
    util::BufferPool* pool;

    ContentKind kind;
    bool digest_valid;
    bool cont_valid;
    std::uint8_t live_slot;   // live-digest table slot this header owns
                              // (at most one), kNoLiveSlot if never;
                              // stale once evicted (padding)
    std::uint64_t seed;       // Pattern/Tile generator seed
    std::uint64_t offset;     // Pattern/Tile stream position of byte 0;
                              // Raw view: window start in the owner
    std::uint64_t bit_index;  // Corrupt flip position; Tile period (bytes);
                              // Concat leaf count
    Header* base;             // refcounted: Corrupt base contents, Raw
                              // view owner, Tile's shared block slice
    void* mat;                // lazily materialized bytes (header-only kinds)
    std::uint32_t mat_class;
    std::uint64_t digest;     // fnv1a from the offset basis
    std::uint64_t cont_in;    // last continuation: fnv1a resumed from
    std::uint64_t cont_out;   //   state cont_in ends in state cont_out
  };
  // live_slot sits in padding: still 13 words on LP64 (128 B slab class).
  static_assert(sizeof(void*) != 8 || sizeof(Header) == 104);

  static constexpr std::uint8_t kNoLiveSlot = 0xff;

  /// One rope table entry: a refcounted leaf (never a rope, never empty)
  /// and the rope offset one past its last byte.
  struct RopeLeaf {
    Header* leaf;
    std::uint64_t end;
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
    h_->cont_valid = false;
    h_->live_slot = kNoLiveSlot;
    h_->seed = 0;
    h_->offset = 0;
    h_->bit_index = 0;
    h_->base = nullptr;
    h_->mat = nullptr;
    h_->mat_class = util::BufferPool::kOversize;
    h_->digest = 0;
    h_->cont_in = 0;
    h_->cont_out = 0;
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

  [[nodiscard]] static std::span<RopeLeaf> rope_leaves(
      const Header* h) noexcept {
    return {reinterpret_cast<RopeLeaf*>(slab_data(const_cast<Header*>(h))),
            static_cast<std::size_t>(h->bit_index)};
  }
  /// Host bytes of `h` if they exist (Raw, or materialized), else null.
  [[nodiscard]] static const std::byte* bytes_if_any(const Header* h) noexcept {
    if (h->kind == ContentKind::Raw) return raw_data(h);
    return static_cast<const std::byte*>(h->mat);
  }

  /// A rope of `size` bytes with room for `capacity` leaves, none yet.
  [[nodiscard]] static Payload make_rope(util::BufferPool* pool,
                                         std::size_t size,
                                         std::size_t capacity);
  /// Appends `leaf` (taking a reference) to the next free table slot.
  static void append_leaf(Header* rope, Header* leaf) noexcept;

  // Symbolic machinery (payload.cpp): produce/lookup bytes and digests.
  [[nodiscard]] static const std::byte* materialize(Header* h);
  static void fill_contents(const Header* h, std::byte* out);
  /// Digest of h's contents resumed from FNV state `in`, served from the
  /// header's digest (in == basis) or continuation cache when it matches.
  [[nodiscard]] static std::uint64_t digest_from(Header* h, std::uint64_t in);
  [[nodiscard]] static std::uint64_t compute_digest(Header* h,
                                                    std::uint64_t in);
  /// fnv1a of h's host `bytes` resumed from `in`: the fold of an equal
  /// live buffer from the same state, from this thread's live-digest
  /// table, else hashed and h takes the slot (giving up any other).
  [[nodiscard]] static std::uint64_t digest_live(Header* h,
                                                 const std::byte* bytes,
                                                 std::uint64_t in);
  /// fnv1a over bytes [begin, end) of h's contents resumed from `in`,
  /// streamed without caching (Corrupt and its sub-ranges); counts the
  /// bytes it feeds through FNV steps.
  [[nodiscard]] static std::uint64_t digest_range(const Header* h,
                                                  std::uint64_t begin,
                                                  std::uint64_t end,
                                                  std::uint64_t in);
  /// Byte i of h's contents, without materializing them.
  [[nodiscard]] static unsigned char byte_at(const Header* h,
                                             std::uint64_t i);

  static void destroy(Header* h) noexcept;

  void release() noexcept {
    if (h_ == nullptr || --h_->refs != 0) return;
    destroy(h_);
  }

  Header* h_ = nullptr;
};

/// Drops this host thread's digest memos: the Pattern/Tile shape memo and
/// the live-digest table. core::World calls it at the start of every run
/// so bytes_hashed is a pure function of the run (pool-size independent);
/// within one run, repeated shapes and equal live buffers still digest for
/// free.
void clear_digest_memos() noexcept;

}  // namespace sdrmpi::net
