// Symbolic payload machinery: lazy materialization and digests that never
// touch more bytes than they must (see payload.hpp / content.hpp).
#include "sdrmpi/net/payload.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace sdrmpi::net {

namespace {

[[nodiscard]] constexpr std::uint64_t fnv1a_step(std::uint64_t h,
                                                 unsigned char b) noexcept {
  return (h ^ b) * util::kFnvPrime;
}

/// fnv1a over bytes [begin, end) of the Tile repeating Pattern bytes
/// [offset, offset+period), resumed from `h`.
[[nodiscard]] std::uint64_t fnv1a_tile(std::uint64_t seed,
                                       std::uint64_t offset,
                                       std::uint64_t period,
                                       std::uint64_t begin, std::uint64_t end,
                                       std::uint64_t h) noexcept {
  for (std::uint64_t i = begin; i < end;) {
    const std::uint64_t r = i % period;
    const std::uint64_t chunk = std::min(end - i, period - r);
    h = fnv1a_pattern(seed, offset + r, offset + r + chunk, h);
    i += chunk;
  }
  return h;
}

/// Per-thread memo of Pattern and Tile digests from the FNV basis, keyed by
/// shape (seed, offset, period, reps): a Pattern is one repetition of
/// itself (symbolic() turns a one-repetition Tile into a Pattern, so the
/// keys never collide). Repeated message shapes — a workload sends the
/// same halo/block size every iteration, and allgather tiles repeat too —
/// digest in O(1) after the first computation. Tile digests must stream
/// every repetition once (the fnv1a step XORs the data byte into the state
/// before multiplying, so the fold over one period is not an affine
/// function of the incoming state — no closed form like fnv1a_zeros). One
/// simulated run owns one host thread, so no locking; core::World clears
/// the memo at the start of every run (clear_digest_memos) so the
/// bytes_hashed counter stays a pure function of the run — bit-identical
/// across batch-runner pool sizes like every other counter.
struct ShapeKey {
  std::uint64_t seed;
  std::uint64_t offset;
  std::uint64_t period;
  std::uint64_t reps;
  [[nodiscard]] bool operator==(const ShapeKey&) const = default;
};

struct ShapeKeyHash {
  [[nodiscard]] std::size_t operator()(const ShapeKey& k) const noexcept {
    return static_cast<std::size_t>(util::hash_combine(
        util::hash_combine(util::hash_combine(util::mix64(k.seed), k.offset),
                           k.period),
        k.reps));
  }
};

[[nodiscard]] std::unordered_map<ShapeKey, std::uint64_t, ShapeKeyHash>&
shape_memo() {
  thread_local std::unordered_map<ShapeKey, std::uint64_t, ShapeKeyHash> memo;
  return memo;
}

[[nodiscard]] std::uint64_t shape_digest_memoized(const ShapeKey& key) {
  auto& memo = shape_memo();
  if (const auto it = memo.find(key); it != memo.end()) return it->second;
  util::count_bytes_hashed(key.period * key.reps);
  const std::uint64_t d = fnv1a_tile(key.seed, key.offset, key.period, 0,
                                     key.period * key.reps, util::kFnvOffset);
  memo.emplace(key, d);
  return d;
}

/// prime^64: a zero byte's FNV step is a bare multiply by the prime, so an
/// all-zero 64-byte block folds into one multiply (fnv1a_zeros' algebra).
constexpr std::size_t kFoldBlock = 64;
constexpr std::uint64_t kFoldPrime = fnv1a_zeros(kFoldBlock, 1);

[[nodiscard]] bool all_zero_block(const std::byte* p) noexcept {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < kFoldBlock; i += sizeof acc) {
    std::uint64_t w;
    std::memcpy(&w, p + i, sizeof w);
    acc |= w;
  }
  return acc == 0;
}

/// fnv1a over `n` host bytes resumed from `h`, every all-zero 64-byte block
/// (counted from `p`) folded in closed form. Each maximal run of the other
/// blocks, the last one with the tail, goes to util::fnv1a in one call, so
/// the kernel sees the longest spans there are; counts those bytes, the
/// ones that went through the byte loop.
[[nodiscard]] std::uint64_t fnv1a_host(const std::byte* p, std::size_t n,
                                       std::uint64_t h) noexcept {
  std::size_t run = 0;  // start of the pending run of non-zero blocks
  std::uint64_t fed = 0;
  for (std::size_t i = 0; n - i >= kFoldBlock; i += kFoldBlock) {
    if (!all_zero_block(p + i)) continue;
    h = util::fnv1a({p + run, p + i}, h);
    fed += i - run;
    h *= kFoldPrime;
    run = i + kFoldBlock;
  }
  util::count_bytes_hashed(fed + (n - run));
  return util::fnv1a({p + run, p + n}, h);
}

/// Live-digest table: digests of byte-backed headers hashed on this host
/// thread, keyed by (resume state, bytes) and direct-mapped by (state,
/// length, 8 sampled words). A rope's second and later leaves resume from
/// a non-basis state, and the ranks and replicas that fold equal leaves
/// from equal states (redMPI's per-send hash, collective checksums) share
/// one fold. An entry only points at a *live* header — a header owns at
/// most one slot, and Payload::destroy clears the one it owns — and a hit
/// needs an equal state and size and a full memcmp, so only equal bytes
/// from an equal state share a digest. Fixed size, so it allocates
/// nothing; cleared with the shape memo at run start, so hits are a pure
/// function of the run.
constexpr std::size_t kLiveDigestSlots = 64;
constexpr std::size_t kLiveDigestMinBytes = 256;
static_assert(kLiveDigestSlots <= 0xff, "slots must fit Header::live_slot");

struct LiveDigest {
  const void* header;  // slot owner; null when free
  const std::byte* bytes;
  std::size_t size;
  std::uint64_t key;
  std::uint64_t in;      // FNV state the fold resumed from
  std::uint64_t digest;  // state after folding the bytes
};

[[nodiscard]] std::array<LiveDigest, kLiveDigestSlots>& live_digests() {
  thread_local std::array<LiveDigest, kLiveDigestSlots> table{};
  return table;
}

/// Table key of `n` >= 16 bytes folded from state `in`: the length, 8
/// words spread evenly over the buffer (the first at its start, the last
/// ending at its end), then the state.
[[nodiscard]] std::uint64_t live_key(const std::byte* p, std::size_t n,
                                     std::uint64_t in) noexcept {
  std::uint64_t k = util::mix64(n);
  for (std::size_t i = 0; i < 8; ++i) {
    std::uint64_t w;
    std::memcpy(&w, p + i * (n - sizeof w) / 7, sizeof w);
    k = util::hash_combine(k, w);
  }
  return util::hash_combine(k, in);
}

}  // namespace

void clear_digest_memos() noexcept {
  shape_memo().clear();
  // Headers keep their stale live_slot; destroy() only clears a slot it
  // still owns, so no entry is dereferenced here.
  live_digests().fill({});
}

Payload Payload::symbolic(util::BufferPool* pool, const ContentDesc& desc) {
  if (desc.len == 0) return {};
  if (desc.kind == ContentKind::Raw || desc.kind == ContentKind::Corrupt ||
      desc.kind == ContentKind::Concat) {
    throw std::invalid_argument(
        "Payload::symbolic: descriptor must be Zeros, Pattern or Tile");
  }
  if (desc.kind == ContentKind::Tile &&
      (desc.period == 0 || desc.len % desc.period != 0)) {
    throw std::invalid_argument(
        "Payload::symbolic: Tile length must be a positive multiple of the "
        "period");
  }
  Payload p(pool, desc.len, /*inline_bytes=*/0);
  p.h_->kind = desc.kind;
  p.h_->seed = desc.seed;
  p.h_->offset = desc.offset;
  if (desc.kind == ContentKind::Tile) {
    if (desc.len == desc.period) {
      p.h_->kind = ContentKind::Pattern;  // one repetition IS the block
    } else {
      p.h_->bit_index = desc.period;
    }
  }
  return p;
}

Payload Payload::slice(util::BufferPool* pool, const Payload& base,
                       std::size_t off, std::size_t len) {
  if (off > base.size() || len > base.size() - off) {
    throw std::out_of_range("Payload::slice: " + std::to_string(len) +
                            " bytes at offset " + std::to_string(off) +
                            " exceed the payload size " +
                            std::to_string(base.size()));
  }
  if (len == 0) return {};
  if (off == 0 && len == base.size()) return base;  // alias, no copy
  switch (base.kind()) {
    case ContentKind::Zeros:
      return symbolic(pool, ContentDesc::zeros(len));
    case ContentKind::Pattern:
      // A Pattern sub-range is the same stream at a shifted offset: stays
      // symbolic even when the base has already been materialized.
      return symbolic(pool, ContentDesc::pattern_at(base.h_->seed, len,
                                                    base.h_->offset + off));
    case ContentKind::Tile: {
      // Tile sub-ranges stay symbolic where the algebra is exact: a range
      // inside one repetition is a Pattern block, a period-aligned range
      // spanning whole repetitions is a smaller Tile. (Bruck's allgather
      // slices tiles exclusively at block boundaries, so this covers the
      // hot path.) Anything straddling a boundary falls back to generated
      // bytes — still without materializing the whole tile.
      const std::uint64_t period = base.h_->bit_index;
      const std::uint64_t rot = off % period;
      if (rot == 0 && len == period) {
        // A full repetition: every such slice is the *same* Pattern block,
        // so share one child header via the tile's (otherwise unused) base
        // link instead of allocating a header per slice. Allgather results
        // are n such slices per rank — this is the difference between O(n)
        // and O(1) header slabs per allgather row.
        if (base.h_->base == nullptr) {
          Payload block = symbolic(pool, ContentDesc::pattern_at(
                                             base.h_->seed, period,
                                             base.h_->offset));
          base.h_->base = block.h_;
          ++block.h_->refs;  // the tile's reference
          return block;
        }
        Payload out;
        out.h_ = base.h_->base;
        ++out.h_->refs;
        return out;
      }
      if (rot + len <= period) {
        return symbolic(pool, ContentDesc::pattern_at(
                                  base.h_->seed, len, base.h_->offset + rot));
      }
      if (rot == 0 && len % period == 0) {
        return symbolic(pool,
                        ContentDesc::tile(base.h_->seed, base.h_->offset,
                                          period, len / period));
      }
      Payload out(pool, len, len);
      for (std::size_t i = 0; i < len;) {
        const std::uint64_t r = (off + i) % period;
        const std::size_t chunk =
            std::min<std::size_t>(len - i, period - r);
        fill_pattern(base.h_->seed, base.h_->offset + r, chunk,
                     out.mutable_data() + i);
        i += chunk;
      }
      util::count_bytes_copied(len);
      return out;
    }
    case ContentKind::Raw: {
      // Zero-copy view onto the owning slab. Views never chain: a slice
      // of a view windows the same owner (an owner's offset is 0).
      Header* owner = base.h_->base != nullptr ? base.h_->base : base.h_;
      Payload out(pool, len, /*inline_bytes=*/0);
      out.h_->offset = base.h_->offset + off;
      out.h_->base = owner;
      ++owner->refs;
      return out;
    }
    case ContentKind::Concat: {
      // Leaves [first, last] hold the range: the first leaf ending after
      // `off` through the first ending at or after off+len.
      const auto leaves = rope_leaves(base.h_);
      const auto first = std::upper_bound(
          leaves.begin(), leaves.end(), std::uint64_t{off},
          [](std::uint64_t v, const RopeLeaf& e) { return v < e.end; });
      const auto start = [&leaves](auto it) {
        return it == leaves.begin() ? std::uint64_t{0} : (it - 1)->end;
      };
      const auto leaf_handle = [](Header* leaf) {
        Payload p;
        p.h_ = leaf;
        ++leaf->refs;
        return p;
      };
      if (off + len <= first->end) {
        // Inside one leaf: the leaf itself when the range is exactly that
        // leaf, else a slice of it.
        if (off == start(first) && len == first->leaf->size) {
          return leaf_handle(first->leaf);
        }
        return slice(pool, leaf_handle(first->leaf), off - start(first), len);
      }
      const auto last = std::lower_bound(
          first, leaves.end(), std::uint64_t{off} + len,
          [](const RopeLeaf& e, std::uint64_t v) { return e.end < v; });
      Payload out = make_rope(pool, len,
                              static_cast<std::size_t>(last - first) + 1);
      for (auto it = first; it <= last; ++it) {
        const std::uint64_t lo = std::max<std::uint64_t>(off, start(it));
        const std::uint64_t hi = std::min<std::uint64_t>(off + len, it->end);
        if (hi - lo == it->leaf->size) {
          append_leaf(out.h_, it->leaf);
        } else {
          const Payload piece = slice(pool, leaf_handle(it->leaf),
                                      lo - start(it), hi - lo);
          append_leaf(out.h_, piece.h_);
        }
      }
      return out;
    }
    case ContentKind::Corrupt:
      // No exact sub-descriptor exists; copy the range (materializing the
      // base exactly once, shared by every aliasing handle).
      return copy_of(pool, base.bytes().subspan(off, len));
  }
  return {};
}

Payload Payload::make_rope(util::BufferPool* pool, std::size_t size,
                           std::size_t capacity) {
  Payload p(pool, size, capacity * sizeof(RopeLeaf));
  p.h_->kind = ContentKind::Concat;
  p.h_->bit_index = 0;  // entries so far: destroy() releases only these
  return p;
}

void Payload::append_leaf(Header* rope, Header* leaf) noexcept {
  const std::size_t n = static_cast<std::size_t>(rope->bit_index);
  auto* table = reinterpret_cast<RopeLeaf*>(slab_data(rope));
  table[n] = {leaf, (n == 0 ? 0 : table[n - 1].end) + leaf->size};
  ++leaf->refs;
  ++rope->bit_index;
}

Payload Payload::concat_payloads(util::BufferPool* pool,
                                 std::span<const Payload> parts) {
  // Skip empties; a single survivor is aliased outright.
  std::size_t total = 0;
  const Payload* only = nullptr;
  std::size_t live = 0;
  for (const Payload& p : parts) {
    if (p.empty()) continue;
    total += p.size();
    only = &p;
    ++live;
  }
  if (live == 0) return {};
  if (live == 1) return *only;

  // Exact algebra: all-Zeros stays Zeros; stream-contiguous same-seed
  // Patterns merge back into one Pattern (the inverse of slice).
  bool all_zeros = true;
  bool contiguous_pattern = true;
  std::uint64_t seed = 0;
  std::uint64_t next_offset = 0;
  bool first = true;
  for (const Payload& p : parts) {
    if (p.empty()) continue;
    if (p.kind() != ContentKind::Zeros) all_zeros = false;
    if (p.kind() != ContentKind::Pattern) {
      contiguous_pattern = false;
      continue;
    }
    if (first) {
      seed = p.h_->seed;
      next_offset = p.h_->offset;
      first = false;
    }
    if (p.h_->seed != seed || p.h_->offset != next_offset) {
      contiguous_pattern = false;
    }
    next_offset += p.size();
  }
  if (all_zeros) return symbolic(pool, ContentDesc::zeros(total));
  if (contiguous_pattern) {
    const std::uint64_t begin = next_offset - total;
    return symbolic(pool, ContentDesc::pattern_at(seed, total, begin));
  }

  // Contiguous Raw windows of one owner re-join without a copy into one
  // view of the joined range — the owner itself when they cover it (a
  // scatter-allgather bcast hands every rank the root's buffer, whose
  // digest is then computed once).
  Header* owner = nullptr;
  std::uint64_t begin = 0;
  std::uint64_t next = 0;
  bool contiguous_raw = true;
  for (const Payload& p : parts) {
    if (p.empty()) continue;
    Header* o = p.h_->base != nullptr ? p.h_->base : p.h_;
    if (owner == nullptr) {
      owner = o;
      begin = next = p.h_->offset;
    }
    if (p.kind() != ContentKind::Raw || o != owner ||
        p.h_->offset != next) {
      contiguous_raw = false;
      break;
    }
    next += p.size();
  }
  if (contiguous_raw) {
    Payload whole;
    whole.h_ = owner;
    ++owner->refs;
    return slice(pool, whole, begin, total);  // full range: the owner
  }

  // Repetitions of one identical Pattern block — every part the same
  // (seed, offset) block, as Pattern (exactly one repetition) or Tile
  // (whole repetitions) — fold into a Tile. This is the allgather shape:
  // ranks all contribute make_block(tag, bytes), i.e. the *same*
  // descriptor, so Bruck's doubling concat would otherwise build an
  // O(nranks) rope per rank per round.
  bool tileable = true;
  std::uint64_t tile_seed = 0;
  std::uint64_t tile_off = 0;
  std::uint64_t period = 0;
  bool tile_first = true;
  for (const Payload& p : parts) {
    if (p.empty()) continue;
    std::uint64_t s = 0;
    std::uint64_t o = 0;
    std::uint64_t per = 0;
    if (p.kind() == ContentKind::Pattern) {
      s = p.h_->seed;
      o = p.h_->offset;
      per = p.size();
    } else if (p.kind() == ContentKind::Tile) {
      s = p.h_->seed;
      o = p.h_->offset;
      per = p.h_->bit_index;
    } else {
      tileable = false;
      break;
    }
    if (tile_first) {
      tile_seed = s;
      tile_off = o;
      period = per;
      tile_first = false;
    }
    if (s != tile_seed || o != tile_off || per != period ||
        p.size() % period != 0) {
      tileable = false;
      break;
    }
  }
  if (tileable) {
    return symbolic(
        pool, ContentDesc::tile(tile_seed, tile_off, period, total / period));
  }

  // Anything else joins as a rope over the parts' headers — no byte is
  // copied or materialized. Rope parts contribute their leaves, so tables
  // stay flat: Bruck's doubling packs and Rabenseifner's recursive-doubling
  // allgather end as one table of the original block headers.
  std::size_t nleaves = 0;
  for (const Payload& p : parts) {
    if (p.empty()) continue;
    nleaves += p.kind() == ContentKind::Concat ? rope_leaves(p.h_).size() : 1;
  }
  Payload out = make_rope(pool, total, nleaves);
  for (const Payload& p : parts) {
    if (p.empty()) continue;
    if (p.kind() != ContentKind::Concat) {
      append_leaf(out.h_, p.h_);
      continue;
    }
    for (const RopeLeaf& e : rope_leaves(p.h_)) append_leaf(out.h_, e.leaf);
  }
  return out;
}

Payload Payload::corrupt(util::BufferPool* pool, const Payload& base,
                         std::uint64_t bit_index) {
  if (base.empty()) return {};
  assert(bit_index < base.size() * 8);
  Payload p(pool, base.size(), /*inline_bytes=*/0);
  p.h_->kind = ContentKind::Corrupt;
  p.h_->bit_index = bit_index;
  p.h_->base = base.h_;
  ++base.h_->refs;
  return p;
}

void Payload::fill_contents(const Header* h, std::byte* out) {
  if (const std::byte* bytes = bytes_if_any(h)) {
    std::memcpy(out, bytes, h->size);
    return;
  }
  switch (h->kind) {
    case ContentKind::Raw:
      return;  // bytes_if_any served it
    case ContentKind::Zeros:
      std::memset(out, 0, h->size);
      return;
    case ContentKind::Pattern:
      fill_pattern(h->seed, h->offset, h->size, out);
      return;
    case ContentKind::Tile: {
      // Generate the first repetition, then replicate it with doubling
      // copies (memcpy bandwidth instead of generator arithmetic).
      const std::size_t period = h->bit_index;
      fill_pattern(h->seed, h->offset, period, out);
      std::size_t filled = period;
      while (filled < h->size) {
        const std::size_t chunk = std::min(filled, h->size - filled);
        std::memcpy(out + filled, out, chunk);
        filled += chunk;
      }
      return;
    }
    case ContentKind::Corrupt:
      // The base contents (a memcpy if they exist), then the one-bit flip.
      fill_contents(h->base, out);
      out[h->bit_index / 8] ^= std::byte{1} << (h->bit_index % 8);
      return;
    case ContentKind::Concat: {
      std::uint64_t begin = 0;
      for (const RopeLeaf& e : rope_leaves(h)) {
        fill_contents(e.leaf, out + begin);
        begin = e.end;
      }
      return;
    }
  }
}

const std::byte* Payload::materialize(Header* h) {
  if (h->mat == nullptr) {
    void* buf;
    std::uint32_t cls = util::BufferPool::kOversize;
    if (h->pool != nullptr) {
      buf = h->pool->acquire(h->size, cls);
    } else {
      buf = ::operator new(h->size);
    }
    fill_contents(h, static_cast<std::byte*>(buf));
    h->mat = buf;
    h->mat_class = cls;
    util::count_bytes_copied(h->size);
    ++util::byte_counters().materializations;
  }
  return static_cast<const std::byte*>(h->mat);
}

std::uint64_t Payload::digest_from(Header* h, std::uint64_t in) {
  if (in == util::kFnvOffset) {
    if (!h->digest_valid) {
      h->digest = compute_digest(h, in);
      h->digest_valid = true;
    }
    return h->digest;
  }
  if (!h->cont_valid || h->cont_in != in) {
    h->cont_out = compute_digest(h, in);
    h->cont_in = in;
    h->cont_valid = true;
  }
  return h->cont_out;
}

std::uint64_t Payload::compute_digest(Header* h, std::uint64_t in) {
  // bytes_hashed counts the bytes fed through FNV byte steps: none for the
  // Zeros closed form or a folded zero block, none for memo or live-table
  // hits, and a rope's leaves count themselves — once per distinct
  // continuation.
  switch (h->kind) {
    case ContentKind::Zeros:
      return fnv1a_zeros(h->size, in);
    case ContentKind::Pattern:
    case ContentKind::Tile:
      if (in == util::kFnvOffset) {
        const std::uint64_t period =
            h->kind == ContentKind::Tile ? h->bit_index : h->size;
        return shape_digest_memoized(
            {h->seed, h->offset, period, h->size / period});
      }
      break;
    case ContentKind::Concat:
      for (const RopeLeaf& e : rope_leaves(h)) in = digest_from(e.leaf, in);
      return in;
    case ContentKind::Corrupt:
      // Streams its base with the bit flipped (digest_range): once per
      // injected corruption, and the base is never cloned.
    case ContentKind::Raw:
      break;
  }
  if (h->size >= kLiveDigestMinBytes) {
    if (const std::byte* bytes = bytes_if_any(h)) {
      return digest_live(h, bytes, in);
    }
  }
  return digest_range(h, 0, h->size, in);
}

std::uint64_t Payload::digest_live(Header* h, const std::byte* bytes,
                                   std::uint64_t in) {
  const std::uint64_t key = live_key(bytes, h->size, in);
  const std::size_t slot = key % kLiveDigestSlots;
  auto& table = live_digests();
  LiveDigest& e = table[slot];
  if (e.header != nullptr && e.key == key && e.in == in &&
      e.size == h->size && std::memcmp(e.bytes, bytes, h->size) == 0) {
    return e.digest;
  }
  // A miss takes the slot. The header first gives up the slot it still
  // owns, so it never owns two; an evicted header keeps its stale
  // live_slot, which its destroy() ignores because the slot is no longer
  // its own.
  if (h->live_slot != kNoLiveSlot && table[h->live_slot].header == h) {
    table[h->live_slot] = {};
  }
  const std::uint64_t d = fnv1a_host(bytes, h->size, in);
  e = {h, bytes, h->size, key, in, d};
  h->live_slot = static_cast<std::uint8_t>(slot);
  return d;
}

std::uint64_t Payload::digest_range(const Header* h, std::uint64_t begin,
                                    std::uint64_t end, std::uint64_t in) {
  if (begin >= end) return in;
  if (h->kind == ContentKind::Zeros) return fnv1a_zeros(end - begin, in);
  if (const std::byte* bytes = bytes_if_any(h)) {
    return fnv1a_host(bytes + begin, end - begin, in);
  }
  switch (h->kind) {
    case ContentKind::Raw:
    case ContentKind::Zeros:
      break;  // served above
    case ContentKind::Pattern:
      util::count_bytes_hashed(end - begin);
      return fnv1a_pattern(h->seed, h->offset + begin, h->offset + end, in);
    case ContentKind::Tile:
      util::count_bytes_hashed(end - begin);
      return fnv1a_tile(h->seed, h->offset, h->bit_index, begin, end, in);
    case ContentKind::Corrupt: {
      const std::uint64_t i = h->bit_index / 8;
      if (i < begin || i >= end) return digest_range(h->base, begin, end, in);
      in = digest_range(h->base, begin, i, in);
      util::count_bytes_hashed(1);
      in = fnv1a_step(in, byte_at(h, i));
      return digest_range(h->base, i + 1, end, in);
    }
    case ContentKind::Concat: {
      const auto leaves = rope_leaves(h);
      auto it = std::upper_bound(
          leaves.begin(), leaves.end(), begin,
          [](std::uint64_t v, const RopeLeaf& e) { return v < e.end; });
      for (; it != leaves.end(); ++it) {
        const std::uint64_t start =
            it == leaves.begin() ? 0 : (it - 1)->end;
        if (start >= end) break;
        in = digest_range(it->leaf, std::max(begin, start) - start,
                          std::min(end, it->end) - start, in);
      }
      return in;
    }
  }
  return in;
}

unsigned char Payload::byte_at(const Header* h, std::uint64_t i) {
  if (const std::byte* bytes = bytes_if_any(h)) {
    return std::to_integer<unsigned char>(bytes[i]);
  }
  switch (h->kind) {
    case ContentKind::Raw:
    case ContentKind::Zeros:
      return 0;
    case ContentKind::Pattern:
      return std::to_integer<unsigned char>(
          pattern_byte(h->seed, h->offset + i));
    case ContentKind::Tile:
      return std::to_integer<unsigned char>(
          pattern_byte(h->seed, h->offset + i % h->bit_index));
    case ContentKind::Corrupt: {
      const unsigned char b = byte_at(h->base, i);
      return i == h->bit_index / 8
                 ? static_cast<unsigned char>(b ^ (1u << (h->bit_index % 8)))
                 : b;
    }
    case ContentKind::Concat: {
      const auto leaves = rope_leaves(h);
      const auto it = std::upper_bound(
          leaves.begin(), leaves.end(), i,
          [](std::uint64_t v, const RopeLeaf& e) { return v < e.end; });
      return byte_at(it->leaf, i - (it == leaves.begin() ? 0 : (it - 1)->end));
    }
  }
  return 0;
}

void Payload::destroy(Header* h) noexcept {
  // Iterative base-chain walk (Corrupt-over-Corrupt stays shallow in
  // practice, but recursion depth should not depend on data). A Raw view's
  // base is its owner, so the owner outlives every view. A rope releases
  // its leaves; leaves are never ropes, so that recursion is one level
  // (deeper only through a Corrupt-over-rope leaf).
  while (h != nullptr) {
    Header* base = h->base;
    if (h->live_slot != kNoLiveSlot) {
      LiveDigest& e = live_digests()[h->live_slot];
      if (e.header == h) e = {};
    }
    if (h->kind == ContentKind::Concat) {
      for (const RopeLeaf& e : rope_leaves(h)) {
        if (--e.leaf->refs == 0) destroy(e.leaf);
      }
    }
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

}  // namespace sdrmpi::net
