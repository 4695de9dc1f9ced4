// Symbolic payload machinery: lazy materialization and digests that never
// touch more bytes than they must (see payload.hpp / content.hpp).
#include "sdrmpi/net/payload.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace sdrmpi::net {

namespace {

/// Per-thread (seed, len) -> digest memo for Pattern contents: repeated
/// message shapes (the normal case — a workload sends the same halo/block
/// size every iteration) digest in O(1) after the first computation. One
/// simulated run owns one host thread, so no locking; core::World clears
/// the memo at the start of every run (clear_pattern_digest_memo) so the
/// bytes_hashed counter stays a pure function of the run — bit-identical
/// across batch-runner pool sizes like every other counter.
struct ShapeKey {
  std::uint64_t seed;
  std::uint64_t offset;
  std::uint64_t len;
  [[nodiscard]] bool operator==(const ShapeKey&) const = default;
};

struct ShapeKeyHash {
  [[nodiscard]] std::size_t operator()(const ShapeKey& k) const noexcept {
    return static_cast<std::size_t>(util::hash_combine(
        util::hash_combine(util::mix64(k.seed), k.offset), k.len));
  }
};

[[nodiscard]] std::unordered_map<ShapeKey, std::uint64_t, ShapeKeyHash>&
pattern_memo() {
  thread_local std::unordered_map<ShapeKey, std::uint64_t, ShapeKeyHash> memo;
  return memo;
}

[[nodiscard]] std::uint64_t pattern_digest_memoized(std::uint64_t seed,
                                                    std::uint64_t offset,
                                                    std::uint64_t len) {
  auto& memo = pattern_memo();
  const ShapeKey key{seed, offset, len};
  if (const auto it = memo.find(key); it != memo.end()) return it->second;
  util::count_bytes_hashed(len);
  const std::uint64_t d = fnv1a_pattern(seed, offset, offset + len);
  memo.emplace(key, d);
  return d;
}

[[nodiscard]] constexpr std::uint64_t fnv1a_step(std::uint64_t h,
                                                 unsigned char b) noexcept {
  return (h ^ b) * util::kFnvPrime;
}

/// Tile digests stream every repetition (the fnv1a step XORs the data byte
/// into the state before multiplying, so the fold over one period is not an
/// affine function of the incoming state — there is no closed form like
/// fnv1a_zeros). A (seed, offset, period, reps) shape is digested once per
/// host thread and memoized; allgather-produced tiles repeat the same shape
/// every iteration, so steady-state cost is O(1) like Pattern.
struct TileKey {
  std::uint64_t seed;
  std::uint64_t offset;
  std::uint64_t period;
  std::uint64_t reps;
  [[nodiscard]] bool operator==(const TileKey&) const = default;
};

struct TileKeyHash {
  [[nodiscard]] std::size_t operator()(const TileKey& k) const noexcept {
    return static_cast<std::size_t>(util::hash_combine(
        util::hash_combine(util::hash_combine(util::mix64(k.seed), k.offset),
                           k.period),
        k.reps));
  }
};

[[nodiscard]] std::unordered_map<TileKey, std::uint64_t, TileKeyHash>&
tile_memo() {
  thread_local std::unordered_map<TileKey, std::uint64_t, TileKeyHash> memo;
  return memo;
}

[[nodiscard]] std::uint64_t tile_digest_memoized(std::uint64_t seed,
                                                 std::uint64_t offset,
                                                 std::uint64_t period,
                                                 std::uint64_t reps) {
  auto& memo = tile_memo();
  const TileKey key{seed, offset, period, reps};
  if (const auto it = memo.find(key); it != memo.end()) return it->second;
  util::count_bytes_hashed(period * reps);
  std::uint64_t d = util::kFnvOffset;
  for (std::uint64_t r = 0; r < reps; ++r) {
    d = fnv1a_pattern(seed, offset, offset + period, d);
  }
  memo.emplace(key, d);
  return d;
}

}  // namespace

void clear_pattern_digest_memo() noexcept {
  pattern_memo().clear();
  tile_memo().clear();
}

Payload Payload::symbolic(util::BufferPool* pool, const ContentDesc& desc) {
  if (desc.len == 0) return {};
  if (desc.kind == ContentKind::Raw || desc.kind == ContentKind::Corrupt) {
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
    case ContentKind::Corrupt:
      // No exact sub-descriptor exists; copy the range (materializing the
      // base exactly once, shared by every aliasing handle).
      return copy_of(pool, base.bytes().subspan(off, len));
  }
  return {};
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
  // descriptor, so Bruck's doubling concat would otherwise materialize an
  // O(nranks) Raw slab per rank per round.
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

  // Generic join: materialize each part once, pack into one Raw slab.
  Payload out(pool, total, total);
  std::size_t off = 0;
  for (const Payload& p : parts) {
    if (p.empty()) continue;
    std::memcpy(out.mutable_data() + off, p.data(), p.size());
    off += p.size();
  }
  util::count_bytes_copied(total);
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
  switch (h->kind) {
    case ContentKind::Raw:
      std::memcpy(out, raw_data(h), h->size);
      return;
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
    case ContentKind::Corrupt: {
      // Materialize the base contents (which may themselves be symbolic;
      // if the base is already materialized this is a plain memcpy), then
      // apply the one-bit flip.
      const Header* base = h->base;
      if (base->kind == ContentKind::Raw || base->mat != nullptr) {
        std::memcpy(out,
                    base->kind == ContentKind::Raw
                        ? raw_data(base)
                        : static_cast<const std::byte*>(base->mat),
                    h->size);
      } else {
        fill_contents(base, out);
      }
      out[h->bit_index / 8] ^= std::byte{1} << (h->bit_index % 8);
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

std::uint64_t Payload::compute_digest(const Header* h) {
  switch (h->kind) {
    case ContentKind::Raw:
      util::count_bytes_hashed(h->size);
      return util::fnv1a({raw_data(h), h->size});
    case ContentKind::Zeros:
      return fnv1a_zeros(h->size);
    case ContentKind::Pattern:
      return pattern_digest_memoized(h->seed, h->offset, h->size);
    case ContentKind::Tile:
      return tile_digest_memoized(h->seed, h->offset, h->bit_index,
                                  h->size / h->bit_index);
    case ContentKind::Corrupt: {
      const Header* base = h->base;
      const std::uint64_t flip = h->bit_index;
      const std::uint64_t i = flip / 8;
      const auto mask =
          static_cast<unsigned char>(1u << (flip % 8));
      // Stream the base contents with byte i flipped. fnv1a cannot absorb a
      // mid-stream flip incrementally, but this runs once per injected
      // corruption (rare by construction) and never clones the buffer.
      if (base->kind == ContentKind::Raw || base->mat != nullptr) {
        const std::byte* bytes =
            base->kind == ContentKind::Raw
                ? raw_data(base)
                : static_cast<const std::byte*>(base->mat);
        util::count_bytes_hashed(h->size);
        std::uint64_t d = util::fnv1a({bytes, i});
        d = fnv1a_step(d, std::to_integer<unsigned char>(bytes[i]) ^ mask);
        return util::fnv1a({bytes + i + 1, h->size - i - 1}, d);
      }
      if (base->kind == ContentKind::Zeros) {
        std::uint64_t d = fnv1a_zeros(i);
        d = fnv1a_step(d, mask);
        return fnv1a_zeros(h->size - i - 1, d);
      }
      if (base->kind == ContentKind::Pattern) {
        const std::uint64_t boff = base->offset;
        util::count_bytes_hashed(h->size);
        std::uint64_t d = fnv1a_pattern(base->seed, boff, boff + i);
        d = fnv1a_step(d, std::to_integer<unsigned char>(
                              pattern_byte(base->seed, boff + i)) ^
                              mask);
        return fnv1a_pattern(base->seed, boff + i + 1, boff + h->size, d);
      }
      // Corrupt-over-Corrupt: digest the base's digest path via its own
      // materialization-free stream is not worth special-casing; compute
      // through a materialized view of the base.
      const std::byte* bytes = materialize(const_cast<Header*>(base));
      util::count_bytes_hashed(h->size);
      std::uint64_t d = util::fnv1a({bytes, i});
      d = fnv1a_step(d, std::to_integer<unsigned char>(bytes[i]) ^ mask);
      return util::fnv1a({bytes + i + 1, h->size - i - 1}, d);
    }
  }
  return util::kFnvOffset;
}

std::uint64_t Payload::digest() const {
  if (h_ == nullptr) return util::kFnvOffset;
  if (!h_->digest_valid) {
    h_->digest = compute_digest(h_);
    h_->digest_valid = true;
  }
  return h_->digest;
}

}  // namespace sdrmpi::net
