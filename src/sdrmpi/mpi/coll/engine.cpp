// Collective schedules (see engine.hpp for the algorithm registry).
//
// Implementation notes:
//  * Every receive is a zero-copy sink; the delivered handle is the unit
//    of forwarding, so a block crosses the host at most once no matter how
//    many hops the schedule routes it through.
//  * Reduction combines are commutative (the IEEE ops in reduce_ops.hpp
//    are bitwise-commutative), which is what lets recursive doubling and
//    Rabenseifner produce bit-identical results on every rank; the combine
//    *tree shape* differs per algorithm, so floating-point sums may differ
//    across algorithms in the last ulp — tuning is part of the run
//    configuration precisely because of this.
//  * Rabenseifner falls back to recursive doubling when the vector has
//    fewer elements than the power-of-two participant count (or a ragged
//    element size) — deterministic, like MPICH's count >= pof2 guard.
//  * Ring schedules (ring allgather, pairwise alltoall, the bcast segment
//    ring) receive blocks in descending cyclic order from their own
//    index: me - 1, ..., 0, n - 1, ..., me + 1. Prepending each arrival
//    builds two runs, [0, me] and past the wrap [me + 1, n), joined once
//    at the end; contiguous segments of one symbolic or Raw source re-merge
//    on every prepend, so a bcast result is the root's own payload again.
#include "sdrmpi/mpi/coll/engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>

#include "sdrmpi/mpi/comm.hpp"
#include "sdrmpi/mpi/endpoint.hpp"

namespace sdrmpi::mpi::coll {
namespace {

constexpr int kTagBarrier = 0x1001;
constexpr int kTagBcast = 0x1002;
constexpr int kTagReduce = 0x1003;
constexpr int kTagGather = 0x1004;
constexpr int kTagScatter = 0x1005;
constexpr int kTagAllgather = 0x1006;
constexpr int kTagAlltoall = 0x1007;
constexpr int kTagScan = 0x1008;
constexpr int kTagBcastScatter = 0x1009;
constexpr int kTagBcastRing = 0x100a;
constexpr int kTagAllreduce = 0x100b;

[[nodiscard]] int floor_pof2(int n) noexcept {
  int p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

/// `a` followed by `b`, joined without a copy.
[[nodiscard]] net::Payload join(util::BufferPool* pool, const net::Payload& a,
                                const net::Payload& b) {
  const net::Payload parts[2] = {a, b};
  return net::Payload::concat_payloads(pool, parts);
}

/// part(0), ..., part(count - 1) joined in order, batched 16 to a
/// concat_payloads call: a rope's leaf table is copied once per batch, not
/// once per part, and no table of all the parts exists.
template <class PartFn>
[[nodiscard]] net::Payload join_all(util::BufferPool* pool, int count,
                                    PartFn part) {
  std::array<net::Payload, 17> parts;  // parts[0] holds the join so far
  std::size_t used = 1;
  for (int i = 0; i < count; ++i) {
    parts[used++] = part(i);
    if (used < parts.size() && i + 1 < count) continue;
    parts[0] = net::Payload::concat_payloads(
        pool, std::span<const net::Payload>(parts.data(), used));
    for (; used > 1; --used) parts[used - 1].reset();
  }
  return std::move(parts[0]);
}

}  // namespace

CollEngine::CollEngine(Endpoint& ep, const CommInfo& info)
    : ep_(ep),
      ctx_(info.ctx_coll),
      rank_(info.my_rank),
      size_(static_cast<int>(info.rank_to_slot.size())),
      tune_(ep.coll_tuning()),
      pool_(&ep.buffer_pool()),
      reqs_(ep.coll_requests()) {}

// ---------------------------------------------------------------------------
// p2p primitives
// ---------------------------------------------------------------------------

Request CollEngine::isend_p(const net::Payload& p, int dst, int tag) {
  return ep_.isend_payload(ctx_, dst, tag, p);
}

void CollEngine::send_p(const net::Payload& p, int dst, int tag) {
  Request req = isend_p(p, dst, tag);
  ep_.wait(req);
}

net::Payload CollEngine::recv_p(std::size_t cap, int src, int tag) {
  Request req = ep_.irecv_sink(ctx_, src, tag, cap);
  ep_.wait(req);
  return std::move(req->recv_payload);
}

net::Payload CollEngine::sendrecv_p(const net::Payload& s, int dst,
                                    std::size_t cap, int src, int tag) {
  Request reqs[2] = {ep_.irecv_sink(ctx_, src, tag, cap),
                     isend_p(s, dst, tag)};
  ep_.waitall(reqs);
  return std::move(reqs[0]->recv_payload);
}

net::Payload CollEngine::combine(const net::Payload& a, const net::Payload& b,
                                 std::size_t elem, const ReduceFn& fn) {
  // Ranks that disagree on a reduction length deliver a short operand; a
  // combine over it would read past its slab, so fail in every build.
  if (a.size() != b.size()) {
    throw std::invalid_argument(
        "reduce: operand lengths differ across ranks (" +
        std::to_string(a.size()) + " vs " + std::to_string(b.size()) +
        " bytes)");
  }
  if (a.empty()) return {};
  // Reductions over Zeros short-circuit: every predefined op maps
  // (0, 0) -> 0, so an all-Zeros reduction stays a descriptor end to end
  // and a class-D symbolic reduction vector never materializes.
  if (a.kind() == net::ContentKind::Zeros &&
      b.kind() == net::ContentKind::Zeros) {
    return a;
  }
  const std::size_t count = elem > 0 ? a.size() / elem : 0;
  // No copy: op(a, b) is written straight into a fresh slab (symbolic
  // operands materialize lazily). Neither operand is ever written, so a
  // Rabenseifner half that views a slab still in flight stays intact.
  // Bytes past the last whole element (a length that elem does not
  // divide, or elem == 0) are not reduced: they are a's, as if a had been
  // copied in first, so no byte of the pooled slab is left unwritten.
  std::byte* out_data = nullptr;
  net::Payload out = net::Payload::fresh(pool_, a.size(), out_data);
  fn(out_data, a.data(), b.data(), count);
  const std::size_t reduced = count * elem;
  if (reduced < a.size()) {
    std::memcpy(out_data + reduced, a.data() + reduced, a.size() - reduced);
    util::count_bytes_copied(a.size() - reduced);
  }
  return out;
}

// ---------------------------------------------------------------------------
// barrier: dissemination
// ---------------------------------------------------------------------------

void CollEngine::barrier() {
  if (size_ <= 1) return;
  for (int dist = 1; dist < size_; dist <<= 1) {
    const int dst = (rank_ + dist) % size_;
    const int src = (rank_ - dist + size_) % size_;
    (void)sendrecv_p({}, dst, 0, src, kTagBarrier);
  }
}

// ---------------------------------------------------------------------------
// bcast
// ---------------------------------------------------------------------------

net::Payload CollEngine::bcast_payload(const net::Payload& mine,
                                       std::size_t len, int root) {
  if (size_ <= 1) return mine;
  switch (tune_.resolve_bcast(len, size_)) {
    case BcastAlg::ScatterAllgather:
      return bcast_scatter_allgather(mine, len, root);
    case BcastAlg::Binomial:
    case BcastAlg::Auto:
      break;
  }
  return bcast_binomial(mine, len, root);
}

net::Payload CollEngine::bcast_binomial(const net::Payload& mine,
                                        std::size_t len, int root) {
  const int n = size_;
  const int rel = (rank_ - root + n) % n;
  net::Payload data = mine;

  int mask = 1;
  while (mask < n) {
    if (rel & mask) {
      const int src = abs_rank(rel - mask, root);
      data = recv_p(len, src, kTagBcast);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  // Nonblocking fan-out: every child send aliases the one delivered handle.
  reqs_.clear();
  while (mask > 0) {
    if (rel + mask < n) {
      reqs_.push_back(isend_p(data, abs_rank(rel + mask, root), kTagBcast));
    }
    mask >>= 1;
  }
  if (!reqs_.empty()) ep_.waitall(reqs_);
  reqs_.clear();
  return data;
}

net::Payload CollEngine::bcast_scatter_allgather(const net::Payload& mine,
                                                 std::size_t len, int root) {
  const int n = size_;
  const int rel = (rank_ - root + n) % n;
  const auto off = [len, n](int i) {
    return static_cast<std::size_t>(i) * len / static_cast<std::size_t>(n);
  };
  const auto cnt = [&off](int i) { return off(i + 1) - off(i); };

  // Phase 1 — binomial scatter by range halving: the holder of relative
  // range [lo, hi] hands the upper half (one contiguous slice handle) to
  // the range's midpoint. Symbolic slices stay symbolic; Raw slices are
  // views of the root's buffer.
  net::Payload part;          // my current range's contents
  std::size_t part_base = 0;  // byte offset of `part` in the full message
  int lo = 0;
  int hi = n - 1;
  if (rel == 0) part = mine;
  while (lo < hi) {
    const int mid = lo + (hi - lo + 1) / 2;  // upper half starts here
    if (rel < mid) {
      if (rel == lo) {
        const std::size_t beg = off(mid);
        net::Payload upper =
            net::Payload::slice(pool_, part, beg - part_base, off(hi + 1) - beg);
        send_p(upper, abs_rank(mid, root), kTagBcastScatter);
      }
      hi = mid - 1;
    } else {
      if (rel == mid) {
        const std::size_t beg = off(mid);
        part = recv_p(off(hi + 1) - beg, abs_rank(lo, root), kTagBcastScatter);
        part_base = beg;
      }
      lo = mid;
    }
  }

  // Phase 2 — ring allgather of the n segments, forwarding the one that
  // arrived last. The runs re-join exactly: symbolic segments into the
  // root's descriptor, Raw ones (views of the root's buffer) into its
  // header.
  net::Payload last =
      net::Payload::slice(pool_, part, off(rel) - part_base, cnt(rel));
  net::Payload low = last;  // segments [0, rel]
  net::Payload high;        // segments [rel + 1, n)
  const int right = abs_rank((rel + 1) % n, root);
  const int left = abs_rank((rel - 1 + n) % n, root);
  for (int s = 0; s < n - 1; ++s) {
    const int recvblk = (rel - s - 1 + n) % n;
    last = sendrecv_p(last, right, cnt(recvblk), left, kTagBcastRing);
    net::Payload& run = recvblk < rel ? low : high;
    run = join(pool_, last, run);
  }
  return rank_ == root ? mine : join(pool_, low, high);
}

void CollEngine::bcast(std::span<std::byte> data, int root) {
  if (size_ <= 1) return;
  net::Payload mine;
  if (rank_ == root) mine = net::Payload::copy_of(pool_, data);
  net::Payload out = bcast_payload(mine, data.size(), root);
  if (rank_ != root) out.copy_to(data.data());
}

// ---------------------------------------------------------------------------
// reduce / allreduce
// ---------------------------------------------------------------------------

net::Payload CollEngine::reduce_binomial(const net::Payload& mine,
                                         std::size_t elem, const ReduceFn& fn,
                                         int root) {
  const int n = size_;
  const int rel = (rank_ - root + n) % n;
  net::Payload accum = mine;
  int mask = 1;
  while (mask < n) {
    if ((rel & mask) == 0) {
      const int rel_src = rel | mask;
      if (rel_src < n) {
        net::Payload in =
            recv_p(mine.size(), abs_rank(rel_src, root), kTagReduce);
        accum = combine(accum, in, elem, fn);
      }
    } else {
      send_p(accum, abs_rank(rel & ~mask, root), kTagReduce);
      break;
    }
    mask <<= 1;
  }
  return rank_ == root ? accum : net::Payload{};
}

void CollEngine::reduce(std::span<const std::byte> send,
                        std::span<std::byte> recv, std::size_t elem,
                        const ReduceFn& fn, int root) {
  if (rank_ == root && recv.size() < send.size()) {
    throw std::invalid_argument("reduce: recv buffer too small");
  }
  net::Payload mine = net::Payload::copy_of(pool_, send);
  net::Payload out = reduce_binomial(mine, elem, fn, root);
  if (rank_ == root) out.copy_to(recv.data());
}

net::Payload CollEngine::allreduce_recursive_doubling(const net::Payload& mine,
                                                      std::size_t elem,
                                                      const ReduceFn& fn) {
  const int n = size_;
  const std::size_t len = mine.size();
  const int pof2 = floor_pof2(n);
  const int rem = n - pof2;
  net::Payload accum = mine;

  // Non-power-of-two pre-phase: the first 2*rem ranks fold pairwise so a
  // power-of-two set (the odd ones plus everyone >= 2*rem) continues.
  int newrank;
  if (rank_ < 2 * rem) {
    if (rank_ % 2 == 0) {
      send_p(accum, rank_ + 1, kTagAllreduce);
      newrank = -1;
    } else {
      net::Payload in = recv_p(len, rank_ - 1, kTagAllreduce);
      accum = combine(accum, in, elem, fn);
      newrank = rank_ / 2;
    }
  } else {
    newrank = rank_ - rem;
  }

  if (newrank != -1) {
    for (int mask = 1; mask < pof2; mask <<= 1) {
      const int newdst = newrank ^ mask;
      const int dst = newdst < rem ? newdst * 2 + 1 : newdst + rem;
      net::Payload in = sendrecv_p(accum, dst, len, dst, kTagAllreduce);
      accum = combine(accum, in, elem, fn);
    }
  }

  // Post-phase: odd ranks hand the finished vector back to their partner.
  if (rank_ < 2 * rem) {
    if (rank_ % 2 != 0) {
      send_p(accum, rank_ - 1, kTagAllreduce);
    } else {
      accum = recv_p(len, rank_ + 1, kTagAllreduce);
    }
  }
  return accum;
}

net::Payload CollEngine::allreduce_rabenseifner(const net::Payload& mine,
                                                std::size_t elem,
                                                const ReduceFn& fn) {
  const int n = size_;
  const std::size_t len = mine.size();
  const int pof2 = floor_pof2(n);
  const int rem = n - pof2;
  const std::size_t nelem = elem > 0 ? len / elem : 0;
  // Segment boundaries must land on element boundaries and every
  // power-of-two participant needs a non-empty segment; otherwise fall
  // back (deterministically) like MPICH's count >= pof2 guard.
  if (nelem < static_cast<std::size_t>(pof2) || nelem * elem != len) {
    return allreduce_recursive_doubling(mine, elem, fn);
  }
  const auto boff = [nelem, elem, pof2](int seg) {
    return static_cast<std::size_t>(seg) * nelem /
           static_cast<std::size_t>(pof2) * elem;
  };

  net::Payload accum = mine;
  int newrank;
  if (rank_ < 2 * rem) {
    if (rank_ % 2 == 0) {
      send_p(accum, rank_ + 1, kTagAllreduce);
      newrank = -1;
    } else {
      net::Payload in = recv_p(len, rank_ - 1, kTagAllreduce);
      accum = combine(accum, in, elem, fn);
      newrank = rank_ / 2;
    }
  } else {
    newrank = rank_ - rem;
  }
  const auto real_rank = [rem](int nr) {
    return nr < rem ? nr * 2 + 1 : nr + rem;
  };

  if (newrank != -1) {
    // Reduce-scatter by recursive halving: at each step I keep the half of
    // my current segment range that contains newrank and trade away the
    // other half (a contiguous slice — symbolic stays symbolic).
    net::Payload cur = accum;
    std::size_t cur_base = 0;
    int slo = 0;
    int shi = pof2;  // segment-index range I still hold, [slo, shi)
    for (int mask = pof2 / 2; mask > 0; mask >>= 1) {
      const int dst = real_rank(newrank ^ mask);
      const int smid = slo + (shi - slo) / 2;
      const bool upper = (newrank & mask) != 0;
      const int klo = upper ? smid : slo;
      const int khi = upper ? shi : smid;
      const int olo = upper ? slo : smid;
      const int ohi = upper ? smid : shi;
      net::Payload out = net::Payload::slice(pool_, cur, boff(olo) - cur_base,
                                             boff(ohi) - boff(olo));
      net::Payload in =
          sendrecv_p(out, dst, boff(khi) - boff(klo), dst, kTagAllreduce);
      net::Payload kept = net::Payload::slice(pool_, cur, boff(klo) - cur_base,
                                              boff(khi) - boff(klo));
      cur = combine(kept, in, elem, fn);
      cur_base = boff(klo);
      slo = klo;
      shi = khi;
    }

    // Allgather by recursive doubling: ranges grow back to [0, pof2).
    for (int mask = 1; mask < pof2; mask <<= 1) {
      const int newdst = newrank ^ mask;
      const int dst = real_rank(newdst);
      const int myblk = newrank & ~(mask - 1);
      const int otherblk = newdst & ~(mask - 1);
      net::Payload in = sendrecv_p(
          cur, dst, boff(otherblk + mask) - boff(otherblk), dst, kTagAllreduce);
      const net::Payload parts[2] = {otherblk < myblk ? in : cur,
                                     otherblk < myblk ? cur : in};
      cur = net::Payload::concat_payloads(pool_, parts);
    }
    accum = cur;
  }

  if (rank_ < 2 * rem) {
    if (rank_ % 2 != 0) {
      send_p(accum, rank_ - 1, kTagAllreduce);
    } else {
      accum = recv_p(len, rank_ + 1, kTagAllreduce);
    }
  }
  return accum;
}

net::Payload CollEngine::allreduce_payload(const net::Payload& mine,
                                           std::size_t elem,
                                           const ReduceFn& fn) {
  if (size_ <= 1) return mine;
  switch (tune_.resolve_allreduce(mine.size(), size_)) {
    case AllreduceAlg::ReduceBcast: {
      // The seed's naive shape, kept as a registered reference algorithm.
      net::Payload red = reduce_binomial(mine, elem, fn, /*root=*/0);
      return bcast_binomial(red, mine.size(), /*root=*/0);
    }
    case AllreduceAlg::Rabenseifner:
      return allreduce_rabenseifner(mine, elem, fn);
    case AllreduceAlg::RecursiveDoubling:
    case AllreduceAlg::Auto:
      break;
  }
  return allreduce_recursive_doubling(mine, elem, fn);
}

void CollEngine::allreduce(std::span<const std::byte> send,
                           std::span<std::byte> recv, std::size_t elem,
                           const ReduceFn& fn) {
  if (recv.size() < send.size()) {
    throw std::invalid_argument("allreduce: recv buffer too small");
  }
  net::Payload mine = net::Payload::copy_of(pool_, send);
  allreduce_payload(mine, elem, fn).copy_to(recv.data());
}

// ---------------------------------------------------------------------------
// gather / gatherv / scatter (linear, nonblocking fan-in/out)
// ---------------------------------------------------------------------------

void CollEngine::gather(std::span<const std::byte> send,
                        std::span<std::byte> recv, int root) {
  const int n = size_;
  const std::size_t block = send.size();
  if (rank_ == root) {
    if (recv.size() < block * static_cast<std::size_t>(n)) {
      throw std::invalid_argument("gather: recv buffer too small");
    }
    reqs_.clear();
    for (int i = 0; i < n; ++i) {
      if (i == rank_) continue;
      reqs_.push_back(ep_.irecv_sink(ctx_, i, kTagGather, block));
    }
    if (!reqs_.empty()) ep_.waitall(reqs_);
    std::size_t ri = 0;
    for (int i = 0; i < n; ++i) {
      auto dst = recv.subspan(static_cast<std::size_t>(i) * block, block);
      if (i == rank_) {
        std::memcpy(dst.data(), send.data(), block);
        util::count_bytes_copied(block);
      } else {
        reqs_[ri++]->recv_payload.copy_to(dst.data());
      }
    }
    reqs_.clear();
  } else {
    send_p(net::Payload::copy_of(pool_, send), root, kTagGather);
  }
}

void CollEngine::gatherv(std::span<const std::byte> send,
                         std::span<std::byte> recv,
                         std::span<const std::size_t> counts, int root) {
  const int n = size_;
  if (rank_ == root) {
    std::size_t total = 0;
    for (int i = 0; i < n; ++i) total += counts[static_cast<std::size_t>(i)];
    if (recv.size() < total) {
      throw std::invalid_argument("gatherv: recv buffer too small");
    }
    reqs_.clear();
    for (int i = 0; i < n; ++i) {
      if (i == rank_) continue;
      reqs_.push_back(ep_.irecv_sink(ctx_, i, kTagGather,
                                    counts[static_cast<std::size_t>(i)]));
    }
    if (!reqs_.empty()) ep_.waitall(reqs_);
    std::size_t offset = 0;
    std::size_t ri = 0;
    for (int i = 0; i < n; ++i) {
      const std::size_t c = counts[static_cast<std::size_t>(i)];
      auto dst = recv.subspan(offset, c);
      if (i == rank_) {
        std::memcpy(dst.data(), send.data(), c);
        util::count_bytes_copied(c);
      } else {
        reqs_[ri++]->recv_payload.copy_to(dst.data());
      }
      offset += c;
    }
    reqs_.clear();
  } else {
    send_p(net::Payload::copy_of(pool_, send), root, kTagGather);
  }
}

void CollEngine::scatter(std::span<const std::byte> send,
                         std::span<std::byte> recv, int root) {
  const int n = size_;
  const std::size_t block = recv.size();
  if (rank_ == root) {
    if (send.size() < block * static_cast<std::size_t>(n)) {
      throw std::invalid_argument("scatter: send buffer too small");
    }
    reqs_.clear();
    for (int i = 0; i < n; ++i) {
      auto blk = send.subspan(static_cast<std::size_t>(i) * block, block);
      if (i == rank_) {
        std::memcpy(recv.data(), blk.data(), block);
        util::count_bytes_copied(block);
      } else {
        reqs_.push_back(
            isend_p(net::Payload::copy_of(pool_, blk), i, kTagScatter));
      }
    }
    if (!reqs_.empty()) ep_.waitall(reqs_);
    reqs_.clear();
  } else {
    recv_p(block, root, kTagScatter).copy_to(recv.data());
  }
}

// ---------------------------------------------------------------------------
// allgather
// ---------------------------------------------------------------------------

net::Payload CollEngine::allgather_ring(const net::Payload& mine) {
  const int n = size_;
  const int right = (rank_ + 1) % n;
  const int left = (rank_ - 1 + n) % n;
  net::Payload last = mine;  // forwarded on the next step (a handle move)
  net::Payload low = mine;   // ranks [0, rank]
  net::Payload high;         // ranks [rank + 1, n)
  for (int s = 0; s < n - 1; ++s) {
    const int recvblk = (rank_ - s - 1 + n) % n;
    last = sendrecv_p(last, right, mine.size(), left, kTagAllgather);
    net::Payload& run = recvblk < rank_ ? low : high;
    run = join(pool_, last, run);
  }
  return join(pool_, low, high);
}

net::Payload CollEngine::allgather_bruck(const net::Payload& mine) {
  const int n = size_;
  const std::size_t block = mine.size();
  // `acc` holds the blocks of ranks rank, rank + 1, ... (mod n): each round
  // sends its first cnt blocks as one slice and appends the peer's.
  net::Payload acc = mine;
  for (int pof2 = 1; pof2 < n; pof2 *= 2) {
    const std::size_t len =
        static_cast<std::size_t>(std::min(pof2, n - pof2)) * block;
    acc = join(pool_, acc,
               sendrecv_p(net::Payload::slice(pool_, acc, 0, len),
                          (rank_ - pof2 + n) % n, len, (rank_ + pof2) % n,
                          kTagAllgather));
  }
  // Rotate into rank order: rank 0's block sits n - rank blocks in.
  const std::size_t first = static_cast<std::size_t>((n - rank_) % n) * block;
  return join(pool_, net::Payload::slice(pool_, acc, first, acc.size() - first),
              net::Payload::slice(pool_, acc, 0, first));
}

net::Payload CollEngine::allgather_payload(const net::Payload& mine) {
  if (size_ <= 1) return mine;
  switch (tune_.resolve_allgather(mine.size(), size_)) {
    case AllgatherAlg::Bruck:
      return allgather_bruck(mine);
    case AllgatherAlg::Ring:
    case AllgatherAlg::Auto:
      break;
  }
  return allgather_ring(mine);
}

void CollEngine::allgather(std::span<const std::byte> send,
                           std::span<std::byte> recv) {
  if (recv.size() < send.size() * static_cast<std::size_t>(size_)) {
    throw std::invalid_argument("allgather: recv buffer too small");
  }
  allgather_payload(net::Payload::copy_of(pool_, send)).copy_to(recv.data());
}

// ---------------------------------------------------------------------------
// alltoall / alltoallv
// ---------------------------------------------------------------------------

net::Payload CollEngine::alltoall_pairwise(const net::Payload& send,
                                           std::size_t block) {
  const int n = size_;
  const auto at = [&](int i) {
    return net::Payload::slice(pool_, send, static_cast<std::size_t>(i) * block,
                               block);
  };
  net::Payload low = at(rank_);  // sources [0, rank]; self: no wire
  net::Payload high;             // sources [rank + 1, n)
  for (int k = 1; k < n; ++k) {
    const int dst = (rank_ + k) % n;
    const int src = (rank_ - k + n) % n;
    net::Payload& run = src < rank_ ? low : high;
    run = join(pool_, sendrecv_p(at(dst), dst, block, src, kTagAlltoall), run);
  }
  return join(pool_, low, high);
}

net::Payload CollEngine::alltoall_bruck(const net::Payload& send,
                                        std::size_t block) {
  const int n = size_;
  const auto at = [&](const net::Payload& p, int i) {
    return net::Payload::slice(pool_, p, static_cast<std::size_t>(i) * block,
                               block);
  };
  // Index i is my block for destination (rank + i) % n. Round k sends the
  // blocks whose index has bit k set to rank + 2^k as one pack and puts the
  // pack from rank - 2^k in their places, so before round k block i is the
  // copy that arrived in the last earlier round whose bit i has, at its
  // position among that round's indices: O(log n) received packs, and no
  // table of blocks, describe every block.
  std::array<net::Payload, 32> in;  // the pack received in each round
  int dropped = 0;  // packs [0, dropped) are not kept: see `uniform`
  const auto current = [&](int i, int k) {
    const int below = i & ((1 << k) - 1);
    if (below == 0) return at(send, (rank_ + i) % n);
    const int j = std::bit_width(static_cast<unsigned>(below)) - 1;
    if (j < dropped) return at(send, 0);
    return at(in[static_cast<std::size_t>(j)],
              ((i >> (j + 1)) << j) | (i & ((1 << j) - 1)));
  };
  // When every block is the same bytes (Zeros, or a Tile of period block:
  // the symbolic skeletons' case) a pack is a prefix. While every pack back
  // equals the one sent, its blocks equal send's, so it is not kept (every
  // rank would hold O(log n) headers through the call), and if that lasts
  // the result is `send` itself: O(1) per round at any n.
  const net::ContentDesc d = send.desc();
  bool uniform = d.kind == net::ContentKind::Zeros ||
                 (d.kind == net::ContentKind::Tile && d.period == block);
  int k = 0;
  for (int pof2 = 1; pof2 < n; pof2 *= 2, ++k) {
    const int moved =
        n / (2 * pof2) * pof2 + std::max(0, n % (2 * pof2) - pof2);
    const net::Payload packed =
        uniform ? net::Payload::slice(pool_, send, 0,
                                      static_cast<std::size_t>(moved) * block)
                : join_all(pool_, moved, [&](int m) {  // m-th index with bit k
                    return current(((m >> k) << (k + 1)) | pof2 |
                                       (m & (pof2 - 1)),
                                   k);
                  });
    auto& got = in[static_cast<std::size_t>(k)];
    got = sendrecv_p(packed, (rank_ + pof2) % n, packed.size(),
                     (rank_ - pof2 + n) % n, kTagAlltoall);
    if (uniform && got.desc() == packed.desc()) {
      got.reset();
      dropped = k + 1;
    } else {
      uniform = false;
    }
  }
  if (uniform) return send;
  // Block i came from rank (rank - i) % n: reverse into source order.
  return join_all(pool_, n, [&](int src) {
    return current((rank_ - src + n) % n, k);
  });
}

net::Payload CollEngine::alltoall_payload(const net::Payload& send) {
  const auto n = static_cast<std::size_t>(size_);
  if (send.size() % n != 0) {
    throw std::invalid_argument(
        "alltoall: send size not divisible by communicator size");
  }
  if (size_ <= 1) return send;
  const std::size_t block = send.size() / n;
  switch (tune_.resolve_alltoall(block, size_)) {
    case AlltoallAlg::Bruck:
      return alltoall_bruck(send, block);
    case AlltoallAlg::Pairwise:
    case AlltoallAlg::Auto:
      break;
  }
  return alltoall_pairwise(send, block);
}

void CollEngine::alltoall(std::span<const std::byte> send,
                          std::span<std::byte> recv) {
  if (recv.size() < send.size()) {
    throw std::invalid_argument("alltoall: recv buffer too small");
  }
  alltoall_payload(net::Payload::copy_of(pool_, send)).copy_to(recv.data());
}

void CollEngine::alltoallv(std::span<const std::byte> send,
                           std::span<const std::size_t> send_counts,
                           std::span<std::byte> recv,
                           std::span<const std::size_t> recv_counts) {
  const auto n = static_cast<std::size_t>(size_);
  const auto me = static_cast<std::size_t>(rank_);
  // Offsets are running sums, kept for the current peers only: the send
  // side walks up from this rank, the receive side down.
  std::size_t send_total = 0;
  std::size_t recv_total = 0;
  std::size_t soff = 0;  // offset of the block for dst
  std::size_t roff = 0;  // offset of the block from src
  for (std::size_t i = 0; i < n; ++i) {
    if (i == me) {
      soff = send_total;
      roff = recv_total;
    }
    send_total += send_counts[i];
    recv_total += recv_counts[i];
  }
  if (send.size() < send_total) {
    throw std::invalid_argument(
        "alltoallv: send buffer smaller than the sum of send counts");
  }
  if (recv.size() < recv_total) {
    throw std::invalid_argument(
        "alltoallv: recv buffer smaller than the sum of recv counts");
  }
  if (send_counts[me] > 0) {
    std::memcpy(recv.data() + roff, send.data() + soff, send_counts[me]);
    util::count_bytes_copied(send_counts[me]);
  }
  for (std::size_t k = 1; k < n; ++k) {
    const std::size_t dst = (me + k) % n;
    const std::size_t src = (me + n - k) % n;
    soff = dst == 0 ? 0 : soff + send_counts[dst - 1];
    roff = src == n - 1 ? recv_total - recv_counts[src]
                        : roff - recv_counts[src];
    net::Payload out =
        net::Payload::copy_of(pool_, send.subspan(soff, send_counts[dst]));
    sendrecv_p(out, static_cast<int>(dst), recv_counts[src],
               static_cast<int>(src), kTagAlltoall)
        .copy_to(recv.data() + roff);
  }
}

// ---------------------------------------------------------------------------
// scan / exscan (chain)
// ---------------------------------------------------------------------------

net::Payload CollEngine::scan_payload(const net::Payload& mine,
                                      std::size_t elem, const ReduceFn& fn,
                                      bool exclusive,
                                      net::Payload& excl_prefix) {
  // The inclusive prefix over ranks 0..r travels down the chain; pooled
  // payload handles replace the seed's per-call vector scratch.
  net::Payload incl = mine;
  if (rank_ > 0) {
    excl_prefix = recv_p(mine.size(), rank_ - 1, kTagScan);
    incl = combine(excl_prefix, mine, elem, fn);
  }
  if (rank_ + 1 < size_) send_p(incl, rank_ + 1, kTagScan);
  return exclusive ? excl_prefix : incl;
}

void CollEngine::scan(std::span<const std::byte> send,
                      std::span<std::byte> recv, std::size_t elem,
                      const ReduceFn& fn, bool exclusive) {
  if (recv.size() < send.size()) {
    throw std::invalid_argument("scan: recv buffer too small");
  }
  net::Payload mine = net::Payload::copy_of(pool_, send);
  net::Payload excl;
  net::Payload out = scan_payload(mine, elem, fn, exclusive, excl);
  // MPI leaves exscan's rank-0 recv buffer untouched (out is empty there).
  out.copy_to(recv.data());
}

}  // namespace sdrmpi::mpi::coll

// ---------------------------------------------------------------------------
// Comm facade: collective entry points delegate to the engine.
// ---------------------------------------------------------------------------

namespace sdrmpi::mpi {

void Comm::barrier() const {
  if (size() <= 1) return;
  coll::CollEngine(*ep_, info()).barrier();
}

void Comm::bcast_bytes(std::span<std::byte> data, int root) const {
  if (size() <= 1) return;
  coll::CollEngine(*ep_, info()).bcast(data, root);
}

void Comm::reduce_bytes(std::span<const std::byte> send,
                        std::span<std::byte> recv, std::size_t elem_size,
                        const ReduceFn& fn, int root) const {
  coll::CollEngine(*ep_, info()).reduce(send, recv, elem_size, fn, root);
}

void Comm::allreduce_bytes(std::span<const std::byte> send,
                           std::span<std::byte> recv, std::size_t elem_size,
                           const ReduceFn& fn) const {
  coll::CollEngine(*ep_, info()).allreduce(send, recv, elem_size, fn);
}

void Comm::gather_bytes(std::span<const std::byte> send,
                        std::span<std::byte> recv, int root) const {
  coll::CollEngine(*ep_, info()).gather(send, recv, root);
}

void Comm::gatherv_bytes(std::span<const std::byte> send,
                         std::span<std::byte> recv,
                         std::span<const std::size_t> counts, int root) const {
  coll::CollEngine(*ep_, info()).gatherv(send, recv, counts, root);
}

void Comm::allgather_bytes(std::span<const std::byte> send,
                           std::span<std::byte> recv) const {
  coll::CollEngine(*ep_, info()).allgather(send, recv);
}

void Comm::scatter_bytes(std::span<const std::byte> send,
                         std::span<std::byte> recv, int root) const {
  coll::CollEngine(*ep_, info()).scatter(send, recv, root);
}

void Comm::alltoall_bytes(std::span<const std::byte> send,
                          std::span<std::byte> recv) const {
  coll::CollEngine(*ep_, info()).alltoall(send, recv);
}

void Comm::alltoallv_bytes(std::span<const std::byte> send,
                           std::span<const std::size_t> send_counts,
                           std::span<std::byte> recv,
                           std::span<const std::size_t> recv_counts) const {
  coll::CollEngine(*ep_, info())
      .alltoallv(send, send_counts, recv, recv_counts);
}

void Comm::scan_bytes(std::span<const std::byte> send,
                      std::span<std::byte> recv, std::size_t elem_size,
                      const ReduceFn& fn, bool exclusive) const {
  coll::CollEngine(*ep_, info()).scan(send, recv, elem_size, fn, exclusive);
}

net::Payload Comm::bcast_payload(const net::Payload& mine, std::size_t len,
                                 int root) const {
  return coll::CollEngine(*ep_, info()).bcast_payload(mine, len, root);
}

net::Payload Comm::allgather_payload(const net::Payload& mine) const {
  return coll::CollEngine(*ep_, info()).allgather_payload(mine);
}

net::Payload Comm::alltoall_payload(const net::Payload& send) const {
  return coll::CollEngine(*ep_, info()).alltoall_payload(send);
}

net::Payload Comm::allreduce_payload(const net::Payload& mine,
                                     std::size_t elem_size,
                                     const ReduceFn& fn) const {
  return coll::CollEngine(*ep_, info()).allreduce_payload(mine, elem_size, fn);
}

}  // namespace sdrmpi::mpi
