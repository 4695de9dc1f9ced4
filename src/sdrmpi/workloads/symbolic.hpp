// Symbolic workload support: payload modes and the skeleton transfer
// helper shared by the class C/D communication skeletons.
//
// A skeleton workload reproduces a kernel's communication pattern (message
// sizes, sequence, tags) and modeled compute charges without allocating the
// field arrays — which is what makes NAS class C/D problem sizes runnable:
// a class D FT alltoall block is half a GB per message, far beyond what a
// host can afford to memcpy-and-hash per simulated send. Two modes exist:
//
//   Symbolic      sends content descriptors (net::ContentDesc::pattern) and
//                 posts zero-copy sink receives — O(1) host bytes/message;
//   Materialized  sends the *identical* pattern bytes, generated in place
//                 into pooled payload slabs, and posts buffered receives
//                 into real buffers — the oracle twin the determinism
//                 fuzzer runs against Symbolic, asserting bit-identical
//                 virtual-time traces and identical content digests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sdrmpi/mpi/comm.hpp"
#include "sdrmpi/net/content.hpp"
#include "sdrmpi/util/hash.hpp"

namespace sdrmpi::wl {

/// How a workload moves payload bytes.
enum class PayloadMode : int {
  Real,          ///< full arithmetic on real buffers (the default kernels)
  Symbolic,      ///< skeleton traffic as content descriptors (O(1) bytes)
  Materialized,  ///< skeleton traffic as real pattern bytes (oracle twin)
};

[[nodiscard]] constexpr const char* to_string(PayloadMode m) noexcept {
  switch (m) {
    case PayloadMode::Real: return "real";
    case PayloadMode::Symbolic: return "symbolic";
    case PayloadMode::Materialized: return "materialized";
  }
  return "?";
}

/// Skeleton point-to-point transfers. Symbolic and Materialized produce
/// bit-identical traces (same lengths, tags and ordering) and identical
/// per-message digests: the shape seed of a channel depends only on the
/// workload seed and the tag, so the same (seed, len) repeats every
/// iteration and symbolic digests hit the per-thread memo.
class SymXfer {
 public:
  SymXfer(mpi::Comm comm, PayloadMode mode, std::uint64_t seed)
      : comm_(comm),
        symbolic_(mode != PayloadMode::Materialized),
        seed_(seed) {}

  [[nodiscard]] std::uint64_t shape_seed(int tag) const {
    return util::hash_combine(seed_, static_cast<std::uint64_t>(tag));
  }

  /// Nonblocking skeleton send of `bytes` pattern bytes. Materialized mode
  /// generates them straight into a fresh pooled slab and sends that
  /// handle: no application buffer exists and no byte is copied.
  [[nodiscard]] mpi::Request isend(std::size_t bytes, int dst, int tag) {
    if (symbolic_ || dst == mpi::kProcNull) {
      return comm_.isend_symbolic(
          net::ContentDesc::pattern(shape_seed(tag), bytes), dst, tag);
    }
    std::byte* data = nullptr;
    net::Payload p = comm_.fresh_payload(bytes, data);
    net::fill_pattern(shape_seed(tag), 0, bytes, data);
    return comm_.isend_payload(std::move(p), dst, tag);
  }

  /// Nonblocking skeleton receive of up to `cap` bytes. Materialized mode
  /// owns a live buffer per outstanding receive; take_digest releases it.
  [[nodiscard]] mpi::Request irecv(std::size_t cap, int src, int tag) {
    if (symbolic_) return comm_.irecv_sink(cap, src, tag);
    live_.emplace_back(nullptr, std::vector<std::byte>(cap));
    auto req = comm_.irecv_bytes(std::span<std::byte>(live_.back().second),
                                 src, tag);
    live_.back().first = req.get();
    return req;
  }

  /// Content digest of a completed receive — identical in both modes
  /// (fnv1a over the delivered bytes; symbolic payloads digest without
  /// materializing). Call once per irecv after completion.
  [[nodiscard]] std::uint64_t take_digest(const mpi::Request& req) {
    if (symbolic_) return req->recv_payload.digest();
    for (auto it = live_.begin(); it != live_.end(); ++it) {
      if (it->first == req.get()) {
        const std::uint64_t d = util::fnv1a(
            {it->second.data(), req->status.bytes});
        live_.erase(it);
        return d;
      }
    }
    return util::kFnvOffset;  // kProcNull / zero-byte receive
  }

  /// Blocking sendrecv convenience: posts both sides, waits, folds the
  /// received digest into `cs`.
  void sendrecv(std::size_t bytes, int dst, std::size_t cap, int src, int tag,
                util::Checksum& cs) {
    mpi::Request reqs[2] = {irecv(cap, src, tag), isend(bytes, dst, tag)};
    comm_.waitall(reqs);
    cs.add_u64(take_digest(reqs[0]));
  }

 private:
  mpi::Comm comm_;
  bool symbolic_;
  std::uint64_t seed_;
  /// Outstanding materialized receives (heap storage is address-stable
  /// under vector growth, so the posted spans stay valid).
  std::vector<std::pair<const mpi::ReqState*, std::vector<std::byte>>> live_;
};

/// Skeleton collectives over the payload-native CollEngine path.
///
/// Both payload modes run the *identical* schedule (whichever algorithm the
/// run's CollTuning selects), so wire bytes and virtual time are
/// bit-identical between Symbolic and Materialized twins; only the content
/// representation differs — descriptors that digest without materializing
/// vs real pattern bytes. Checksums fold per-block digests in rank-index
/// order, sliced from the one payload a collective returns, which also
/// makes them independent of the delivery order any particular algorithm
/// produces.
///
/// Content convention (same as SymXfer): a block's bytes depend only on
/// (workload seed, shape tag) — every sender of a given collective emits
/// the same pattern, so symbolic digests hit the per-run (seed, len) memo
/// and a class-D collective phase costs O(1) host bytes per call after the
/// first. Materialized blocks and reduction inputs are generated straight
/// into fresh pooled slabs (Comm::fresh_payload), so the only host bytes
/// they occupy are the payloads themselves — no scratch vector, no copy.
class SymColl {
 public:
  SymColl(mpi::Comm comm, PayloadMode mode, std::uint64_t seed)
      : comm_(comm),
        symbolic_(mode != PayloadMode::Materialized),
        seed_(seed) {}

  [[nodiscard]] std::uint64_t shape_seed(int tag) const {
    return util::hash_combine(seed_, static_cast<std::uint64_t>(tag));
  }

  /// Allgather of one `bytes` block per rank; folds every rank's delivered
  /// block digest (rank order) into `cs`.
  void allgather(std::size_t bytes, int tag, util::Checksum& cs) {
    add_blocks(comm_.allgather_payload(make_block(tag, bytes)), bytes, cs);
  }

  /// Alltoall with one `bytes` block per destination. Every destination
  /// gets the same block (the SymXfer content convention), joined n times
  /// by doubling, so the send side is O(log n) joins and O(1) host bytes
  /// even materialized.
  void alltoall(std::size_t bytes, int tag, util::Checksum& cs) {
    const auto n = static_cast<std::size_t>(comm_.size());
    net::Payload send = make_block(tag, bytes);
    for (std::size_t have = 1; have < n; have *= 2) {
      const net::Payload parts[2] = {
          send, net::Payload::slice(comm_.payload_pool(), send, 0,
                                    std::min(have, n - have) * bytes)};
      send = net::Payload::concat_payloads(comm_.payload_pool(), parts);
    }
    add_blocks(comm_.alltoall_payload(send), bytes, cs);
  }

  /// Broadcast of `bytes` pattern bytes from `root`; every rank folds the
  /// delivered content digest. Under the scatter-allgather algorithm the
  /// segments re-join into the root's payload exactly (Payload::slice/
  /// concat algebra): symbolic segments into its descriptor, so the digest
  /// stays memoized, and materialized segments — views of the root's
  /// buffer — into the root's own header, so it is hashed once per call.
  void bcast(std::size_t bytes, int root, int tag, util::Checksum& cs) {
    net::Payload mine;
    if (comm_.rank() == root) mine = make_block(tag, bytes);
    const net::Payload out = comm_.bcast_payload(mine, bytes, root);
    cs.add_u64(out.digest());
  }

  /// Bulk allreduce of a `bytes` all-zeros vector (double Sum). Symbolic
  /// mode short-circuits every combine — the reduction never materializes
  /// and the result stays a Zeros descriptor; the materialized twin sums
  /// real zero bytes to the bit-identical result.
  void allreduce_zeros(std::size_t bytes, util::Checksum& cs) {
    net::Payload mine;
    if (symbolic_) {
      mine = comm_.symbolic_payload(net::ContentDesc::zeros(bytes));
    } else {
      std::byte* data = nullptr;
      mine = comm_.fresh_payload(bytes, data);
      std::fill_n(data, bytes, std::byte{0});
    }
    const net::Payload out = comm_.allreduce_payload(
        mine, sizeof(double), mpi::reduce_fn<double>(mpi::Op::Sum));
    cs.add_u64(out.digest());
  }

 private:
  [[nodiscard]] net::Payload make_block(int tag, std::size_t bytes) {
    const std::uint64_t seed = shape_seed(tag);
    if (symbolic_) {
      return comm_.symbolic_payload(net::ContentDesc::pattern(seed, bytes));
    }
    std::byte* data = nullptr;
    net::Payload p = comm_.fresh_payload(bytes, data);
    net::fill_pattern(seed, 0, bytes, data);
    return p;
  }

  /// Folds the digests of the n `bytes`-byte blocks of `all` into `cs`, in
  /// rank order. A block slice of a rope is the sender's own block header
  /// and one of a Tile the Tile's shared block, so each digest is cached.
  void add_blocks(const net::Payload& all, std::size_t bytes,
                  util::Checksum& cs) const {
    for (int i = 0; i < comm_.size(); ++i) {
      cs.add_u64(net::Payload::slice(comm_.payload_pool(), all,
                                     static_cast<std::size_t>(i) * bytes, bytes)
                     .digest());
    }
  }

  mpi::Comm comm_;
  bool symbolic_;
  std::uint64_t seed_;
};

}  // namespace sdrmpi::wl
