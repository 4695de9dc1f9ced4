// CollEngine: payload-native collective schedules over the hooked
// point-to-point path.
//
// Every schedule moves refcounted net::Payload handles instead of byte
// spans: fan-outs (bcast children, scatter slices) alias one buffer,
// receives are zero-copy sinks whose delivered handles are forwarded
// onward without touching bytes, and user buffers are filled exactly once
// at the edge (the byte-level Comm wrappers). Because contents ride as
// handles, the same schedules serve raw buffers and symbolic descriptors
// (workloads/symbolic.hpp SymColl) with bit-identical wire traffic and
// virtual time — only host-byte work differs.
//
// Allgather and alltoall results are one payload in rank order, built only
// from Payload::slice and concat_payloads: a schedule holds O(log n)
// handles at most, never a table of n block handles, so per-rank host
// state stays flat in the communicator size (equal symbolic blocks fold
// into one Tile descriptor, materialized ones into one rope over the
// senders' block headers).
//
// Per-collective algorithm registry (selected by CollTuning, see
// tuning.hpp):
//   barrier    - dissemination
//   bcast      - binomial | scatter + ring-allgather (van de Geijn)
//   reduce     - binomial (commutative ops)
//   allreduce  - reduce+bcast | recursive doubling | Rabenseifner
//   allgather  - ring | Bruck
//   alltoall   - pairwise | Bruck
//   gather(/v), scatter, alltoallv - linear
//   scan/exscan - chain
//
// Correct tag discipline relies on two MPI facts the endpoint guarantees:
// per-channel FIFO matching, and that every rank executes collectives over
// a communicator in the same order. No schedule posts a wildcard receive,
// so collectives stay send-deterministic under every replication protocol.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sdrmpi/mpi/coll/tuning.hpp"
#include "sdrmpi/mpi/reduce_ops.hpp"
#include "sdrmpi/mpi/request.hpp"
#include "sdrmpi/net/payload.hpp"

namespace sdrmpi::mpi {
class Endpoint;
struct CommInfo;
}  // namespace sdrmpi::mpi

namespace sdrmpi::mpi::coll {

class CollEngine {
 public:
  CollEngine(Endpoint& ep, const CommInfo& info);

  // ---- byte-level entry points (the Comm facade delegates here) ----

  void barrier();
  void bcast(std::span<std::byte> data, int root);
  void reduce(std::span<const std::byte> send, std::span<std::byte> recv,
              std::size_t elem, const ReduceFn& fn, int root);
  void allreduce(std::span<const std::byte> send, std::span<std::byte> recv,
                 std::size_t elem, const ReduceFn& fn);
  void gather(std::span<const std::byte> send, std::span<std::byte> recv,
              int root);
  void gatherv(std::span<const std::byte> send, std::span<std::byte> recv,
               std::span<const std::size_t> counts, int root);
  void scatter(std::span<const std::byte> send, std::span<std::byte> recv,
               int root);
  void allgather(std::span<const std::byte> send, std::span<std::byte> recv);
  void alltoall(std::span<const std::byte> send, std::span<std::byte> recv);
  void alltoallv(std::span<const std::byte> send,
                 std::span<const std::size_t> send_counts,
                 std::span<std::byte> recv,
                 std::span<const std::size_t> recv_counts);
  void scan(std::span<const std::byte> send, std::span<std::byte> recv,
            std::size_t elem, const ReduceFn& fn, bool exclusive);

  // ---- payload-native cores (symbolic path; zero host bytes moved) ----

  /// Broadcast of `mine` (valid at root; length `len` everywhere). Returns
  /// the delivered handle: the root's own payload aliased, a received
  /// handle (binomial), or the concat of received segments
  /// (scatter-allgather — symbolic contents re-merge exactly).
  [[nodiscard]] net::Payload bcast_payload(const net::Payload& mine,
                                           std::size_t len, int root);
  /// Every rank contributes `mine` (the same length everywhere); returns
  /// the n blocks joined in rank order.
  [[nodiscard]] net::Payload allgather_payload(const net::Payload& mine);
  /// `send` holds this rank's n equal blocks in destination order; returns
  /// the n blocks sent here, joined in source order.
  [[nodiscard]] net::Payload alltoall_payload(const net::Payload& send);
  /// Element-wise reduction of every rank's `mine` (all same length).
  /// Combines over Zeros short-circuit — an all-Zeros reduction stays a
  /// Zeros descriptor end to end; anything else materializes each operand
  /// exactly once (lazy, shared by aliases) and reduces into pooled
  /// scratch.
  [[nodiscard]] net::Payload allreduce_payload(const net::Payload& mine,
                                               std::size_t elem,
                                               const ReduceFn& fn);

 private:
  // p2p primitives on the collective context (sink receives only).
  Request isend_p(const net::Payload& p, int dst, int tag);
  void send_p(const net::Payload& p, int dst, int tag);
  [[nodiscard]] net::Payload recv_p(std::size_t cap, int src, int tag);
  [[nodiscard]] net::Payload sendrecv_p(const net::Payload& s, int dst,
                                        std::size_t cap, int src, int tag);
  /// Element-wise fn over two equal-size payloads; Zeros x Zeros stays
  /// symbolic, otherwise reduces through a pooled scratch slab.
  [[nodiscard]] net::Payload combine(const net::Payload& a,
                                     const net::Payload& b, std::size_t elem,
                                     const ReduceFn& fn);

  [[nodiscard]] net::Payload bcast_binomial(const net::Payload& mine,
                                            std::size_t len, int root);
  [[nodiscard]] net::Payload bcast_scatter_allgather(const net::Payload& mine,
                                                     std::size_t len,
                                                     int root);
  [[nodiscard]] net::Payload reduce_binomial(const net::Payload& mine,
                                             std::size_t elem,
                                             const ReduceFn& fn, int root);
  [[nodiscard]] net::Payload allreduce_recursive_doubling(
      const net::Payload& mine, std::size_t elem, const ReduceFn& fn);
  [[nodiscard]] net::Payload allreduce_rabenseifner(const net::Payload& mine,
                                                    std::size_t elem,
                                                    const ReduceFn& fn);
  [[nodiscard]] net::Payload allgather_ring(const net::Payload& mine);
  [[nodiscard]] net::Payload allgather_bruck(const net::Payload& mine);
  [[nodiscard]] net::Payload alltoall_pairwise(const net::Payload& send,
                                               std::size_t block);
  [[nodiscard]] net::Payload alltoall_bruck(const net::Payload& send,
                                            std::size_t block);
  [[nodiscard]] net::Payload scan_payload(const net::Payload& mine,
                                          std::size_t elem, const ReduceFn& fn,
                                          bool exclusive,
                                          net::Payload& excl_prefix);

  [[nodiscard]] int abs_rank(int rel, int root) const noexcept {
    return (rel + root) % size_;
  }

  Endpoint& ep_;
  CommCtx ctx_;
  int rank_;
  int size_;
  const CollTuning& tune_;
  util::BufferPool* pool_;
  /// The endpoint's recycled fan-out request list (collectives block per
  /// process, so one list serves every communicator).
  std::vector<Request>& reqs_;
};

}  // namespace sdrmpi::mpi::coll
