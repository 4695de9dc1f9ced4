// Communicator facade: typed point-to-point and collective operations.
//
// A Comm is a cheap handle onto an Endpoint's registered communicator. Both
// classic MPI forms are available: byte-span primitives and typed templates
// over trivially copyable element types. Collective operations are
// implemented on top of the hooked point-to-point path (paper §2.2), which
// is why replication protocols cover them with no extra code.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "sdrmpi/mpi/endpoint.hpp"
#include "sdrmpi/mpi/group.hpp"
#include "sdrmpi/mpi/reduce_ops.hpp"
#include "sdrmpi/mpi/request.hpp"
#include "sdrmpi/mpi/types.hpp"

namespace sdrmpi::mpi {

/// Color value excluding a process from a split (MPI_UNDEFINED analog).
inline constexpr int kUndefined = -(1 << 15);

class Comm {
 public:
  Comm() = default;
  Comm(Endpoint* ep, int handle) : ep_(ep), handle_(handle) {}

  [[nodiscard]] bool valid() const noexcept { return ep_ != nullptr; }
  [[nodiscard]] int rank() const { return info().my_rank; }
  [[nodiscard]] int size() const {
    return static_cast<int>(info().rank_to_slot.size());
  }
  [[nodiscard]] Group group() const {
    return Group(info().rank_to_slot.to_vector());
  }
  [[nodiscard]] Endpoint& endpoint() const { return *ep_; }
  [[nodiscard]] int handle() const noexcept { return handle_; }

  // ---- byte-level point-to-point ----

  [[nodiscard]] Request isend_bytes(std::span<const std::byte> data, int dst,
                                    int tag) const {
    return ep_->isend(info().ctx_p2p, dst, tag, data);
  }
  [[nodiscard]] Request irecv_bytes(std::span<std::byte> buf, int src,
                                    int tag) const {
    return ep_->irecv(info().ctx_p2p, src, tag, buf);
  }
  /// Sends an existing payload handle without copying its bytes, e.g. a
  /// fresh_payload() slab the caller filled in place.
  [[nodiscard]] Request isend_payload(net::Payload payload, int dst,
                                      int tag) const {
    return ep_->isend_payload(info().ctx_p2p, dst, tag, std::move(payload));
  }

  // ---- symbolic point-to-point (no application buffer exists) ----

  /// Sends a content descriptor (Zeros/Pattern): identical wire bytes and
  /// virtual time as a raw send of the same length, O(1) host bytes.
  [[nodiscard]] Request isend_symbolic(const net::ContentDesc& desc, int dst,
                                       int tag = 0) const {
    return ep_->isend_symbolic(info().ctx_p2p, dst, tag, desc);
  }
  void send_symbolic(const net::ContentDesc& desc, int dst,
                     int tag = 0) const {
    auto req = isend_symbolic(desc, dst, tag);
    wait(req);
  }
  /// Zero-copy receive: completes like a buffered recv of up to `cap`
  /// bytes but fills nothing; the delivered contents stay available as
  /// req->recv_payload (size/digest).
  [[nodiscard]] Request irecv_sink(std::size_t cap, int src,
                                   int tag = 0) const {
    return ep_->irecv_sink(info().ctx_p2p, src, tag, cap);
  }
  Status recv_sink(std::size_t cap, int src, int tag = 0) const {
    auto req = irecv_sink(cap, src, tag);
    wait(req);
    return req->status;
  }

  // ---- typed point-to-point ----

  template <class T>
  [[nodiscard]] Request isend(std::span<const T> data, int dst,
                              int tag = 0) const {
    static_assert(std::is_trivially_copyable_v<T>);
    return isend_bytes(std::as_bytes(data), dst, tag);
  }
  template <class T>
  [[nodiscard]] Request irecv(std::span<T> buf, int src, int tag = 0) const {
    static_assert(std::is_trivially_copyable_v<T>);
    return irecv_bytes(std::as_writable_bytes(buf), src, tag);
  }

  template <class T>
  void send(std::span<const T> data, int dst, int tag = 0) const {
    auto req = isend(data, dst, tag);
    wait(req);
  }
  template <class T>
  Status recv(std::span<T> buf, int src, int tag = 0) const {
    auto req = irecv(buf, src, tag);
    wait(req);
    return req->status;
  }

  /// Scalar conveniences.
  template <class T>
  void send_value(const T& v, int dst, int tag = 0) const {
    send(std::span<const T>(&v, 1), dst, tag);
  }
  template <class T>
  [[nodiscard]] T recv_value(int src, int tag = 0) const {
    T v{};
    recv(std::span<T>(&v, 1), src, tag);
    return v;
  }

  /// Combined send+recv without deadlock (both posted before waiting).
  template <class T>
  Status sendrecv(std::span<const T> send_data, int dst, int stag,
                  std::span<T> recv_buf, int src, int rtag) const {
    Request reqs[2] = {irecv(recv_buf, src, rtag), isend(send_data, dst, stag)};
    waitall(reqs);
    return reqs[0]->status;
  }

  // ---- completion / probing ----

  void wait(Request& req) const { ep_->wait(req); }
  [[nodiscard]] bool test(Request& req) const { return ep_->test(req); }
  void waitall(std::span<Request> reqs) const { ep_->waitall(reqs); }
  int waitany(std::span<Request> reqs) const { return ep_->waitany(reqs); }
  [[nodiscard]] bool testall(std::span<Request> reqs) const {
    return ep_->testall(reqs);
  }
  [[nodiscard]] Status probe(int src, int tag) const {
    return ep_->probe(info().ctx_p2p, src, tag);
  }
  [[nodiscard]] std::optional<Status> iprobe(int src, int tag) const {
    return ep_->iprobe(info().ctx_p2p, src, tag);
  }

  // ---- collectives (schedules in mpi/coll/engine.cpp; algorithm choice
  //      per Endpoint::coll_tuning(), see mpi/coll/tuning.hpp) ----

  void barrier() const;
  void bcast_bytes(std::span<std::byte> data, int root) const;
  void reduce_bytes(std::span<const std::byte> send, std::span<std::byte> recv,
                    std::size_t elem_size, const ReduceFn& fn, int root) const;
  void allreduce_bytes(std::span<const std::byte> send,
                       std::span<std::byte> recv, std::size_t elem_size,
                       const ReduceFn& fn) const;
  void gather_bytes(std::span<const std::byte> send, std::span<std::byte> recv,
                    int root) const;
  void gatherv_bytes(std::span<const std::byte> send, std::span<std::byte> recv,
                     std::span<const std::size_t> counts, int root) const;
  void allgather_bytes(std::span<const std::byte> send,
                       std::span<std::byte> recv) const;
  void scatter_bytes(std::span<const std::byte> send, std::span<std::byte> recv,
                     int root) const;
  void alltoall_bytes(std::span<const std::byte> send,
                      std::span<std::byte> recv) const;
  void alltoallv_bytes(std::span<const std::byte> send,
                       std::span<const std::size_t> send_counts,
                       std::span<std::byte> recv,
                       std::span<const std::size_t> recv_counts) const;
  void scan_bytes(std::span<const std::byte> send, std::span<std::byte> recv,
                  std::size_t elem_size, const ReduceFn& fn,
                  bool exclusive) const;

  // ---- payload-native collectives ----
  //
  // The same schedules as the byte-level entry points, but contents stay
  // refcounted net::Payload handles end to end: no user buffer exists and
  // no host byte moves unless an algorithm has to pack (Bruck) or reduce
  // non-Zeros data. With symbolic payloads (symbolic_payload(desc))
  // this runs GB-scale collectives in O(1) host bytes while keeping wire
  // traffic and virtual time bit-identical to the raw-buffer twin — the
  // SymColl path the class C/D skeletons use.

  /// Pooled payload helpers for the payload-native entry points.
  [[nodiscard]] net::Payload symbolic_payload(
      const net::ContentDesc& desc) const {
    return net::Payload::symbolic(&ep_->buffer_pool(), desc);
  }
  /// An uninitialized pooled slab of `n` bytes (net::Payload::fresh): fill
  /// `data` in place, then share the handle — no scratch buffer, no copy.
  [[nodiscard]] net::Payload fresh_payload(std::size_t n,
                                           std::byte*& data) const {
    return net::Payload::fresh(&ep_->buffer_pool(), n, data);
  }
  /// The pool this rank's payloads come from, for Payload::slice and
  /// concat_payloads over collective results.
  [[nodiscard]] util::BufferPool* payload_pool() const {
    return &ep_->buffer_pool();
  }

  /// Broadcast `mine` (valid at root, `len` bytes everywhere); returns the
  /// delivered handle (the root's aliased, never copied).
  [[nodiscard]] net::Payload bcast_payload(const net::Payload& mine,
                                           std::size_t len, int root) const;
  /// Every rank's `mine` (one length everywhere), joined in rank order.
  [[nodiscard]] net::Payload allgather_payload(const net::Payload& mine) const;
  /// `send` holds one equal block per destination, in rank order; returns
  /// the blocks sent here, joined in source order.
  [[nodiscard]] net::Payload alltoall_payload(const net::Payload& send) const;
  /// Element-wise reduction over every rank's payload; all-Zeros inputs
  /// short-circuit and stay symbolic.
  [[nodiscard]] net::Payload allreduce_payload(const net::Payload& mine,
                                               std::size_t elem_size,
                                               const ReduceFn& fn) const;

  // ---- typed collective wrappers ----

  template <class T>
  void bcast(std::span<T> data, int root) const {
    bcast_bytes(std::as_writable_bytes(data), root);
  }
  template <class T>
  void reduce(std::span<const T> send, std::span<T> recv, Op op,
              int root) const {
    reduce_bytes(std::as_bytes(send), std::as_writable_bytes(recv), sizeof(T),
                 reduce_fn<T>(op), root);
  }
  template <class T>
  void allreduce(std::span<const T> send, std::span<T> recv, Op op) const {
    allreduce_bytes(std::as_bytes(send), std::as_writable_bytes(recv),
                    sizeof(T), reduce_fn<T>(op));
  }
  /// In-place allreduce convenience.
  template <class T>
  void allreduce(std::span<T> inout, Op op) const {
    std::vector<T> tmp(inout.begin(), inout.end());
    allreduce(std::span<const T>(tmp), inout, op);
  }
  /// Scalar allreduce convenience.
  template <class T>
  [[nodiscard]] T allreduce_value(const T& v, Op op) const {
    T out{};
    allreduce(std::span<const T>(&v, 1), std::span<T>(&out, 1), op);
    return out;
  }
  template <class T>
  void gather(std::span<const T> send, std::span<T> recv, int root) const {
    gather_bytes(std::as_bytes(send), std::as_writable_bytes(recv), root);
  }
  template <class T>
  void allgather(std::span<const T> send, std::span<T> recv) const {
    allgather_bytes(std::as_bytes(send), std::as_writable_bytes(recv));
  }
  template <class T>
  void scatter(std::span<const T> send, std::span<T> recv, int root) const {
    scatter_bytes(std::as_bytes(send), std::as_writable_bytes(recv), root);
  }
  template <class T>
  void alltoall(std::span<const T> send, std::span<T> recv) const {
    alltoall_bytes(std::as_bytes(send), std::as_writable_bytes(recv));
  }
  template <class T>
  void alltoallv(std::span<const T> send, std::span<const std::size_t> scounts,
                 std::span<T> recv, std::span<const std::size_t> rcounts) const {
    std::vector<std::size_t> sb(scounts.begin(), scounts.end());
    std::vector<std::size_t> rb(rcounts.begin(), rcounts.end());
    for (auto& c : sb) c *= sizeof(T);
    for (auto& c : rb) c *= sizeof(T);
    alltoallv_bytes(std::as_bytes(send), sb, std::as_writable_bytes(recv), rb);
  }
  template <class T>
  void scan(std::span<const T> send, std::span<T> recv, Op op) const {
    scan_bytes(std::as_bytes(send), std::as_writable_bytes(recv), sizeof(T),
               reduce_fn<T>(op), /*exclusive=*/false);
  }
  template <class T>
  void exscan(std::span<const T> send, std::span<T> recv, Op op) const {
    scan_bytes(std::as_bytes(send), std::as_writable_bytes(recv), sizeof(T),
               reduce_fn<T>(op), /*exclusive=*/true);
  }

  // ---- communicator management ----

  /// Collective duplicate (fresh contexts, same membership).
  [[nodiscard]] Comm dup() const;
  /// Collective split by color/key; color kUndefined returns invalid Comm.
  [[nodiscard]] Comm split(int color, int key) const;
  /// Collective create-from-group; non-members get an invalid Comm.
  [[nodiscard]] Comm create(const Group& g) const;

 private:
  [[nodiscard]] const CommInfo& info() const { return ep_->comm(handle_); }
  [[nodiscard]] CommCtx coll_ctx() const { return info().ctx_coll; }

  Endpoint* ep_ = nullptr;
  int handle_ = -1;
};

}  // namespace sdrmpi::mpi
