// Endpoint: the per-physical-process MPI engine (the PML analog).
//
// Owns matching state (posted-receive and unexpected-message queues per
// communicator context), the eager/rendezvous point-to-point protocols,
// per-logical-channel sequence numbering, and the progress loop. All
// progress happens inside MPI calls — the default Open MPI / MPICH2
// behaviour that the paper's ack-on-irecvComplete argument depends on.
//
// Hot-path layout: per-channel sequence counters and the context→comm
// mapping are flat vectors indexed by the (dense) context id and peer rank
// — the seed code's std::map<std::pair<CommCtx,int>,...> lookups are gone
// from the send/receive path. Message payloads are refcounted pool-backed
// net::Payload handles end to end: unexpected/parked frames and pending
// rendezvous transfers alias the delivered buffer instead of copying it.
//
// Replication protocols intercept traffic through the Vprotocol hooks; the
// endpoint provides them base operations (base_isend / base_irecv /
// send_ctl) that bypass further interception.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sdrmpi/mpi/coll/scratch.hpp"
#include "sdrmpi/mpi/coll/tuning.hpp"
#include "sdrmpi/mpi/rank_map.hpp"
#include "sdrmpi/mpi/request.hpp"
#include "sdrmpi/mpi/seq_map.hpp"
#include "sdrmpi/mpi/types.hpp"
#include "sdrmpi/mpi/vprotocol.hpp"
#include "sdrmpi/mpi/wire.hpp"
#include "sdrmpi/net/fabric.hpp"

namespace sdrmpi::mpi {

/// Traffic/behaviour counters for one endpoint.
struct EndpointStats {
  std::uint64_t app_sends = 0;          // logical isend operations
  std::uint64_t data_frames_sent = 0;   // physical Eager/Rts copies
  std::uint64_t ctl_frames_sent = 0;    // protocol control frames
  std::uint64_t frames_processed = 0;
  std::uint64_t unexpected = 0;         // frames queued before a recv matched
  std::uint64_t duplicates_dropped = 0; // seq-dedup drops (mirror/failover)
  std::uint64_t rejected = 0;           // protocol filter rejections
  std::uint64_t parked = 0;             // out-of-order frames held back
};

/// Communicator bookkeeping shared by the Comm facade.
struct CommInfo {
  int handle = -1;
  CommCtx ctx_p2p = 0;
  CommCtx ctx_coll = 0;
  int my_rank = -1;
  RankMap rank_to_slot;  // default (own-world) slot per rank
};

class Endpoint {
 private:
  struct StoredFrame {
    FrameHeader h;
    net::Payload bulk;  ///< aliases the delivered buffer (no copy)
    Time arrival = 0;
  };
  /// Per-context hot state: channel counters (sparse, keyed by active
  /// peer — see seq_map.hpp), matching queues, and the owning communicator.
  /// Contexts are dense small integers, so the whole table is a deque
  /// indexed by ctx (deque: grows without invalidating references held
  /// across protocol callbacks).
  struct CtxState {
    SeqMap send_seq;  ///< next seq per dst_rank
    SeqMap recv_seq;  ///< next expected per src_rank
    // Posted/unexpected queues are vectors (ordered erase preserves MPI
    // matching order); they are short, and their capacity recycles where
    // the former std::list allocated a node per operation.
    std::vector<Request> posted;
    std::vector<StoredFrame> unexpected;
    std::map<int, std::map<std::uint64_t, StoredFrame>> parked;  // reorder
    int comm_handle = -1;  ///< registered communicator, -1 if none yet
  };
  /// Pending rendezvous transfers live in flat vectors looked up by their
  /// unique id/key (a handful live at a time; the former std::map paid a
  /// node allocation per large message).
  struct RdvSend {
    std::uint64_t id = 0;
    net::Payload payload;  ///< shared with sibling copies / ack store
    int dst_slot = -1;
    Request req;
    FrameHeader header;
  };
  struct RdvRecv {
    int src_slot = -1;
    std::uint64_t rdv_id = 0;
    Request req;
    FrameHeader header;  // original Rts header
    bool discard = false;
  };

 public:
  Endpoint(net::Fabric& fabric, int slot, int world, int nworlds);
  ~Endpoint();

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  // ---- lifecycle ----

  /// Attaches to the fabric; `pid` is the owning sim process.
  void bind_process(int pid);
  /// Recovery: a respawned process takes over this endpoint's slot.
  void rebind_process(int pid);
  void set_protocol(std::unique_ptr<Vprotocol> protocol);
  [[nodiscard]] Vprotocol& protocol() noexcept { return *protocol_; }

  // ---- identity ----
  [[nodiscard]] int slot() const noexcept { return slot_; }
  [[nodiscard]] int world() const noexcept { return world_; }
  [[nodiscard]] int nworlds() const noexcept { return nworlds_; }
  [[nodiscard]] int pid() const noexcept { return pid_; }
  [[nodiscard]] net::Fabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] sim::Engine& engine() noexcept { return fabric_.engine(); }

  // ---- communicator registry ----

  /// Registers a communicator with explicit context ids (launcher-created
  /// worlds use fixed ids so they align across replicas).
  int register_comm_fixed(CommCtx ctx_p2p, CommCtx ctx_coll, int my_rank,
                          RankMap rank_to_slot);
  /// Registers a communicator allocating the next context pair. Allocation
  /// order is identical across replicas of an SPMD app, which is what makes
  /// cross-world frames (failover resends) land in the right context.
  int register_comm(int my_rank, RankMap rank_to_slot);
  /// Burns one context pair without registering (split with kUndefined).
  void skip_ctx_pair() { next_ctx_ += 2; }
  [[nodiscard]] const CommInfo& comm(int handle) const;
  [[nodiscard]] const CommInfo* comm_by_ctx(CommCtx ctx) const;
  [[nodiscard]] const std::vector<CommInfo>& all_comms() const noexcept {
    return comms_;
  }

  // ---- point-to-point API (used by the Comm facade) ----

  Request isend(CommCtx ctx, int dst_rank, int tag,
                std::span<const std::byte> data);
  /// Symbolic send: the contents are a descriptor (Zeros/Pattern), no app
  /// buffer exists and no byte is copied or touched on the send path —
  /// wire-byte accounting and virtual time are identical to a raw send of
  /// the same length.
  Request isend_symbolic(CommCtx ctx, int dst_rank, int tag,
                         const net::ContentDesc& desc);
  /// Sends an existing payload handle (no copy, refcount bump only). The
  /// collective engine's currency: bcast fan-outs and forwarded allgather
  /// blocks alias one buffer across every hop.
  Request isend_payload(CommCtx ctx, int dst_rank, int tag,
                        net::Payload payload);
  Request irecv(CommCtx ctx, int src_rank, int tag, std::span<std::byte> buf);
  /// Zero-copy receive: completes like irecv but records only the byte
  /// count and the delivered payload handle (req->recv_payload) instead of
  /// filling a buffer; `cap` bounds the acceptable message size
  /// (truncation check). Symbolic senders + sink receivers move GB-scale
  /// messages with O(1) host bytes touched.
  Request irecv_sink(CommCtx ctx, int src_rank, int tag, std::size_t cap);
  void wait(Request& req);
  [[nodiscard]] bool test(Request& req);
  void waitall(std::span<Request> reqs);
  int waitany(std::span<Request> reqs);
  [[nodiscard]] bool testall(std::span<Request> reqs);
  Status probe(CommCtx ctx, int src_rank, int tag);
  std::optional<Status> iprobe(CommCtx ctx, int src_rank, int tag);

  // ---- base operations for protocols (no further interception) ----

  /// Sends one physical copy of a data message to dst_slot. Chooses eager
  /// or rendezvous by size; bumps req->local_pending until the copy's
  /// buffer-reuse point. The payload handle is shared — fan-out callers
  /// (replica copies, the retransmission store, failover resends) pass the
  /// same (possibly symbolic) payload and no byte is ever re-copied.
  void base_isend(CommCtx ctx, int dst_rank, int dst_slot, int tag,
                  std::uint64_t seq, const net::Payload& payload,
                  const Request& req);
  /// Posts a receive into the matching engine.
  void base_irecv(CommCtx ctx, int src_rank, int tag, std::span<std::byte> buf,
                  const Request& req);
  /// Sends a small protocol control frame (ack/decision/hash/...).
  void send_ctl(int dst_slot, FrameHeader h,
                std::span<const std::byte> payload = {});

  /// Runs one progress round: consumes every frame that has arrived.
  void progress();

  /// Blocks the process until pred() holds, making progress in between.
  void progress_until(const std::function<bool()>& pred, const char* why);

  /// Charges the fixed cost of entering an MPI call and gives the
  /// simulator a scheduling point. Public so collectives/env share it.
  void enter_call();

  /// Declares an application-level safe point for recovery forking.
  void recovery_point();

  /// Virtual time (current process clock).
  [[nodiscard]] Time now() noexcept { return engine().now(); }

  [[nodiscard]] const EndpointStats& stats() const noexcept { return stats_; }
  [[nodiscard]] EndpointStats& stats() noexcept { return stats_; }

  // ---- collective engine state (see mpi/coll/) ----

  /// Algorithm-selection policy; installed from RunConfig by the launcher
  /// so tuning is a sweep axis. Identical on every endpoint of a run.
  void set_coll_tuning(const CollTuning& t) noexcept { coll_tuning_ = t; }
  [[nodiscard]] const CollTuning& coll_tuning() const noexcept {
    return coll_tuning_;
  }
  /// Recycled schedule scratch (collectives are blocking per process, so
  /// one set serves every communicator of this endpoint).
  [[nodiscard]] coll::Scratch& coll_scratch() noexcept {
    return coll_scratch_;
  }
  [[nodiscard]] util::BufferPool& buffer_pool() noexcept {
    return fabric_.pool();
  }

  /// Rank of this endpoint within the communicator owning ctx; -1 if the
  /// context is unknown here.
  [[nodiscard]] int rank_in(CommCtx ctx) const;

  /// Next sequence number that will be assigned on channel (ctx, ->dst).
  [[nodiscard]] std::uint64_t next_send_seq(CommCtx ctx, int dst_rank) const;
  /// Next sequence number expected on channel (ctx, src ->).
  [[nodiscard]] std::uint64_t next_recv_seq(CommCtx ctx, int src_rank) const;

  /// Protocol state transfer for recovery: an on-demand snapshot of the
  /// per-channel sequence counters. One record per (ctx, peer) channel —
  /// the endpoint itself keeps the counters only in its flat per-context
  /// state, so snapshot and live state cannot drift.
  struct SeqSnapshot {
    struct Seqs {
      std::uint64_t send = 0;  ///< next outgoing seq to peer
      std::uint64_t recv = 0;  ///< next expected seq from peer
    };
    std::map<std::pair<CommCtx, int>, Seqs> channels;
  };
  [[nodiscard]] SeqSnapshot snapshot_seqs() const;
  void restore_seqs(const SeqSnapshot& snap);

  /// Recovery-cut variant of snapshot_seqs: receive counters are rolled
  /// back over frames that were accepted but not yet *delivered* to the
  /// application (unexpected queue). Those messages are not reflected in
  /// the application snapshot and were never acknowledged, so peers will
  /// re-feed them after the notification — the recovered endpoint must be
  /// willing to accept them again. Returns false when the undelivered
  /// frames are not the trailing sequence numbers of their channel (the
  /// app consumed a channel out of order at this instant): the caller must
  /// defer the fork to a later safe point.
  [[nodiscard]] bool snapshot_seqs_for_recovery(SeqSnapshot& out) const;

  /// True while a matched rendezvous transfer is still in flight; forking
  /// a recovery snapshot now would lose its payload for the new replica.
  [[nodiscard]] bool has_pending_rdv_recvs() const;

  /// Human-readable matching/rendezvous state for deadlock reports.
  [[nodiscard]] std::string debug_state() const;

  /// Host bytes held by this endpoint's message-layer state: sequence
  /// maps, matching-queue capacities, parked frames, rendezvous tables,
  /// communicator rank maps, inbox and request cache. Feeds
  /// MemStats::endpoint_bytes (run_config.hpp) — a diagnostic of what the
  /// per-rank state costs, not an allocator contract.
  [[nodiscard]] std::size_t footprint_bytes() const noexcept;

 private:
  Request irecv_common(CommCtx ctx, int src_rank, int tag,
                       std::span<std::byte> buf, bool sink, std::size_t cap);
  void on_delivery(net::Delivery&& d);
  void handle_frame(net::Delivery&& d);
  void handle_data_frame(StoredFrame&& f);
  void accept_data_frame(StoredFrame&& f);
  void match_or_queue(StoredFrame&& f);
  void deliver_eager(StoredFrame&& f, const Request& req);
  void start_rendezvous_recv(const StoredFrame& f, const Request& req,
                             bool discard);
  void handle_cts(const FrameHeader& h);
  void handle_rdv_data(StoredFrame&& f);
  [[nodiscard]] static bool matches(const Request& recv, const FrameHeader& h);
  void complete_recv(const FrameHeader& h, const Request& req);
  void fire_app_complete(const Request& req);
  void charge(double ns);

  [[nodiscard]] CtxState& ctx_state(CommCtx ctx) {
    while (ctx_.size() <= ctx) ctx_.emplace_back();
    return ctx_[ctx];
  }
  [[nodiscard]] const CtxState* ctx_state_if(CommCtx ctx) const noexcept {
    return ctx < ctx_.size() ? &ctx_[ctx] : nullptr;
  }
  [[nodiscard]] util::BufferPool* pool() noexcept { return &fabric_.pool(); }

  net::Fabric& fabric_;
  const int slot_;
  const int world_;
  const int nworlds_;
  int pid_ = -1;

  std::unique_ptr<Vprotocol> protocol_;
  std::deque<net::Delivery> inbox_;

  std::vector<CommInfo> comms_;
  CommCtx next_ctx_;

  std::deque<CtxState> ctx_;  // indexed by context id (dense, small)
  std::vector<RdvSend> rdv_sends_;
  std::vector<RdvRecv> rdv_recvs_;
  std::uint64_t next_rdv_id_ = 1;

  /// Completed-request recycler: isend/irecv reuse a request object once
  /// every other holder (application, queues, protocol stores) dropped it
  /// — use_count()==1 means only the cache references it.
  [[nodiscard]] Request make_request_cached(ReqState::Kind kind);
  std::vector<Request> req_cache_;
  std::size_t req_cache_scan_ = 0;

  CollTuning coll_tuning_;
  coll::Scratch coll_scratch_;

  EndpointStats stats_;
};

}  // namespace sdrmpi::mpi
