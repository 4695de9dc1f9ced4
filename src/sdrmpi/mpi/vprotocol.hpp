// The vProtocol analog: interception points between the MPI binding layer
// and the point-to-point engine (the PML in Open MPI terms).
//
// SDR-MPI is implemented in Open MPI as a thin layer that adds pre/post
// treatment around pml_isend / pml_irecv plus two patched PML events
// (pml_match and pml_recv_complete). This interface reproduces exactly those
// hook points, so replication protocols never reimplement matching,
// rendezvous, or collectives — they intercept every message *because*
// collectives are built on the hooked point-to-point path (paper §4.1).
//
// The hooks: isend and irecv (pre-treatment), on_match and
// on_recv_complete (the two patched PML events), plus on_app_complete (the
// ack-on-wait ablation), on_ctl (protocol control frames) and
// on_recovery_point (fork points). Every data frame reaches the endpoint's
// generic sequence dedup/reordering; no hook can drop one before it.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "sdrmpi/mpi/request.hpp"
#include "sdrmpi/mpi/types.hpp"
#include "sdrmpi/mpi/wire.hpp"

namespace sdrmpi::mpi {

class Endpoint;

/// Arguments of an application-level send as they enter the PML. The
/// contents travel as a refcounted (possibly symbolic) net::Payload built
/// once by the endpoint; protocols fan the same handle out to every
/// physical copy and the retransmission store without touching the bytes.
struct SendArgs {
  CommCtx ctx = 0;
  int dst_rank = kProcNull;
  int dst_slot_default = -1;  ///< own-world slot for dst_rank
  int tag = 0;
  net::Payload payload;
  std::uint64_t seq = 0;  ///< logical channel sequence assigned by the PML
};

/// Arguments of an application-level receive as they enter the PML.
struct RecvArgs {
  CommCtx ctx = 0;
  int src_rank = kAnySource;
  int tag = kAnyTag;
  std::span<std::byte> buf{};
};

class Vprotocol {
 public:
  virtual ~Vprotocol() = default;

  /// Pre-treatment of a send. The default forwards to the PML unchanged
  /// (native behaviour); replication protocols fan out / register acks here.
  virtual void isend(Endpoint& ep, const SendArgs& a, const Request& req);

  /// Pre-treatment of a receive. The default posts it unchanged; the
  /// leader-based protocol holds back ANY_SOURCE receives on followers.
  virtual void irecv(Endpoint& ep, const RecvArgs& a, const Request& req);

  /// pml_match: an incoming message was matched to a posted receive.
  virtual void on_match(Endpoint&, const FrameHeader&, const Request&) {}

  /// pml_recv_complete: a message is fully received at library level. This
  /// is where SDR-MPI emits acknowledgements (paper §3.3 line 15).
  virtual void on_recv_complete(Endpoint&, const FrameHeader&,
                                const Request&) {}

  /// Application-level completion: MPI_Wait/MPI_Test reported this receive
  /// done to the application. Only used by the ack-on-wait ablation; the
  /// paper explains why acking here (instead of on_recv_complete) deadlocks.
  virtual void on_app_complete(Endpoint&, const Request&) {}

  /// A protocol control frame arrived (Ack/Decision/Hash/Failure/...).
  virtual void on_ctl(Endpoint&, const FrameHeader&,
                      std::span<const std::byte>) {}

  /// A safe point declared by the application (recovery fork point).
  virtual void on_recovery_point(Endpoint&) {}

  /// Protocol-internal state for deadlock reports.
  [[nodiscard]] virtual std::string debug_state() const { return {}; }

  /// True when this process holds no outstanding protocol obligations
  /// (buffered un-acked messages, pending recoveries). The implicit
  /// finalize keeps a finished process progressing until quiescent so late
  /// acknowledgements, failure notifications and retransmission duties are
  /// still served — real MPI_Finalize behaves the same way.
  [[nodiscard]] virtual bool quiescent() const { return true; }
};

}  // namespace sdrmpi::mpi
