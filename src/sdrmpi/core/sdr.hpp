// SdrProtocol: the paper's contribution (Send-Deterministic Replicated MPI).
//
// A parallel replication protocol that exploits send-determinism:
//  * replica k of rank i sends application messages only to replica k of the
//    destination rank (plus inherited destinations after a failover);
//  * on irecvComplete the receiver acknowledges all other alive replicas of
//    the sender's rank (Alg. 1 lines 15-17);
//  * a send request completes once its own copies are injected AND all
//    (r-1) cross-replica acks arrived (§3.2);
//  * on a failure notification, a deterministically elected substitute
//    inherits the failed replica's destinations and resends every buffered
//    un-acked message (Alg. 1 lines 18-27); everyone else cancels its ack
//    expectations and redirects its source table (lines 28-35);
//  * with dual replication a failed replica can be recovered: the
//    substitute forks a fresh process at an application safe point and
//    broadcasts a notification whose FIFO position tells every peer which
//    messages must be (re)sent to / acked toward the new replica (§3.4).
//
// No leader is needed for MPI_ANY_SOURCE: send-determinism guarantees the
// divergence between replicas is not externally observable (§3.1).
#pragma once

#include <vector>

#include "sdrmpi/core/ack_manager.hpp"
#include "sdrmpi/core/protocol.hpp"

namespace sdrmpi::core {

class SdrProtocol : public ReplicatedProtocol {
 public:
  using ReplicatedProtocol::ReplicatedProtocol;

  void isend(mpi::Endpoint& ep, const mpi::SendArgs& a,
             const mpi::Request& req) override;
  void on_recv_complete(mpi::Endpoint& ep, const mpi::FrameHeader& h,
                        const mpi::Request& req) override;
  void on_app_complete(mpi::Endpoint& ep, const mpi::Request& req) override;
  void on_recovery_point(mpi::Endpoint& ep) override;

  [[nodiscard]] AckManager& acks() noexcept { return acks_; }
  [[nodiscard]] std::string debug_state() const override;
  [[nodiscard]] bool quiescent() const override {
    return acks_.size() == 0 && pending_recovery_worlds_.empty();
  }

 protected:
  void protocol_ctl(mpi::Endpoint& ep, const mpi::FrameHeader& h,
                    std::span<const std::byte> payload) override;
  void handle_failure(mpi::Endpoint& ep, int failed_slot) override;
  void handle_recover_notify(mpi::Endpoint& ep,
                             const mpi::FrameHeader& h) override;

  /// Acks all other alive replicas of the sender's rank (except the world
  /// the message physically came from).
  void send_acks(mpi::Endpoint& ep, const mpi::FrameHeader& h);

  AckManager acks_;
  std::vector<int> pending_recovery_worlds_;
  // Send-path scratch buffers (reused across sends; see *_into variants).
  std::vector<int> acker_scratch_;
  std::vector<int> ack_target_scratch_;
};

}  // namespace sdrmpi::core
