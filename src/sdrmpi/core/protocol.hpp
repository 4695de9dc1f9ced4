// ReplicatedProtocol: shared base of every protocol variant.
//
// Provides the Algorithm 1 tables (ReplicaMap), failure-notification
// dispatch, deterministic fault/SDC injection on the send path, and the
// protocol factory the launcher uses.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "sdrmpi/core/job.hpp"
#include "sdrmpi/core/replica_map.hpp"
#include "sdrmpi/mpi/vprotocol.hpp"
#include "sdrmpi/sim/process.hpp"

namespace sdrmpi::core {

class ReplicatedProtocol : public mpi::Vprotocol {
 public:
  ReplicatedProtocol(JobContext& job, int slot);

  [[nodiscard]] ReplicaMap& map() noexcept { return map_; }
  [[nodiscard]] const ReplicaMap& map() const noexcept { return map_; }

  /// Routes Failure / RecoverNotify frames; forwards the rest to
  /// protocol_ctl.
  void on_ctl(mpi::Endpoint& ep, const mpi::FrameHeader& h,
              std::span<const std::byte> payload) final;

 protected:
  /// Crash/SDC injection shared by every protocol's send path. Returns the
  /// payload to actually transmit for this process's own copy — an O(1)
  /// Corrupt wrapper around the original handle when an SdcSpec matches
  /// this send (no bytes are cloned; the flip applies on materialization /
  /// digest). Throws CrashUnwind when a send-count fault fires (the
  /// process dies *before* emitting the message).
  net::Payload begin_app_send(const net::Payload& payload);

  /// Failure-notification handler (Alg. 1 lines 18-35 live in SDR; the base
  /// just maintains the alive view).
  virtual void handle_failure(mpi::Endpoint& ep, int failed_slot);

  /// Recovery marker handler (SDR overrides; others ignore).
  virtual void handle_recover_notify(mpi::Endpoint& ep,
                                     const mpi::FrameHeader& h);

  /// Non-lifecycle control frames (Ack/Decision/Hash/...).
  virtual void protocol_ctl(mpi::Endpoint& ep, const mpi::FrameHeader& h,
                            std::span<const std::byte> payload) {
    (void)ep;
    (void)h;
    (void)payload;
  }

  JobContext& job_;
  const int slot_;
  ReplicaMap map_;
  std::int64_t app_send_count_ = 0;
};

/// Creates the protocol instance for one physical process.
[[nodiscard]] std::unique_ptr<mpi::Vprotocol> make_protocol(JobContext& job,
                                                            int slot);

}  // namespace sdrmpi::core
