// RedMpiProtocol: redMPI-style silent-data-corruption detection (§2.4).
//
// Each replica sends its application message to its own-world receiver plus
// a payload hash to every other receiver replica; receivers compare the
// hash of what they delivered against the sibling senders' hashes and flag
// mismatches as silent data corruption. redMPI does not handle crashes, so
// there is no acknowledgement machinery.
//
// Every mismatch counts in ProtocolStats::sdc_detected. Only a slot's first
// one is logged at Warn; the rest, typically the same flip propagating
// through later messages, log at Debug.
//
// Two wildcard modes reproduce the paper's observation that redMPI's
// overhead grows with non-determinism, and its suggestion that "the
// solutions we propose could also be used by redMPI":
//   * RedMpiLeader - leader-decided ANY_SOURCE (original redMPI)
//   * RedMpiSd     - local decisions via send-determinism (paper's idea)
#pragma once

#include <map>
#include <tuple>

#include "sdrmpi/core/leader.hpp"
#include "sdrmpi/core/protocol.hpp"

namespace sdrmpi::core {

class RedMpiProtocol : public ReplicatedProtocol {
 public:
  RedMpiProtocol(JobContext& job, int slot, bool use_leader)
      : ReplicatedProtocol(job, slot),
        use_leader_(use_leader),
        decider_(job, map_, slot) {}

  void isend(mpi::Endpoint& ep, const mpi::SendArgs& a,
             const mpi::Request& req) override;
  void irecv(mpi::Endpoint& ep, const mpi::RecvArgs& a,
             const mpi::Request& req) override;
  void on_match(mpi::Endpoint& ep, const mpi::FrameHeader& h,
                const mpi::Request& req) override;
  void on_recv_complete(mpi::Endpoint& ep, const mpi::FrameHeader& h,
                        const mpi::Request& req) override;

 protected:
  void protocol_ctl(mpi::Endpoint& ep, const mpi::FrameHeader& h,
                    std::span<const std::byte> payload) override;

 private:
  using MsgKey = std::tuple<mpi::CommCtx, int, std::uint64_t>;  // ctx,src,seq

  void compare(const MsgKey& key, std::uint64_t own, std::uint64_t sibling);

  bool use_leader_;
  WildcardDecider decider_;
  std::map<MsgKey, std::uint64_t> own_hash_;       // delivered, hash known
  std::map<MsgKey, std::uint64_t> sibling_hash_;   // hash arrived first
  bool sdc_warned_ = false;  // first mismatch already logged at Warn
};

}  // namespace sdrmpi::core
