#include "sdrmpi/core/protocol.hpp"
#include <algorithm>

#include "sdrmpi/util/log.hpp"

namespace sdrmpi::core {

const char* to_string(ProtocolKind k) noexcept {
  switch (k) {
    case ProtocolKind::Native: return "native";
    case ProtocolKind::Sdr: return "sdr";
    case ProtocolKind::Mirror: return "mirror";
    case ProtocolKind::Leader: return "leader";
    case ProtocolKind::RedMpiLeader: return "redmpi-leader";
    case ProtocolKind::RedMpiSd: return "redmpi-sd";
    case ProtocolKind::Ckpt: return "ckpt";
  }
  return "?";
}

ReplicatedProtocol::ReplicatedProtocol(JobContext& job, int slot)
    : job_(job),
      slot_(slot),
      map_(job.topo, job.topo.world_of(slot), job.topo.rank_of(slot)) {}

net::Payload ReplicatedProtocol::begin_app_send(const net::Payload& payload) {
  const std::int64_t n = app_send_count_++;
  for (std::size_t fi = 0; fi < job_.config.faults.size(); ++fi) {
    const FaultSpec& f = job_.config.faults[fi];
    if (f.slot == slot_ && f.at_send >= 0 && f.at_send == n &&
        !job_.fault_fired[fi]) {
      job_.fault_fired[fi] = true;
      SDR_LOG(Info, "fault") << "slot " << slot_ << " crashes before send #"
                             << n;
      job_.trigger_crash(slot_);
      throw sim::CrashUnwind{};
    }
  }
  for (std::size_t si = 0; si < job_.config.sdc.size(); ++si) {
    const SdcSpec& s = job_.config.sdc[si];
    if (s.slot == slot_ && s.at_send == n && !payload.empty() &&
        !job_.sdc_fired[si]) {
      job_.sdc_fired[si] = true;
      // Bit-flip a high-order bit of the first payload word in this
      // process's own copy (a low mantissa bit could be absorbed by
      // floating-point rounding downstream). The sibling replica transmits
      // the correct data, so results diverge — exactly the silent
      // corruption redMPI detects via hash comparison. The Corrupt wrapper
      // is O(1): it aliases the original buffer/descriptor and applies the
      // flip lazily (bit 6 of byte min(7, len-1), the former in-place
      // corruption position, so delivered bytes are unchanged).
      const std::uint64_t byte =
          std::min<std::uint64_t>(7, payload.size() - 1);
      SDR_LOG(Info, "fault") << "slot " << slot_
                             << " silently corrupts send #" << n;
      return net::Payload::corrupt(&job_.fabric->pool(), payload,
                                   byte * 8 + 6);
    }
  }
  return payload;
}

void ReplicatedProtocol::on_ctl(mpi::Endpoint& ep, const mpi::FrameHeader& h,
                                std::span<const std::byte> payload) {
  switch (h.kind) {
    case mpi::FrameKind::Failure: {
      const int failed = static_cast<int>(h.value);
      if (!map_.alive(failed)) return;  // already observed
      ++job_.pstats.failures_observed;
      map_.set_alive(failed, false);
      handle_failure(ep, failed);
      return;
    }
    case mpi::FrameKind::RecoverNotify:
      handle_recover_notify(ep, h);
      return;
    default:
      protocol_ctl(ep, h, payload);
      return;
  }
}

void ReplicatedProtocol::handle_failure(mpi::Endpoint& ep, int failed_slot) {
  (void)ep;
  // Base behaviour: track rank loss (all replicas of one rank dead).
  const int rank = map_.topo().rank_of(failed_slot);
  if (map_.elect_substitute(rank) < 0) {
    job_.rank_lost = true;
    SDR_LOG(Error, "core") << "rank " << rank
                           << " lost: all replicas have failed";
  }
}

void ReplicatedProtocol::handle_recover_notify(mpi::Endpoint& ep,
                                               const mpi::FrameHeader& h) {
  (void)ep;
  map_.set_alive(static_cast<int>(h.value), true);
}

}  // namespace sdrmpi::core
