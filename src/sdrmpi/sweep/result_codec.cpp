#include "sdrmpi/sweep/result_codec.hpp"

namespace sdrmpi::sweep {

// Field lists in wire order (codec.hpp), pinned by
// ResultCodec.EncodedBytesArePinned.

template <class Io>
void fields(Io& io, core::ProtocolStats& p) {
  io(p.acks_sent, p.acks_received, p.stale_acks, p.resends, p.decisions_sent,
     p.decisions_used, p.hashes_sent, p.hashes_compared, p.sdc_detected,
     p.failures_observed, p.recoveries, p.extra_copies,
     // v2: checkpoint/restart counters.
     p.checkpoints_taken, p.restarts, p.rework_ns);
}

template <class Io>
void fields(Io& io, net::FabricStats& f) {
  io(f.frames_sent, f.payload_bytes, f.frames_dropped_dead_dst,
     f.intra_node_frames, f.intra_switch_frames, f.inter_switch_frames,
     f.link_stalls, f.link_stall_ns, f.link_busy_ns);
}

template <class Io>
void fields(Io& io, core::MemStats& m) {
  io(m.stack_bytes_reserved, m.stack_bytes_peak, m.stack_depth_peak,
     m.endpoint_bytes, m.fabric_bytes, m.payload_slab_bytes);
}

template <class Io>
void fields(Io& io, core::SlotResult& s) {
  io(s.slot, s.rank, s.world, s.final_state, s.finish_time, s.checksum,
     s.reported_checksum, s.values);
}

template <class Io>
void fields(Io& io, core::RunResult& r) {
  io(r.deadlock, r.time_limit_hit, r.rank_lost, r.errors, r.makespan,
     r.slots, r.app_sends, r.data_frames, r.ctl_frames, r.unexpected,
     r.duplicates_dropped, r.events_executed, r.context_switches,
     r.bytes_copied, r.bytes_hashed, r.protocol, r.fabric,
     // v3: per-subsystem host-memory accounting. Describes the host that
     // ran the simulation (a remote worker's numbers ride back to the
     // coordinator), not the simulated outcome — RunResult::operator==
     // deliberately ignores it.
     r.mem);
}

std::vector<std::byte> encode_result(const core::RunResult& r) {
  ByteWriter w;
  w(kResultCodecVersion, r);
  return w.take();
}

core::RunResult decode_result(std::span<const std::byte> bytes) {
  ByteReader r(bytes);
  std::uint32_t version = 0;
  r(version);
  if (version != kResultCodecVersion) {
    throw CodecError("result codec: version " + std::to_string(version) +
                     " != expected " + std::to_string(kResultCodecVersion));
  }
  core::RunResult out;
  r(out);
  r.finish("result codec");
  return out;
}

}  // namespace sdrmpi::sweep
