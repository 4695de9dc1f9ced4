#include "sdrmpi/sweep/config_key.hpp"

#include "sdrmpi/sweep/codec.hpp"
#include "sdrmpi/util/hash.hpp"

namespace sdrmpi::sweep {

// Field lists in wire order (codec.hpp). The order is the canonical
// serialization: it is pinned by ConfigKey.CanonicalBytesArePinned.

template <class Io>
void fields(Io& io, net::TopologySpec& t) {
  io(t.kind, t.placement, t.ranks_per_node, t.nodes_per_switch,
     t.oversubscription, t.link_ns_per_byte, t.intra_node_latency_ns,
     t.inter_switch_latency_ns);
}

template <class Io>
void fields(Io& io, net::NetParams& p) {
  io(p.o_send_ns, p.o_recv_ns, p.latency_ns, p.ns_per_byte, p.eager_threshold,
     p.topology);
}

template <class Io>
void fields(Io& io, mpi::CollTuning& t) {
  io(t.bcast, t.allreduce, t.allgather, t.alltoall, t.bcast_long_bytes,
     t.allreduce_long_bytes, t.allgather_bruck_bytes, t.alltoall_bruck_bytes);
}

template <class Io>
void fields(Io& io, core::FaultSpec& f) {
  io(f.slot, f.at_time, f.at_send);
}

template <class Io>
void fields(Io& io, core::SdcSpec& s) {
  io(s.slot, s.at_send);
}

template <class Io>
void fields(Io& io, core::CkptConfig& c) {
  io(c.interval, c.checkpoint_cost, c.restart_cost);
}

template <class Io>
void fields(Io& io, core::RunConfig& c) {
  io(c.nranks, c.replication, c.protocol, c.net, c.coll, c.faults, c.sdc,
     c.auto_recover, c.ack_on_wait, c.eager_copy_completion, c.time_limit,
     c.seed, c.ckpt);  // ckpt came in v2, after the rest
}

std::vector<std::byte> serialize_config(const core::RunConfig& cfg) {
  ByteWriter w;
  w(kConfigKeyVersion, cfg);
  return w.take();
}

core::RunConfig deserialize_config(std::span<const std::byte> bytes) {
  ByteReader r(bytes);
  std::uint8_t version = 0;
  r(version);
  if (version != kConfigKeyVersion) {
    throw CodecError("config codec: version " + std::to_string(version) +
                     " != expected " + std::to_string(kConfigKeyVersion));
  }
  core::RunConfig cfg;
  r(cfg);
  r.finish("config codec");
  return cfg;
}

std::uint64_t config_key(const core::RunConfig& cfg) {
  const auto bytes = serialize_config(cfg);
  return util::fnv1a(bytes);
}

std::uint64_t config_key(const core::RunConfig& cfg,
                         std::string_view app_spec) {
  // Resume the FNV stream over the spec bytes; empty spec is the identity.
  return util::fnv1a(std::as_bytes(std::span(app_spec.data(),
                                             app_spec.size())),
                     config_key(cfg));
}

}  // namespace sdrmpi::sweep
