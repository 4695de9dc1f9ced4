#include "sdrmpi/sweep/config_key.hpp"

#include "sdrmpi/sweep/result_codec.hpp"
#include "sdrmpi/util/hash.hpp"

namespace sdrmpi::sweep {
namespace {

void put_topology(ByteWriter& w, const net::TopologySpec& t) {
  w.u8(static_cast<std::uint8_t>(t.kind));
  w.u8(static_cast<std::uint8_t>(t.placement));
  w.i32(t.ranks_per_node);
  w.i32(t.nodes_per_switch);
  w.f64(t.oversubscription);
  w.f64(t.link_ns_per_byte);
  w.f64(t.intra_node_latency_ns);
  w.f64(t.intra_switch_latency_ns);
  w.f64(t.inter_switch_latency_ns);
}

void put_net(ByteWriter& w, const net::NetParams& p) {
  w.f64(p.o_send_ns);
  w.f64(p.o_recv_ns);
  w.f64(p.latency_ns);
  w.f64(p.ns_per_byte);
  w.u64(p.header_bytes);
  w.u64(p.ctl_frame_bytes);
  w.u64(p.eager_threshold);
  w.f64(p.call_cost_ns);
  put_topology(w, p.topology);
}

void put_coll(ByteWriter& w, const mpi::CollTuning& t) {
  w.u8(static_cast<std::uint8_t>(t.bcast));
  w.u8(static_cast<std::uint8_t>(t.allreduce));
  w.u8(static_cast<std::uint8_t>(t.allgather));
  w.u8(static_cast<std::uint8_t>(t.alltoall));
  w.u64(t.bcast_long_bytes);
  w.u64(t.allreduce_long_bytes);
  w.u64(t.allgather_bruck_bytes);
  w.u64(t.alltoall_bruck_bytes);
  w.i32(t.min_tree_comm);
}

void get_topology(ByteReader& r, net::TopologySpec& t) {
  t.kind = static_cast<net::TopologyKind>(r.u8());
  t.placement = static_cast<net::PlacementPolicy>(r.u8());
  t.ranks_per_node = r.i32();
  t.nodes_per_switch = r.i32();
  t.oversubscription = r.f64();
  t.link_ns_per_byte = r.f64();
  t.intra_node_latency_ns = r.f64();
  t.intra_switch_latency_ns = r.f64();
  t.inter_switch_latency_ns = r.f64();
}

void get_net(ByteReader& r, net::NetParams& p) {
  p.o_send_ns = r.f64();
  p.o_recv_ns = r.f64();
  p.latency_ns = r.f64();
  p.ns_per_byte = r.f64();
  p.header_bytes = r.u64();
  p.ctl_frame_bytes = r.u64();
  p.eager_threshold = r.u64();
  p.call_cost_ns = r.f64();
  get_topology(r, p.topology);
}

void get_coll(ByteReader& r, mpi::CollTuning& t) {
  t.bcast = static_cast<mpi::BcastAlg>(r.u8());
  t.allreduce = static_cast<mpi::AllreduceAlg>(r.u8());
  t.allgather = static_cast<mpi::AllgatherAlg>(r.u8());
  t.alltoall = static_cast<mpi::AlltoallAlg>(r.u8());
  t.bcast_long_bytes = r.u64();
  t.allreduce_long_bytes = r.u64();
  t.allgather_bruck_bytes = r.u64();
  t.alltoall_bruck_bytes = r.u64();
  t.min_tree_comm = r.i32();
}

}  // namespace

std::vector<std::byte> serialize_config(const core::RunConfig& cfg) {
  ByteWriter w;
  w.u8(kConfigKeyVersion);
  w.i32(cfg.nranks);
  w.i32(cfg.replication);
  w.u8(static_cast<std::uint8_t>(cfg.protocol));
  put_net(w, cfg.net);
  put_coll(w, cfg.coll);
  w.u32(static_cast<std::uint32_t>(cfg.faults.size()));
  for (const auto& f : cfg.faults) {
    w.i32(f.slot);
    w.i64(f.at_time);
    w.i64(f.at_send);
  }
  w.u32(static_cast<std::uint32_t>(cfg.sdc.size()));
  for (const auto& s : cfg.sdc) {
    w.i32(s.slot);
    w.i64(s.at_send);
  }
  w.i64(cfg.detection_delay);
  w.boolean(cfg.auto_recover);
  w.boolean(cfg.ack_on_wait);
  w.boolean(cfg.eager_copy_completion);
  w.f64(cfg.copy_cost_ns_per_byte);
  w.i64(cfg.time_limit);
  w.u64(cfg.seed);
  // v2: checkpoint/restart knobs (CkptConfig).
  w.i64(cfg.ckpt.interval);
  w.i64(cfg.ckpt.checkpoint_cost);
  w.i64(cfg.ckpt.restart_cost);
  return w.take();
}

core::RunConfig deserialize_config(std::span<const std::byte> bytes) {
  ByteReader r(bytes);
  const std::uint8_t version = r.u8();
  if (version != kConfigKeyVersion) {
    throw CodecError("config codec: version " + std::to_string(version) +
                     " != expected " + std::to_string(kConfigKeyVersion));
  }
  core::RunConfig cfg;
  cfg.nranks = r.i32();
  cfg.replication = r.i32();
  cfg.protocol = static_cast<core::ProtocolKind>(r.u8());
  get_net(r, cfg.net);
  get_coll(r, cfg.coll);
  const std::uint32_t nfaults = r.u32();
  // Each spec is >= 1 byte, so a count beyond the remaining bytes is a
  // malformed frame — reject before resize() trusts it with an allocation.
  if (nfaults > r.remaining()) throw CodecError("config codec: truncated");
  cfg.faults.resize(nfaults);
  for (auto& f : cfg.faults) {
    f.slot = r.i32();
    f.at_time = r.i64();
    f.at_send = r.i64();
  }
  const std::uint32_t nsdc = r.u32();
  if (nsdc > r.remaining()) throw CodecError("config codec: truncated");
  cfg.sdc.resize(nsdc);
  for (auto& s : cfg.sdc) {
    s.slot = r.i32();
    s.at_send = r.i64();
  }
  cfg.detection_delay = r.i64();
  cfg.auto_recover = r.boolean();
  cfg.ack_on_wait = r.boolean();
  cfg.eager_copy_completion = r.boolean();
  cfg.copy_cost_ns_per_byte = r.f64();
  cfg.time_limit = r.i64();
  cfg.seed = r.u64();
  cfg.ckpt.interval = r.i64();
  cfg.ckpt.checkpoint_cost = r.i64();
  cfg.ckpt.restart_cost = r.i64();
  if (!r.exhausted()) {
    throw CodecError("config codec: " + std::to_string(r.remaining()) +
                     " trailing bytes");
  }
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
