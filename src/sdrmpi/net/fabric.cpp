#include "sdrmpi/net/fabric.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "sdrmpi/util/log.hpp"

namespace sdrmpi::net {

// ---- Fabric (backend-independent machinery) --------------------------------

namespace {

[[nodiscard]] Time round_ns(double ns) {
  return static_cast<Time>(std::llround(ns));
}

}  // namespace

Fabric::Fabric(sim::Engine& engine, NetParams params, int nslots)
    : engine_(engine),
      params_(params),
      costs_{round_ns(kCallCostNs), round_ns(params.o_send_ns),
             round_ns(params.o_recv_ns), round_ns(params.latency_ns)} {
  slots_.resize(static_cast<std::size_t>(nslots));
}

Fabric::~Fabric() = default;

void Fabric::attach(int slot, int owner_pid, Sink sink) {
  auto& s = slots_.at(static_cast<std::size_t>(slot));
  if (s.sink) throw std::logic_error("Fabric::attach: slot already attached");
  s.owner_pid = owner_pid;
  s.sink = std::move(sink);
  s.alive = true;
}

void Fabric::reattach(int slot, int owner_pid, Sink sink) {
  auto& s = slots_.at(static_cast<std::size_t>(slot));
  s.owner_pid = owner_pid;
  s.sink = std::move(sink);
  s.alive = true;
}

void Fabric::set_alive(int slot, bool alive) {
  slots_.at(static_cast<std::size_t>(slot)).alive = alive;
}

bool Fabric::alive(int slot) const {
  return slots_.at(static_cast<std::size_t>(slot)).alive;
}

Time Fabric::pass_link(Time t, Time& link_free, Time ser) {
  if (ser <= 0) {
    // Infinite-bandwidth link: never queues, but keep the horizon moving
    // so the bookkeeping stays consistent across mixed frame sizes.
    link_free = std::max(link_free, t);
    return t;
  }
  const Time start = std::max(t, link_free);
  if (start > t) {
    ++stats_.link_stalls;
    stats_.link_stall_ns += static_cast<std::uint64_t>(start - t);
  }
  link_free = start + ser;
  stats_.link_busy_ns += static_cast<std::uint64_t>(ser);
  return start + ser;
}

void Fabric::send(int dst_slot, const FrameHeader& h, Payload bulk,
                  std::size_t wire_bytes) {
  (void)slots_.at(static_cast<std::size_t>(h.src_slot));  // bounds check
  (void)slots_.at(static_cast<std::size_t>(dst_slot));

  // Charge the sender's CPU overhead, then hand the frame to the backend.
  engine_.advance(costs_.o_send);
  const Time arrival = route(h.src_slot, dst_slot, engine_.now(), wire_bytes);

  ++stats_.frames_sent;
  stats_.payload_bytes += wire_bytes;

  // The header travels by value and the payload as one handle: the closure
  // fits InlineFn's inline buffer, so scheduling a frame allocates nothing.
  auto fn = [this, dst_slot, h, bulk = std::move(bulk)]() mutable {
    deliver(dst_slot, h, std::move(bulk));
  };
  static_assert(sizeof(fn) <= sim::InlineFn::kInlineBytes);
  engine_.schedule(arrival, std::move(fn));
}

void Fabric::inject_oob(int dst_slot, const FrameHeader& h, Time at) {
  engine_.schedule(at, [this, dst_slot, h] { deliver(dst_slot, h, {}); });
}

void Fabric::deliver(int dst_slot, const FrameHeader& h, Payload&& bulk) {
  auto& dst = slots_.at(static_cast<std::size_t>(dst_slot));
  if (!dst.alive || !dst.sink) {
    ++stats_.frames_dropped_dead_dst;
    SDR_LOG(Trace, "net") << "drop frame to dead slot " << dst_slot;
    return;
  }
  const int owner = dst.owner_pid;
  const Time arrival = engine_.now();  // the event's time
  dst.sink(Delivery{h, std::move(bulk), arrival});
  // Wake the owner if it is parked inside an MPI progress loop. Slots
  // without an owning process (raw-fabric tests) skip the wakeup.
  if (owner >= 0) engine_.wake(owner, arrival);
}

std::size_t Fabric::footprint_bytes() const noexcept {
  return slots_.capacity() * sizeof(Slot);
}

// ---- FlatFabric ------------------------------------------------------------

FlatFabric::FlatFabric(sim::Engine& engine, NetParams params, int nslots)
    : Fabric(engine, params, nslots) {}

Time FlatFabric::route(int src_slot, int /*dst_slot*/, Time ready,
                       std::size_t wire_bytes) {
  const Time ser =
      round_ns(static_cast<double>(wire_bytes) * params().ns_per_byte);
  const Time t = pass_link(ready, egress_free(src_slot), ser);
  return t + fixed_costs().latency;
}

// ---- FatTreeFabric ---------------------------------------------------------

namespace {

[[nodiscard]] Time resolved_latency(double spec_ns, double fallback_ns) {
  return round_ns(spec_ns < 0.0 ? fallback_ns : spec_ns);
}

}  // namespace

FatTreeFabric::FatTreeFabric(sim::Engine& engine, NetParams params, int nslots,
                             int nranks)
    : Fabric(engine, params, nslots), spec_(params.topology) {
  if (spec_.ranks_per_node < 1) {
    throw std::invalid_argument("fat-tree: ranks_per_node must be >= 1");
  }
  if (spec_.nodes_per_switch < 1) {
    throw std::invalid_argument("fat-tree: nodes_per_switch must be >= 1");
  }
  if (spec_.oversubscription < 1.0) {
    throw std::invalid_argument("fat-tree: oversubscription must be >= 1");
  }
  link_ns_per_byte_ = spec_.link_ns_per_byte < 0.0 ? params.ns_per_byte
                                                   : spec_.link_ns_per_byte;
  spine_ns_per_byte_ = link_ns_per_byte_ * spec_.oversubscription;
  lat_intra_node_ =
      resolved_latency(spec_.intra_node_latency_ns, params.latency_ns);
  lat_inter_switch_ =
      resolved_latency(spec_.inter_switch_latency_ns, params.latency_ns);

  // Slot → node placement. SpreadWorlds lays slots out linearly (worlds
  // occupy consecutive node ranges); PackRanks interleaves so all replicas
  // of a rank are adjacent and co-locate when ranks_per_node >= nworlds.
  node_of_.resize(static_cast<std::size_t>(nslots));
  const int world_size = (nranks > 0 && nranks <= nslots) ? nranks : nslots;
  const int nworlds = std::max(1, nslots / world_size);
  for (int s = 0; s < nslots; ++s) {
    int key = s;
    if (spec_.placement == PlacementPolicy::PackRanks) {
      const int rank = s % world_size;
      const int world = s / world_size;
      key = rank * nworlds + world;
    }
    node_of_[static_cast<std::size_t>(s)] = key / spec_.ranks_per_node;
  }
  const int nnodes =
      node_of_.empty() ? 0
                       : *std::max_element(node_of_.begin(), node_of_.end()) + 1;
  const int nleaves = (nnodes + spec_.nodes_per_switch - 1) /
                      spec_.nodes_per_switch;
  node_up_free_.assign(static_cast<std::size_t>(nnodes), 0);
  node_down_free_.assign(static_cast<std::size_t>(nnodes), 0);
  leaf_up_free_.assign(static_cast<std::size_t>(nleaves), 0);
  leaf_down_free_.assign(static_cast<std::size_t>(nleaves), 0);
}

FatTreeFabric::PathClass FatTreeFabric::path_class(int src_slot,
                                                   int dst_slot) const {
  if (src_slot == dst_slot) return PathClass::Loopback;
  const int sn = node_of(src_slot);
  const int dn = node_of(dst_slot);
  if (sn == dn) return PathClass::IntraNode;
  if (sn / spec_.nodes_per_switch == dn / spec_.nodes_per_switch) {
    return PathClass::IntraSwitch;
  }
  return PathClass::InterSwitch;
}

int FatTreeFabric::hop_count(int src_slot, int dst_slot) const {
  switch (path_class(src_slot, dst_slot)) {
    case PathClass::Loopback: return 0;
    case PathClass::IntraNode: return 1;
    case PathClass::IntraSwitch: return 2;
    case PathClass::InterSwitch: return 4;
  }
  return -1;
}

Time FatTreeFabric::route(int src_slot, int dst_slot, Time ready,
                          std::size_t wire_bytes) {
  const double bytes = static_cast<double>(wire_bytes);
  const Time nic_ser = round_ns(bytes * params().ns_per_byte);
  const Time link_ser = round_ns(bytes * link_ns_per_byte_);
  const Time spine_ser = round_ns(bytes * spine_ns_per_byte_);

  // NIC egress: identical to the flat model.
  Time t = pass_link(ready, egress_free(src_slot), nic_ser);

  const PathClass cls = path_class(src_slot, dst_slot);
  switch (cls) {
    case PathClass::Loopback:
    case PathClass::IntraNode:
      ++stats_.intra_node_frames;
      return t + lat_intra_node_;
    case PathClass::IntraSwitch: {
      ++stats_.intra_switch_frames;
      const auto sn = static_cast<std::size_t>(node_of(src_slot));
      const auto dn = static_cast<std::size_t>(node_of(dst_slot));
      t = pass_link(t, node_up_free_[sn], link_ser);
      t = pass_link(t, node_down_free_[dn], link_ser);
      return t + fixed_costs().latency;
    }
    case PathClass::InterSwitch: {
      ++stats_.inter_switch_frames;
      const auto sn = static_cast<std::size_t>(node_of(src_slot));
      const auto dn = static_cast<std::size_t>(node_of(dst_slot));
      const auto sl = static_cast<std::size_t>(switch_of(src_slot));
      const auto dl = static_cast<std::size_t>(switch_of(dst_slot));
      t = pass_link(t, node_up_free_[sn], link_ser);
      t = pass_link(t, leaf_up_free_[sl], spine_ser);
      t = pass_link(t, leaf_down_free_[dl], spine_ser);
      t = pass_link(t, node_down_free_[dn], link_ser);
      return t + lat_inter_switch_;
    }
  }
  return t;  // unreachable
}

std::size_t FatTreeFabric::footprint_bytes() const noexcept {
  return Fabric::footprint_bytes() + node_of_.capacity() * sizeof(int) +
         (node_up_free_.capacity() + node_down_free_.capacity() +
          leaf_up_free_.capacity() + leaf_down_free_.capacity()) *
             sizeof(Time);
}

// ---- factory ---------------------------------------------------------------

std::unique_ptr<Fabric> make_fabric(sim::Engine& engine, NetParams params,
                                    int nslots, int nranks) {
  switch (params.topology.kind) {
    case TopologyKind::Flat:
      return std::make_unique<FlatFabric>(engine, params, nslots);
    case TopologyKind::FatTree:
      return std::make_unique<FatTreeFabric>(engine, params, nslots, nranks);
  }
  throw std::invalid_argument("make_fabric: unknown topology kind");
}

}  // namespace sdrmpi::net
