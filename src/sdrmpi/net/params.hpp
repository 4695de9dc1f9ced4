// Network cost model parameters (LogGP-flavoured) and fabric topology.
//
// A frame injected by slot s at virtual time T reaches slot d at
//     start   = max(T + o_send, egress_free[s])
//     arrival = start + wire_bytes * ns_per_byte + latency
// and egress_free[s] advances to start + wire_bytes * ns_per_byte,
// serialising a sender's outgoing frames (one NIC per process).
// o_recv is charged to the *receiver's* clock when it processes the frame
// inside an MPI call (progress happens only inside MPI calls, matching the
// default Open MPI / MPICH2 behaviour the paper relies on).
//
// TopologySpec selects the fabric backend: the flat model above (every pair
// of slots is one switch hop apart, the paper's testbed abstraction), or a
// k-ary fat-tree with per-link serialization queues — node NIC, node↔leaf
// links and leaf↔spine links each have their own bandwidth horizon, so
// contention on shared links shows up in arrival times and FabricStats.
//
// Defaults are calibrated to the paper's testbed (Mellanox ConnectX IB-20G):
// one-byte NetPipe half-round latency 1.67 us and ~2 GB/s data bandwidth.
#pragma once

#include <cstddef>
#include <cstdint>

namespace sdrmpi::net {

/// Which fabric backend models the interconnect.
enum class TopologyKind : int {
  Flat,     ///< uniform latency, per-NIC egress serialization only
  FatTree,  ///< node → leaf switch → spine, per-link serialization queues
};

[[nodiscard]] constexpr const char* to_string(TopologyKind k) noexcept {
  switch (k) {
    case TopologyKind::Flat: return "flat";
    case TopologyKind::FatTree: return "fat-tree";
  }
  return "?";
}

/// How replicated worlds map onto physical nodes (FatTree only; the flat
/// model has no notion of placement).
enum class PlacementPolicy : int {
  SpreadWorlds,  ///< worlds occupy consecutive node ranges — replicas of a
                 ///< rank land on different switches (the paper's "first
                 ///< replica set on the first half of the nodes")
  PackRanks,     ///< replicas of the same rank share a node where possible —
                 ///< cheap replica traffic, correlated failure domain
};

[[nodiscard]] constexpr const char* to_string(PlacementPolicy p) noexcept {
  switch (p) {
    case PlacementPolicy::SpreadWorlds: return "spread";
    case PlacementPolicy::PackRanks: return "pack";
  }
  return "?";
}

/// Fabric topology: backend selection plus the fat-tree shape. Latency and
/// link-bandwidth fields set to a negative value inherit the corresponding
/// NetParams value (latency_ns / ns_per_byte), which keeps a degenerate
/// one-level tree bit-identical to the flat model.
struct TopologySpec {
  TopologyKind kind = TopologyKind::Flat;
  PlacementPolicy placement = PlacementPolicy::SpreadWorlds;

  int ranks_per_node = 1;    ///< slots sharing one node (and its uplink)
  int nodes_per_switch = 8;  ///< nodes under one leaf switch

  /// Spine uplinks carry the traffic of nodes_per_switch node links; the
  /// factor multiplies their ns/B (2.0 = 2:1 oversubscribed fat-tree).
  double oversubscription = 1.0;

  /// node↔leaf link inverse bandwidth; < 0 inherits NetParams::ns_per_byte,
  /// 0 means the link never serializes (infinite bandwidth).
  double link_ns_per_byte = -1.0;

  // Per-path-class one-way latencies; < 0 inherits NetParams::latency_ns,
  // which a hop through the shared leaf switch always costs.
  double intra_node_latency_ns = -1.0;   ///< same node (loopback)
  double inter_switch_latency_ns = -1.0; ///< crosses the spine

  [[nodiscard]] bool operator==(const TopologySpec&) const = default;

  /// The flat backend (default).
  [[nodiscard]] static TopologySpec flat() { return TopologySpec{}; }

  /// One-level degenerate fat-tree: one rank per node, every node under a
  /// single leaf switch, links that never serialize and all latencies
  /// inherited. Produces bit-identical timestamps to the flat backend —
  /// the equivalence anchor the topology tests pin down.
  [[nodiscard]] static TopologySpec degenerate_fat_tree() {
    TopologySpec t;
    t.kind = TopologyKind::FatTree;
    t.ranks_per_node = 1;
    t.nodes_per_switch = 1 << 24;
    t.link_ns_per_byte = 0.0;
    return t;
  }

  /// A contended cluster shape: multi-core nodes, oversubscribed spine,
  /// cheap intra-node hops and a pricier spine crossing.
  [[nodiscard]] static TopologySpec fat_tree(int ranks_per_node = 4,
                                             int nodes_per_switch = 8,
                                             double oversubscription = 2.0) {
    TopologySpec t;
    t.kind = TopologyKind::FatTree;
    t.ranks_per_node = ranks_per_node;
    t.nodes_per_switch = nodes_per_switch;
    t.oversubscription = oversubscription;
    t.intra_node_latency_ns = 200.0;
    t.inter_switch_latency_ns = 1920.0;  // two extra switch traversals
    return t;
  }
};

/// Aggregate traffic counters (per fabric). The path-class census is
/// FatTree-only (the flat backend does not classify); the contention group
/// (link_stalls / link_stall_ns / link_busy_ns) is advanced by every
/// serializing link on both backends — on the flat backend that is the
/// per-slot NIC egress queue.
struct FabricStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t payload_bytes = 0;  // modeled wire bytes incl. headers
  std::uint64_t frames_dropped_dead_dst = 0;

  // Path-class census (FatTree backend).
  std::uint64_t intra_node_frames = 0;
  std::uint64_t intra_switch_frames = 0;
  std::uint64_t inter_switch_frames = 0;

  // Contention: how often and for how long frames queued behind a busy
  // link, and total link occupancy charged.
  std::uint64_t link_stalls = 0;
  std::uint64_t link_stall_ns = 0;
  std::uint64_t link_busy_ns = 0;

  [[nodiscard]] bool operator==(const FabricStats&) const = default;
};

/// Modeled per-frame header size: the wire size of a rendezvous RTS, and
/// added to a control frame's payload bytes.
inline constexpr std::size_t kHeaderBytes = 40;
/// Modeled wire size of a protocol control frame without a payload (ack).
inline constexpr std::size_t kCtlFrameBytes = 48;
/// Modeled envelope of a payload-carrying data frame (Eager, RdvData),
/// added to its payload bytes: a 48-byte match envelope plus the
/// kHeaderBytes header. A model constant, independent of how the
/// simulator lays out its FrameHeader.
inline constexpr std::size_t kDataEnvelopeBytes = 88;
/// Modeled CPU cost of entering any MPI call (ns).
inline constexpr double kCallCostNs = 40.0;

struct NetParams {
  double o_send_ns = 350.0;   ///< sender CPU overhead per injected frame
  double o_recv_ns = 350.0;   ///< receiver CPU overhead per processed frame
  double latency_ns = 960.0;  ///< wire/switch latency (fat-tree: leaf hop)
  double ns_per_byte = 0.5;   ///< inverse bandwidth (0.5 ns/B = 2 GB/s)
  std::size_t eager_threshold = 12288; ///< switch to rendezvous above this

  TopologySpec topology;  ///< fabric backend + shape (default: flat)

  [[nodiscard]] bool operator==(const NetParams&) const = default;

  /// Paper testbed: InfiniBand 20G (Mellanox ConnectX, Grid'5000 Nancy).
  [[nodiscard]] static NetParams infiniband_20g() { return NetParams{}; }

  /// A slow Ethernet-like network; used by tests/benches probing how the
  /// protocol overhead scales with latency.
  [[nodiscard]] static NetParams gigabit_ethernet() {
    NetParams p;
    p.o_send_ns = 2000.0;
    p.o_recv_ns = 2000.0;
    p.latency_ns = 25000.0;
    p.ns_per_byte = 8.0;  // 125 MB/s
    p.eager_threshold = 65536;
    return p;
  }
};

}  // namespace sdrmpi::net
