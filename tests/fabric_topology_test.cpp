// Unit tests for the fat-tree fabric backend: slot → node → switch mapping
// under both placement policies, hop counting, per-link serialization,
// oversubscription stalls, and the equivalence anchor — a degenerate
// one-level fat-tree must reproduce flat-fabric timestamps bit-exactly
// across every protocol.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <vector>

#include "sdrmpi/net/fabric.hpp"
#include "test_support.hpp"

namespace sdrmpi {
namespace {

using net::FatTreeFabric;
using net::FlatFabric;
using net::NetParams;
using net::PlacementPolicy;
using net::TopologySpec;

using PathClass = FatTreeFabric::PathClass;

using Harness = test::FabricHarness;

NetParams fat_tree_params(int rpn, int nps, double oversub) {
  NetParams p = NetParams::infiniband_20g();
  p.topology = TopologySpec::fat_tree(rpn, nps, oversub);
  return p;
}

TEST(FatTreeTopology, NodeSwitchMappingAndHops) {
  sim::Engine engine;
  // 8 slots, one world: 2 ranks/node -> 4 nodes, 2 nodes/switch -> 2 leaves.
  FatTreeFabric f(engine, fat_tree_params(2, 2, 2.0), 8, 8);
  EXPECT_EQ(f.nnodes(), 4);
  EXPECT_EQ(f.node_of(0), 0);
  EXPECT_EQ(f.node_of(1), 0);
  EXPECT_EQ(f.node_of(2), 1);
  EXPECT_EQ(f.node_of(7), 3);
  EXPECT_EQ(f.switch_of(0), 0);
  EXPECT_EQ(f.switch_of(3), 0);
  EXPECT_EQ(f.switch_of(4), 1);
  EXPECT_EQ(f.switch_of(7), 1);

  EXPECT_EQ(f.path_class(3, 3), PathClass::Loopback);
  EXPECT_EQ(f.path_class(0, 1), PathClass::IntraNode);
  EXPECT_EQ(f.path_class(0, 2), PathClass::IntraSwitch);
  EXPECT_EQ(f.path_class(0, 4), PathClass::InterSwitch);

  EXPECT_EQ(f.hop_count(3, 3), 0);
  EXPECT_EQ(f.hop_count(0, 1), 1);
  EXPECT_EQ(f.hop_count(0, 2), 2);
  EXPECT_EQ(f.hop_count(1, 3), 2);
  EXPECT_EQ(f.hop_count(0, 4), 4);
  EXPECT_EQ(f.hop_count(2, 6), 4);
}

TEST(FatTreeTopology, PlacementPoliciesMapReplicasDifferently) {
  sim::Engine engine;
  // 2 worlds of 4 ranks, 2 ranks/node. Spread: worlds occupy disjoint node
  // ranges; replicas of rank 0 (slots 0 and 4) land on different nodes.
  NetParams spread = fat_tree_params(2, 1, 1.0);
  FatTreeFabric fs(engine, spread, 8, 4);
  EXPECT_EQ(fs.node_of(0), 0);
  EXPECT_EQ(fs.node_of(4), 2);
  EXPECT_NE(fs.switch_of(0), fs.switch_of(4));

  // PackRanks: both replicas of a rank share a node (rpn = nworlds = 2).
  NetParams packed = spread;
  packed.topology.placement = PlacementPolicy::PackRanks;
  sim::Engine engine2;
  FatTreeFabric fp(engine2, packed, 8, 4);
  EXPECT_EQ(fp.node_of(0), fp.node_of(4));  // rank 0, worlds 0 and 1
  EXPECT_EQ(fp.node_of(1), fp.node_of(5));
  EXPECT_NE(fp.node_of(0), fp.node_of(1));  // different ranks split
}

TEST(FatTreeFabricTest, SingleFrameArrivalMatchesCostModel) {
  // One intra-switch frame: o_send + NIC ser + 2 links + intra-switch lat.
  Harness h(8, fat_tree_params(2, 2, 4.0), 8);
  h.engine.spawn("s", [&] { h.send(0, 2, h.blob(1000)); });
  h.engine.run();
  ASSERT_EQ(h.received[2].size(), 1u);
  const double wire = 1000.0 + static_cast<double>(net::kHeaderBytes);
  const Time ser = static_cast<Time>(std::llround(wire * h.params.ns_per_byte));
  const Time expect =
      static_cast<Time>(std::llround(h.params.o_send_ns)) + ser /*NIC*/ +
      2 * ser /*node up+down links*/ +
      static_cast<Time>(std::llround(h.params.latency_ns));
  EXPECT_EQ(h.received[2][0].arrival, expect);
}

TEST(FatTreeFabricTest, SharedNodeUplinkSerializes) {
  // Slots 0 and 1 share node 0's uplink. Both inject a large frame at t=0
  // toward node 1; the second frame queues behind the first on the uplink.
  Harness h(8, fat_tree_params(2, 2, 2.0), 8);
  h.engine.spawn("s0", [&] { h.send(0, 2, h.blob(10000)); });
  h.engine.spawn("s1", [&] { h.send(1, 3, h.blob(10000)); });
  h.engine.run();
  ASSERT_EQ(h.received[2].size(), 1u);
  ASSERT_EQ(h.received[3].size(), 1u);
  const double wire = 10000.0 + static_cast<double>(net::kHeaderBytes);
  const Time link_ser =
      static_cast<Time>(std::llround(wire * h.params.ns_per_byte));
  // Distinct NICs, one shared uplink: arrivals differ by >= one link
  // serialization (the queued frame also waited, so stats must say so).
  const Time gap = std::llabs(h.received[3][0].arrival -
                              h.received[2][0].arrival);
  EXPECT_GE(gap, link_ser);
  EXPECT_GE(h.fabric->stats().link_stalls, 1u);
  EXPECT_GE(h.fabric->stats().link_stall_ns,
            static_cast<std::uint64_t>(link_ser));
  EXPECT_EQ(h.fabric->stats().intra_switch_frames, 2u);
}

TEST(FatTreeFabricTest, IndependentNodesDoNotContend) {
  // Two intra-switch frames on disjoint node pairs (0→1 under leaf 0,
  // 2→3 under leaf 1): no shared link, identical arrival times.
  Harness h(8, fat_tree_params(2, 2, 2.0), 8);
  h.engine.spawn("s0", [&] { h.send(0, 2, h.blob(10000)); });
  h.engine.spawn("s4", [&] { h.send(4, 6, h.blob(10000)); });
  h.engine.run();
  ASSERT_EQ(h.received[2].size(), 1u);
  ASSERT_EQ(h.received[6].size(), 1u);
  EXPECT_EQ(h.received[2][0].arrival, h.received[6][0].arrival);
  EXPECT_EQ(h.fabric->stats().link_stalls, 0u);
}

TEST(FatTreeFabricTest, OversubscriptionSlowsSpineCrossings) {
  // The same inter-switch frame under 1:1 and 8:1 spines; the
  // oversubscribed spine serializes 8x slower per byte.
  const std::size_t bytes = 20000;
  Time arrival_1to1 = 0;
  Time arrival_8to1 = 0;
  {
    Harness h(8, fat_tree_params(2, 2, 1.0), 8);
    h.engine.spawn("s", [&] { h.send(0, 4, h.blob(bytes)); });
    h.engine.run();
    arrival_1to1 = h.received[4][0].arrival;
  }
  {
    Harness h(8, fat_tree_params(2, 2, 8.0), 8);
    h.engine.spawn("s", [&] { h.send(0, 4, h.blob(bytes)); });
    h.engine.run();
    arrival_8to1 = h.received[4][0].arrival;
    EXPECT_EQ(h.fabric->stats().inter_switch_frames, 1u);
  }
  const double wire = static_cast<double>(bytes) +
                      static_cast<double>(net::kHeaderBytes);
  const Time spine_ser_1to1 =
      static_cast<Time>(std::llround(wire * NetParams{}.ns_per_byte));
  // Two spine links each 7x slower than at 1:1.
  EXPECT_EQ(arrival_8to1 - arrival_1to1, 2 * 7 * spine_ser_1to1);
}

TEST(FatTreeFabricTest, OversubscribedSpineQueuesConcurrentCrossings) {
  // Two leaves' worth of traffic funnel into one dst leaf downlink.
  Harness h(8, fat_tree_params(2, 1, 4.0), 8);  // 1 node/switch: 4 leaves
  h.engine.spawn("s0", [&] { h.send(0, 6, h.blob(10000)); });
  h.engine.spawn("s2", [&] { h.send(2, 7, h.blob(10000)); });
  h.engine.run();
  // Both frames traverse leaf 3's downlink; one of them stalls on it.
  EXPECT_GE(h.fabric->stats().link_stalls, 1u);
  EXPECT_EQ(h.fabric->stats().inter_switch_frames, 2u);
}

TEST(FatTreeFabricTest, MakeFabricDispatchesOnTopologyKind) {
  sim::Engine engine;
  NetParams flat = NetParams::infiniband_20g();
  auto f1 = net::make_fabric(engine, flat, 4, 4);
  EXPECT_NE(dynamic_cast<FlatFabric*>(f1.get()), nullptr);
  NetParams tree = fat_tree_params(2, 2, 2.0);
  auto f2 = net::make_fabric(engine, tree, 4, 4);
  EXPECT_NE(dynamic_cast<FatTreeFabric*>(f2.get()), nullptr);
}

TEST(FatTreeFabricTest, RejectsInvalidSpecs) {
  sim::Engine engine;
  NetParams p = fat_tree_params(0, 2, 2.0);
  EXPECT_THROW(FatTreeFabric(engine, p, 4, 4), std::invalid_argument);
  p = fat_tree_params(2, 0, 2.0);
  EXPECT_THROW(FatTreeFabric(engine, p, 4, 4), std::invalid_argument);
  p = fat_tree_params(2, 2, 0.5);
  EXPECT_THROW(FatTreeFabric(engine, p, 4, 4), std::invalid_argument);
}

// ---- the equivalence anchor -------------------------------------------------

// A one-level degenerate fat-tree (one rank per node, one leaf switch,
// links that never serialize, inherited latency) must be timestamp-identical
// to the flat backend for every protocol: the hierarchical model strictly
// generalises the flat one.
class DegenerateEquivalence
    : public ::testing::TestWithParam<core::ProtocolKind> {};

TEST_P(DegenerateEquivalence, MatchesFlatBitExactly) {
  const core::ProtocolKind proto = GetParam();
  const int r = proto == core::ProtocolKind::Native ? 1 : 2;
  auto flat_cfg = test::quick_config(4, r, proto);
  auto tree_cfg = flat_cfg;
  tree_cfg.net.topology = TopologySpec::degenerate_fat_tree();

  for (const char* wl : {"cg", "hpccg"}) {
    auto a = core::run(flat_cfg, test::small_workload(wl));
    auto b = core::run(tree_cfg, test::small_workload(wl));
    ASSERT_TRUE(test::run_clean(a)) << wl;
    ASSERT_TRUE(test::run_clean(b)) << wl;
    EXPECT_EQ(a.makespan, b.makespan) << wl;
    EXPECT_EQ(a.data_frames, b.data_frames) << wl;
    EXPECT_EQ(a.ctl_frames, b.ctl_frames) << wl;
    EXPECT_EQ(a.events_executed, b.events_executed) << wl;
    EXPECT_EQ(a.context_switches, b.context_switches) << wl;
    EXPECT_EQ(a.protocol, b.protocol) << wl;
    ASSERT_EQ(a.slots.size(), b.slots.size()) << wl;
    for (std::size_t i = 0; i < a.slots.size(); ++i) {
      EXPECT_EQ(a.slots[i].finish_time, b.slots[i].finish_time) << wl;
      EXPECT_EQ(a.slots[i].checksum, b.slots[i].checksum) << wl;
    }
    // Traffic and contention totals agree (the degenerate tree's only
    // serializing link is the NIC, same as flat); only the path-class
    // census differs — the flat backend does not classify.
    EXPECT_EQ(a.fabric.frames_sent, b.fabric.frames_sent) << wl;
    EXPECT_EQ(a.fabric.payload_bytes, b.fabric.payload_bytes) << wl;
    EXPECT_EQ(a.fabric.link_stalls, b.fabric.link_stalls) << wl;
    EXPECT_EQ(a.fabric.link_stall_ns, b.fabric.link_stall_ns) << wl;
    EXPECT_EQ(a.fabric.link_busy_ns, b.fabric.link_busy_ns) << wl;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, DegenerateEquivalence,
    ::testing::Values(core::ProtocolKind::Native, core::ProtocolKind::Sdr,
                      core::ProtocolKind::Leader,
                      core::ProtocolKind::RedMpiSd),
    [](const auto& info) {
      std::string name = core::to_string(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Faulty runs must also agree: failover retransmissions ride the same
// fabric paths.
TEST(DegenerateEquivalenceFaults, FailoverMatchesFlat) {
  auto flat_cfg = test::quick_config(4, 2, core::ProtocolKind::Sdr);
  flat_cfg.faults.push_back({.slot = 6, .at_time = -1, .at_send = 5});
  auto tree_cfg = flat_cfg;
  tree_cfg.net.topology = TopologySpec::degenerate_fat_tree();
  auto a = core::run(flat_cfg, test::small_workload("cg"));
  auto b = core::run(tree_cfg, test::small_workload("cg"));
  ASSERT_TRUE(test::run_clean(a));
  ASSERT_TRUE(test::run_clean(b));
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.protocol, b.protocol);
  EXPECT_EQ(a.fabric.frames_dropped_dead_dst, b.fabric.frames_dropped_dead_dst);
}

}  // namespace
}  // namespace sdrmpi
