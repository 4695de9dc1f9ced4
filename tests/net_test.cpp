// Unit tests for the fabric: cost model, FIFO delivery, egress
// serialization, crash semantics, out-of-band injection.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sdrmpi/net/fabric.hpp"
#include "test_support.hpp"

namespace sdrmpi::net {
namespace {

using Harness = test::FabricHarness;

TEST(Fabric, DeliversPayloadIntact) {
  Harness h(2);
  h.engine.spawn("sender", [&] {
    auto data = h.blob(16, 0x5c);
    h.send(0, 1, data);
  });
  auto out = h.engine.run();
  EXPECT_TRUE(out.clean());
  ASSERT_EQ(h.received[1].size(), 1u);
  EXPECT_EQ(h.received[1][0].bulk.size(), 16u);
  EXPECT_EQ(h.received[1][0].bulk[3], std::byte{0x5c});
  EXPECT_EQ(h.received[1][0].h.src_slot, 0);
}

TEST(Fabric, ArrivalMatchesCostModel) {
  Harness h(2);
  h.engine.spawn("sender", [&] { h.send(0, 1, h.blob(100)); });
  h.engine.run();
  ASSERT_EQ(h.received[1].size(), 1u);
  const auto& d = h.received[1][0];
  const double wire = 100.0 + static_cast<double>(kHeaderBytes);
  const Time expect =
      static_cast<Time>(std::llround(h.params.o_send_ns)) +
      static_cast<Time>(std::llround(wire * h.params.ns_per_byte)) +
      static_cast<Time>(std::llround(h.params.latency_ns));
  EXPECT_EQ(d.arrival, expect);
}

TEST(Fabric, SenderChargedOverhead) {
  Harness h(2);
  Time after = -1;
  h.engine.spawn("sender", [&] {
    h.send(0, 1, h.blob(8));
    after = h.engine.now();
  });
  h.engine.run();
  EXPECT_EQ(after, static_cast<Time>(std::llround(h.params.o_send_ns)));
}

TEST(Fabric, FifoPerChannel) {
  Harness h(2);
  h.engine.spawn("sender", [&] {
    for (unsigned char i = 0; i < 10; ++i) h.send(0, 1, h.blob(4, i));
  });
  h.engine.run();
  ASSERT_EQ(h.received[1].size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(h.received[1][i].bulk[0], std::byte{static_cast<unsigned char>(i)});
    if (i > 0) {
      EXPECT_GT(h.received[1][i].arrival, h.received[1][i - 1].arrival);
    }
  }
}

TEST(Fabric, EgressSerialization) {
  // Two back-to-back large frames: the second's arrival is pushed out by
  // the first's wire time (one NIC per process).
  Harness h(3);
  h.engine.spawn("sender", [&] {
    h.send(0, 1, h.blob(10000));
    h.send(0, 2, h.blob(10000));
  });
  h.engine.run();
  ASSERT_EQ(h.received[1].size(), 1u);
  ASSERT_EQ(h.received[2].size(), 1u);
  const Time gap = h.received[2][0].arrival - h.received[1][0].arrival;
  const double wire = 10000.0 + static_cast<double>(kHeaderBytes);
  // Delta >= serialization of one frame minus the second o_send charge.
  EXPECT_GE(gap, static_cast<Time>(wire * h.params.ns_per_byte) -
                     static_cast<Time>(std::llround(h.params.o_send_ns)));
}

TEST(Fabric, BiggerFramesTakeLonger) {
  Harness h(2);
  h.engine.spawn("s", [&] {
    h.send(0, 1, h.blob(1));
  });
  h.engine.run();
  const Time small = h.received[1][0].arrival;

  Harness h2(2);
  h2.engine.spawn("s", [&] {
    h2.send(0, 1, h2.blob(1 << 20));
  });
  h2.engine.run();
  EXPECT_GT(h2.received[1][0].arrival, small + 100000);
}

TEST(Fabric, ExplicitWireBytesOverride) {
  Harness h(2);
  h.engine.spawn("s", [&] {
    // Tiny payload but modeled as a 48-byte control frame.
    FrameHeader ctl;
    ctl.kind = FrameKind::Ack;
    ctl.src_slot = 0;
    h.fabric->send(1, ctl, h.blob(4), kCtlFrameBytes);
  });
  h.engine.run();
  const Time expect =
      static_cast<Time>(std::llround(h.params.o_send_ns)) +
      static_cast<Time>(std::llround(
          static_cast<double>(kCtlFrameBytes) * h.params.ns_per_byte)) +
      static_cast<Time>(std::llround(h.params.latency_ns));
  EXPECT_EQ(h.received[1][0].arrival, expect);
}

TEST(Fabric, DeadDestinationDropsFrames) {
  Harness h(2);
  h.fabric->set_alive(1, false);
  h.engine.spawn("s", [&] { h.send(0, 1, h.blob(8)); });
  h.engine.run();
  EXPECT_TRUE(h.received[1].empty());
  EXPECT_EQ(h.fabric->stats().frames_dropped_dead_dst, 1u);
}

TEST(Fabric, InFlightFramesFromDeadSenderStillDeliver) {
  // The paper's reliable-channel model: a frame injected before the crash
  // reaches its destination.
  Harness h(2);
  h.engine.spawn("s", [&] {
    h.send(0, 1, h.blob(8));
    // Sender dies immediately after injection.
    h.fabric->set_alive(0, false);
  });
  h.engine.run();
  EXPECT_EQ(h.received[1].size(), 1u);
}

TEST(Fabric, OobInjectionArrivesAtRequestedTime) {
  Harness h(2);
  FrameHeader note;
  note.kind = FrameKind::Failure;
  note.value = 0;
  h.fabric->inject_oob(1, note, 12345);
  h.engine.run();
  ASSERT_EQ(h.received[1].size(), 1u);
  EXPECT_EQ(h.received[1][0].arrival, 12345);
  EXPECT_EQ(h.received[1][0].h.kind, FrameKind::Failure);
  EXPECT_EQ(h.received[1][0].h.src_slot, -1);
  EXPECT_TRUE(h.received[1][0].bulk.empty());
}

TEST(Fabric, StatsCountFrames) {
  Harness h(2);
  h.engine.spawn("s", [&] {
    h.send(0, 1, h.blob(100));
    h.send(0, 1, h.blob(100));
  });
  h.engine.run();
  EXPECT_EQ(h.fabric->stats().frames_sent, 2u);
  EXPECT_EQ(h.fabric->stats().payload_bytes,
            2 * (100 + kHeaderBytes));
}

TEST(Fabric, ReattachReplacesSink) {
  Harness h(2);
  struct Recorder {
    std::vector<Delivery> got;
    void on_delivery(Delivery&& d) { got.push_back(std::move(d)); }
  } second;
  h.fabric->set_alive(1, false);
  h.fabric->reattach(1, -1, Fabric::Sink::of<&Recorder::on_delivery>(&second));
  EXPECT_TRUE(h.fabric->alive(1));  // reattach revives the slot
  h.engine.spawn("s", [&] { h.send(0, 1, h.blob(8)); });
  h.engine.run();
  EXPECT_TRUE(h.received[1].empty());
  EXPECT_EQ(second.got.size(), 1u);
}

TEST(Fabric, DoubleAttachThrows) {
  Harness h(2);
  const Fabric::Sink noop{[](void*, Delivery&&) {}, nullptr};
  EXPECT_THROW(h.fabric->attach(0, -1, noop), std::logic_error);
}

TEST(NetParamsTest, PresetsAreSane) {
  const auto ib = NetParams::infiniband_20g();
  const auto eth = NetParams::gigabit_ethernet();
  EXPECT_LT(ib.latency_ns, eth.latency_ns);
  EXPECT_LT(ib.ns_per_byte, eth.ns_per_byte);
  // IB-20G calibration: ~1.67us one-byte half-round (o_s + wire + o_r).
  const double one_byte = ib.o_send_ns + ib.latency_ns + ib.o_recv_ns +
                          static_cast<double>(kHeaderBytes + 1) * ib.ns_per_byte;
  EXPECT_NEAR(one_byte, 1670.0, 70.0);
}

}  // namespace
}  // namespace sdrmpi::net
