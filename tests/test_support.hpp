// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "sdrmpi/net/fabric.hpp"
#include "sdrmpi/sdrmpi.hpp"
#include "sdrmpi/workloads/registry.hpp"

namespace sdrmpi::test {

/// Raw-fabric harness (no endpoints): builds the backend selected by
/// `p.topology` via make_fabric and records deliveries per slot. Used by
/// the net-layer suites (net_test, fabric_topology_test).
struct FabricHarness {
  /// Non-owning per-slot sink target (the fabric's Sink is a raw
  /// fn-pointer + context; deque keeps the contexts' addresses stable).
  struct SlotSink {
    FabricHarness* harness;
    int slot;
    void on_delivery(net::Delivery&& d) {
      harness->received[static_cast<std::size_t>(slot)].push_back(
          std::move(d));
    }
  };

  sim::Engine engine;
  net::NetParams params;
  std::unique_ptr<net::Fabric> fabric;
  std::vector<std::vector<net::Delivery>> received;
  std::deque<SlotSink> sinks;

  explicit FabricHarness(int nslots,
                         net::NetParams p = net::NetParams::infiniband_20g(),
                         int nranks = 0)
      : params(p),
        fabric(net::make_fabric(engine, p, nslots, nranks)),
        received(static_cast<std::size_t>(nslots)) {
    for (int s = 0; s < nslots; ++s) {
      sinks.push_back(SlotSink{this, s});
      fabric->attach(s, /*owner_pid=*/-1,
                     net::Fabric::Sink::of<&SlotSink::on_delivery>(
                         &sinks.back()));
    }
  }

  /// Pool-backed payload of n bytes, every byte = fill.
  [[nodiscard]] net::Payload blob(std::size_t n, unsigned char fill = 0xab) {
    const std::vector<std::byte> bytes(n, std::byte{fill});
    return net::Payload::copy_of(&fabric->pool(), bytes);
  }

  /// Injects a frame from `src` to `dst` carrying `bulk`, modeled as
  /// bulk.size() + kHeaderBytes wire bytes. Call from a process.
  void send(int src, int dst, net::Payload bulk) {
    net::FrameHeader h;
    h.src_slot = src;
    const std::size_t wire = bulk.size() + net::kHeaderBytes;
    fabric->send(dst, h, std::move(bulk), wire);
  }
};

/// Fast network for protocol-logic tests.
inline core::RunConfig quick_config(int nranks, int replication,
                                    core::ProtocolKind proto) {
  core::RunConfig cfg;
  cfg.nranks = nranks;
  cfg.replication = replication;
  cfg.protocol = proto;
  return cfg;
}

/// Builds a small-sized instance of a registered workload (shrunk so a
/// whole protocol x workload sweep stays fast).
inline core::AppFn small_workload(const std::string& name) {
  util::Options opts;
  if (name == "cg") opts.set("nrows", "512");
  if (name == "mg") {
    opts.set("nx", "16");
    opts.set("ny", "16");
    opts.set("nz", "16");
    opts.set("iters", "2");
  }
  if (name == "ft") {
    opts.set("nx", "16");
    opts.set("ny", "16");
    opts.set("nz", "16");
    opts.set("iters", "2");
  }
  if (name == "bt" || name == "sp") {
    opts.set("nx", "16");
    opts.set("ny", "8");
    opts.set("nz", "4");
    opts.set("iters", "2");
  }
  if (name == "hpccg") {
    opts.set("nx", "12");
    opts.set("ny", "12");
    opts.set("nz", "6");
    opts.set("iters", "8");
  }
  if (name == "cm1") {
    opts.set("nx", "16");
    opts.set("ny", "16");
    opts.set("nz", "4");
    opts.set("iters", "5");
  }
  if (name == "netpipe") {
    opts.set("sizes", "1,64,4096");
    opts.set("reps", "4");
  }
  if (name == "coll") {
    // Odd sizes on purpose: segments of 3000/np bytes exercise the
    // non-divisible slice arithmetic of the scatter/Bruck schedules.
    opts.set("bcast-bytes", "3000");
    opts.set("block-bytes", "96");
    opts.set("reduce-bytes", "1024");
    opts.set("iters", "2");
  }
  return wl::make_workload(name, opts);
}

/// Asserts the run finished cleanly, with a useful failure message.
inline ::testing::AssertionResult run_clean(const core::RunResult& res) {
  if (res.clean()) return ::testing::AssertionSuccess();
  auto out = ::testing::AssertionFailure();
  out << "run not clean:";
  if (res.deadlock) out << " deadlock";
  if (res.time_limit_hit) out << " time-limit";
  if (res.rank_lost) out << " rank-lost";
  for (const auto& e : res.errors) out << " [" << e << "]";
  return out;
}

}  // namespace sdrmpi::test
