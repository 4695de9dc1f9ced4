// Randomized cross-protocol determinism fuzzer.
//
// Draws ~200 configurations from (protocol × replication × topology ×
// fault/SDC schedule × seed) with util::Rng, pairs each with a small
// synthetic app (ring / wildcard funnel / allreduce chain, message sizes
// straddling the eager threshold), and runs the whole batch twice through
// core::run_many with pool sizes 1 and 8. Every run must be bit-identical
// between the two executions: final virtual times, per-slot outcomes,
// traffic totals, ProtocolStats and FabricStats. A fault case must also
// run clean, every surviving replica holding a native run's checksum.
// This is the systematic version of the hand-picked determinism_test
// scenarios, and the guard that keeps the fat-tree contention backend
// inside the simulator's reproducibility contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sdrmpi/util/rng.hpp"
#include "test_support.hpp"

namespace sdrmpi {
namespace {

constexpr int kConfigs = 200;

struct FuzzCase {
  core::RunConfig cfg;
  core::AppFn app;
  std::string label;
  bool rendezvous = false;  ///< a ring whose messages pass eager_threshold
};

// ---- synthetic apps (deterministic given their captured parameters) --------

core::AppFn ring_app(int iters, int doubles_per_msg) {
  return [iters, doubles_per_msg](mpi::Env& env) {
    auto& w = env.world();
    const int n = w.size();
    const int next = (env.rank() + 1) % n;
    const int prev = (env.rank() + n - 1) % n;
    std::vector<double> out(static_cast<std::size_t>(doubles_per_msg));
    double acc = env.rank() + 1.0;
    for (int it = 0; it < iters; ++it) {
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = acc + static_cast<double>(i);
      }
      auto sreq = w.isend(std::span<const double>(out), next, 7);
      std::vector<double> in(out.size());
      w.recv(std::span<double>(in), prev, 7);
      w.wait(sreq);
      acc += in[in.size() / 2];
    }
    util::Checksum cs;
    cs.add_double(acc);
    env.report_checksum(cs.digest());
  };
}

core::AppFn funnel_app(int msgs_per_sender) {
  return [msgs_per_sender](mpi::Env& env) {
    auto& w = env.world();
    const int n = w.size();
    if (env.rank() == 0) {
      double acc = 0.0;
      for (int i = 0; i < (n - 1) * msgs_per_sender; ++i) {
        acc += w.recv_value<double>(mpi::kAnySource, 3);
      }
      for (int d = 1; d < n; ++d) w.send_value(acc, d, 4);
      util::Checksum cs;
      cs.add_double(acc);
      env.report_checksum(cs.digest());
    } else {
      for (int i = 0; i < msgs_per_sender; ++i) {
        w.send_value(env.rank() * 1.25 + i, 0, 3);
      }
      util::Checksum cs;
      cs.add_double(w.recv_value<double>(0, 4));
      env.report_checksum(cs.digest());
    }
  };
}

core::AppFn allreduce_app(int iters) {
  return [iters](mpi::Env& env) {
    auto& w = env.world();
    double x = env.rank() + 0.5;
    for (int it = 0; it < iters; ++it) {
      x = w.allreduce_value(x, mpi::Op::Sum) / w.size();
      if (w.size() > 1) {
        const int peer = (env.rank() + it) % w.size() == env.rank()
                             ? (env.rank() + 1) % w.size()
                             : (env.rank() + it) % w.size();
        const double payload = x;
        auto sreq = w.isend(std::span<const double>(&payload, 1), peer, 9);
        x += w.recv_value<double>(mpi::kAnySource, 9);
        w.wait(sreq);
      }
    }
    util::Checksum cs;
    cs.add_double(x);
    env.report_checksum(cs.digest());
  };
}

// ---- config generator -------------------------------------------------------

mpi::CollTuning draw_coll_tuning(util::Rng& rng) {
  mpi::CollTuning t;
  t.bcast = static_cast<mpi::BcastAlg>(rng.below(3));
  t.allreduce = static_cast<mpi::AllreduceAlg>(rng.below(4));
  t.allgather = static_cast<mpi::AllgatherAlg>(rng.below(3));
  t.alltoall = static_cast<mpi::AlltoallAlg>(rng.below(3));
  if (rng.below(3) == 0) {
    // Occasionally move the Auto thresholds so size-based selection flips.
    t.bcast_long_bytes = 1u << (6 + rng.below(10));
    t.allreduce_long_bytes = 1u << (4 + rng.below(10));
    t.allgather_bruck_bytes = 1u << (4 + rng.below(10));
    t.alltoall_bruck_bytes = 1u << (4 + rng.below(10));
  }
  return t;
}

net::TopologySpec draw_topology(util::Rng& rng) {
  switch (rng.below(4)) {
    case 0: return net::TopologySpec::flat();
    case 1: return net::TopologySpec::degenerate_fat_tree();
    default: {
      auto t = net::TopologySpec::fat_tree(
          /*ranks_per_node=*/static_cast<int>(1 + rng.below(3)),
          /*nodes_per_switch=*/static_cast<int>(1 + rng.below(3)),
          /*oversubscription=*/static_cast<double>(1 + rng.below(4)));
      if (rng.below(2) == 0) {
        t.placement = net::PlacementPolicy::PackRanks;
      }
      return t;
    }
  }
}

std::vector<FuzzCase> draw_cases() {
  util::Rng rng(0xfabf00dULL);
  const core::ProtocolKind kinds[] = {
      core::ProtocolKind::Native,       core::ProtocolKind::Sdr,
      core::ProtocolKind::Mirror,       core::ProtocolKind::Leader,
      core::ProtocolKind::RedMpiLeader, core::ProtocolKind::RedMpiSd};

  std::vector<FuzzCase> cases;
  cases.reserve(kConfigs);
  for (int i = 0; i < kConfigs; ++i) {
    FuzzCase fc;
    core::RunConfig& cfg = fc.cfg;
    const auto proto = kinds[rng.below(6)];
    cfg.protocol = proto;
    cfg.replication = proto == core::ProtocolKind::Native ? 1 : 2;
    // Mostly tiny worlds (fast, dense interleavings); one in eight jumps
    // to 16..32 ranks so the sparse per-peer seq maps, deviation-only
    // replica maps, and the runnable heap see real fan-out under random
    // traffic instead of the 2..4-rank corner.
    cfg.nranks = rng.below(8) == 0 ? static_cast<int>(16 + rng.below(17))
                                   : static_cast<int>(2 + rng.below(3));
    cfg.net = rng.below(8) == 0 ? net::NetParams::gigabit_ethernet()
                                : net::NetParams::infiniband_20g();
    cfg.net.topology = draw_topology(rng);
    cfg.coll = draw_coll_tuning(rng);
    cfg.seed = rng();
    cfg.time_limit = timeunits::seconds(30.0);

    // Fail-stop faults where the seed suite exercises them (SDR failover,
    // mirror protocol), occasionally with auto-recovery; SDC injection for
    // the redMPI detectors.
    if (cfg.replication == 2 && (proto == core::ProtocolKind::Sdr ||
                                 proto == core::ProtocolKind::Mirror) &&
        rng.below(3) == 0) {
      const int slot = cfg.nranks + static_cast<int>(rng.below(cfg.nranks));
      cfg.faults.push_back({.slot = slot,
                            .at_time = -1,
                            .at_send = static_cast<std::int64_t>(
                                1 + rng.below(6))});
      if (proto == core::ProtocolKind::Sdr && rng.below(2) == 0) {
        cfg.auto_recover = true;
      }
    }
    if ((proto == core::ProtocolKind::RedMpiLeader ||
         proto == core::ProtocolKind::RedMpiSd) &&
        rng.below(4) == 0) {
      cfg.sdc.push_back(
          {.slot = static_cast<int>(rng.below(2 * cfg.nranks)),
           .at_send = static_cast<std::int64_t>(rng.below(4))});
    }

    switch (rng.below(3)) {
      case 0: {
        // Message sizes straddle the eager/rendezvous threshold, and a
        // crash lands on a rendezvous-sized ring every other time.
        int doubles = static_cast<int>(1 + rng.below(2048));
        if (!cfg.faults.empty() && doubles % 2 == 0) {
          doubles += static_cast<int>(cfg.net.eager_threshold / sizeof(double));
        }
        const int iters = static_cast<int>(2 + rng.below(5));
        // Each rank sends once per iteration: crash on one of those sends.
        for (auto& f : cfg.faults) f.at_send %= iters;
        fc.app = ring_app(iters, doubles);
        fc.label = "ring";
        fc.rendezvous = doubles * sizeof(double) > cfg.net.eager_threshold;
        break;
      }
      case 1:
        fc.app = funnel_app(static_cast<int>(3 + rng.below(10)));
        fc.label = "funnel";
        break;
      default:
        fc.app = allreduce_app(static_cast<int>(2 + rng.below(5)));
        fc.label = "allreduce";
        break;
    }
    fc.label += "/" + std::string(core::to_string(proto)) + "/" +
                net::to_string(cfg.net.topology.kind) + "/i" +
                std::to_string(i);
    cases.push_back(std::move(fc));
  }
  return cases;
}

void expect_identical(const core::RunResult& a, const core::RunResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.deadlock, b.deadlock) << label;
  EXPECT_EQ(a.time_limit_hit, b.time_limit_hit) << label;
  EXPECT_EQ(a.rank_lost, b.rank_lost) << label;
  EXPECT_EQ(a.makespan, b.makespan) << label;
  EXPECT_EQ(a.app_sends, b.app_sends) << label;
  EXPECT_EQ(a.data_frames, b.data_frames) << label;
  EXPECT_EQ(a.ctl_frames, b.ctl_frames) << label;
  EXPECT_EQ(a.unexpected, b.unexpected) << label;
  EXPECT_EQ(a.duplicates_dropped, b.duplicates_dropped) << label;
  EXPECT_EQ(a.events_executed, b.events_executed) << label;
  EXPECT_EQ(a.context_switches, b.context_switches) << label;
  EXPECT_EQ(a.protocol, b.protocol) << label;
  EXPECT_EQ(a.fabric, b.fabric) << label;
  ASSERT_EQ(a.slots.size(), b.slots.size()) << label;
  for (std::size_t i = 0; i < a.slots.size(); ++i) {
    EXPECT_EQ(a.slots[i].finish_time, b.slots[i].finish_time)
        << label << " slot " << i;
    EXPECT_EQ(a.slots[i].checksum, b.slots[i].checksum)
        << label << " slot " << i;
    EXPECT_EQ(a.slots[i].final_state, b.slots[i].final_state)
        << label << " slot " << i;
  }
}

TEST(FuzzDeterminism, PoolSizeNeverLeaksIntoResults) {
  const auto cases = draw_cases();
  std::vector<core::RunConfig> configs;
  configs.reserve(cases.size());
  for (const auto& c : cases) configs.push_back(c.cfg);
  auto factory = [&cases](const core::RunConfig&, std::size_t i) {
    return cases[i].app;
  };

  const auto serial = core::run_many(configs, factory, {.threads = 1});
  const auto pooled = core::run_many(configs, factory, {.threads = 8});
  ASSERT_EQ(serial.size(), pooled.size());

  // Oracle for fault cases: one crash leaves a replica of every rank
  // alive, so the run is clean and every surviving (or recovered) replica
  // holds the checksum of a native run of the same app.
  std::vector<std::size_t> faulty;
  std::vector<core::RunConfig> natives;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    if (cases[i].cfg.faults.empty()) continue;
    core::RunConfig n = cases[i].cfg;
    n.protocol = core::ProtocolKind::Native;
    n.replication = 1;
    n.faults.clear();
    n.auto_recover = false;
    faulty.push_back(i);
    natives.push_back(n);
  }
  const auto native = core::run_many(
      natives,
      [&](const core::RunConfig&, std::size_t k) {
        return cases[faulty[k]].app;
      },
      {.threads = 4});
  int rendezvous_crashes = 0;
  for (std::size_t k = 0; k < faulty.size(); ++k) {
    const FuzzCase& c = cases[faulty[k]];
    const core::RunResult& res = serial[faulty[k]];
    ASSERT_TRUE(test::run_clean(native[k])) << c.label;
    EXPECT_TRUE(test::run_clean(res)) << c.label;
    for (const auto& slot : res.slots) {
      if (slot.reported_checksum) {
        EXPECT_EQ(slot.checksum, native[k].checksum_of(slot.rank))
            << c.label << " slot " << slot.slot << " diverged from native";
      }
      if (c.rendezvous && slot.final_state == "Crashed") ++rendezvous_crashes;
    }
  }
  // The rendezvous failover path must be among the crashes checked.
  EXPECT_GE(rendezvous_crashes, 1);

  int clean = 0;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_identical(serial[i], pooled[i], cases[i].label);
    // Host byte counters are per-run deltas off a run-scoped digest memo,
    // so they must not leak pool size either. (Not part of
    // expect_identical: the symbolic/materialized twin test uses that
    // helper, and twins differ in bytes_copied by design.)
    EXPECT_EQ(serial[i].bytes_copied, pooled[i].bytes_copied)
        << cases[i].label;
    EXPECT_EQ(serial[i].bytes_hashed, pooled[i].bytes_hashed)
        << cases[i].label;
    if (serial[i].clean()) ++clean;
  }
  // The fuzzer must mostly generate runnable configs, or it tests nothing.
  EXPECT_GE(clean, static_cast<int>(serial.size()) * 9 / 10)
      << "only " << clean << "/" << serial.size() << " runs were clean";
}

// Symbolic payloads are timing-transparent: a workload sending content
// descriptors with sink receives must produce a bit-identical trace —
// virtual times, wire bytes, traffic counters, per-slot checksums — to its
// materialized twin pushing the same pattern bytes through real buffers.
// Randomizes (workload × protocol × topology × seed) pairs.
TEST(FuzzDeterminism, SymbolicMatchesMaterializedTwin) {
  constexpr int kPairs = 36;
  util::Rng rng(0x5fabc0deULL);
  const core::ProtocolKind kinds[] = {
      core::ProtocolKind::Native,       core::ProtocolKind::Sdr,
      core::ProtocolKind::Mirror,       core::ProtocolKind::Leader,
      core::ProtocolKind::RedMpiLeader, core::ProtocolKind::RedMpiSd};
  const char* skeletons[] = {"cg", "mg", "ft", "bt", "sp", "hpccg", "cm1"};

  std::vector<core::RunConfig> configs;
  std::vector<core::AppFn> apps;
  std::vector<std::string> labels;
  for (int i = 0; i < kPairs; ++i) {
    core::RunConfig cfg;
    const auto proto = kinds[rng.below(6)];
    cfg.protocol = proto;
    cfg.replication = proto == core::ProtocolKind::Native ? 1 : 2;
    cfg.nranks = static_cast<int>(2 + rng.below(4));  // 2..5, incl. non-pow2
    cfg.net.topology = draw_topology(rng);
    cfg.coll = draw_coll_tuning(rng);
    cfg.seed = rng();
    cfg.time_limit = timeunits::seconds(300.0);

    util::Options opts;
    std::string wl_name;
    switch (rng.below(5)) {
      case 0:
        wl_name = "netpipe";
        opts.set("sizes", "1,512,4096,65536");
        opts.set("reps", "3");
        break;
      case 1:
        // Pure collective traffic: every schedule of the engine, sizes
        // straddling both the eager threshold and the Auto thresholds.
        wl_name = "coll";
        opts.set("bcast-bytes", std::to_string(64u << rng.below(11)));
        opts.set("block-bytes", std::to_string(16u << rng.below(10)));
        opts.set("reduce-bytes", std::to_string(8u << rng.below(12)));
        opts.set("iters", "2");
        break;
      default:
        wl_name = skeletons[rng.below(7)];
        opts.set("class", rng.below(2) == 0 ? "S" : "W");
        opts.set("iters", "2");
        break;
    }
    opts.set("seed", std::to_string(rng.below(1u << 20)));
    for (const char* mode : {"symbolic", "materialize"}) {
      util::Options mode_opts = opts;
      mode_opts.set(mode, "true");
      configs.push_back(cfg);
      apps.push_back(wl::make_workload(wl_name, mode_opts));
    }
    labels.push_back(wl_name + "/" + core::to_string(proto) + "/i" +
                     std::to_string(i));
  }

  auto factory = [&apps](const core::RunConfig&, std::size_t i) {
    return apps[i];
  };
  const auto runs = core::run_many(configs, factory, {.threads = 4});
  ASSERT_EQ(runs.size(), static_cast<std::size_t>(2 * kPairs));
  for (int i = 0; i < kPairs; ++i) {
    expect_identical(runs[2 * static_cast<std::size_t>(i)],
                     runs[2 * static_cast<std::size_t>(i) + 1],
                     labels[static_cast<std::size_t>(i)]);
  }
}

// Checkpoint/restart axis: random intervals, costs and fault schedules.
// Pool size never leaks into results (threads 1 vs 8), and the
// charge-forward model keeps nearly every run clean.
TEST(FuzzDeterminism, CheckpointRunsArePoolInvariant) {
  constexpr int kConfigs = 30;
  util::Rng rng(0xc0ffee5eedULL);

  std::vector<core::RunConfig> configs;
  std::vector<core::AppFn> apps;
  std::vector<std::string> labels;
  for (int i = 0; i < kConfigs; ++i) {
    core::RunConfig cfg;
    cfg.protocol = core::ProtocolKind::Ckpt;
    cfg.replication = 1;
    cfg.nranks = static_cast<int>(2 + rng.below(3));  // 2..4
    cfg.net.topology = draw_topology(rng);
    cfg.coll = draw_coll_tuning(rng);
    cfg.seed = rng();
    cfg.time_limit = timeunits::seconds(30.0);
    // Log-uniform interval from 16us to ~2ms straddles the ~400us small-cg
    // makespan: some runs checkpoint dozens of times, some never reach the
    // first boundary. Occasionally 0 (boundary chain disabled entirely).
    cfg.ckpt.interval =
        rng.below(8) == 0
            ? 0
            : static_cast<Time>(16000ULL << rng.below(8));
    cfg.ckpt.checkpoint_cost = static_cast<Time>(500 + rng.below(8000));
    cfg.ckpt.restart_cost = static_cast<Time>(5000 + rng.below(50000));
    // At_time-only faults (the Ckpt validator's rule), some landing beyond
    // the run's completion where they must be absorbed as no-ops.
    const auto nfaults = rng.below(3);
    for (std::uint32_t f = 0; f < nfaults; ++f) {
      cfg.faults.push_back(
          {.slot = static_cast<int>(rng.below(cfg.nranks)),
           .at_time = static_cast<Time>(20000 + rng.below(1500000)),
           .at_send = -1});
    }

    core::AppFn app;
    std::string label;
    switch (rng.below(3)) {
      case 0:
        app = ring_app(static_cast<int>(2 + rng.below(4)),
                       static_cast<int>(1 + rng.below(1024)));
        label = "ring";
        break;
      case 1:
        app = funnel_app(static_cast<int>(3 + rng.below(8)));
        label = "funnel";
        break;
      default:
        app = allreduce_app(static_cast<int>(2 + rng.below(4)));
        label = "allreduce";
        break;
    }
    configs.push_back(cfg);
    apps.push_back(app);
    labels.push_back(label + "/iv" + std::to_string(cfg.ckpt.interval) +
                     "/i" + std::to_string(i));
  }

  auto factory = [&apps](const core::RunConfig&, std::size_t i) {
    return apps[i];
  };
  const auto serial = core::run_many(configs, factory, {.threads = 1});
  const auto pooled = core::run_many(configs, factory, {.threads = 8});
  ASSERT_EQ(serial.size(), pooled.size());

  int clean = 0;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_identical(serial[i], pooled[i], labels[i]);
    if (serial[i].clean()) ++clean;
  }
  EXPECT_GE(clean, kConfigs * 9 / 10)
      << "only " << clean << "/" << kConfigs << " ckpt runs were clean";
}

// The same batch must also be invariant under re-execution with an
// intermediate pool size (catches accidental global state across runs).
TEST(FuzzDeterminism, RepeatedBatchesAreIdentical) {
  auto cases = draw_cases();
  cases.resize(40);  // a slice is enough for the rerun check
  std::vector<core::RunConfig> configs;
  for (const auto& c : cases) configs.push_back(c.cfg);
  auto factory = [&cases](const core::RunConfig&, std::size_t i) {
    return cases[i].app;
  };
  const auto first = core::run_many(configs, factory, {.threads = 4});
  const auto second = core::run_many(configs, factory, {.threads = 4});
  for (std::size_t i = 0; i < first.size(); ++i) {
    expect_identical(first[i], second[i], cases[i].label);
  }
}

}  // namespace
}  // namespace sdrmpi
