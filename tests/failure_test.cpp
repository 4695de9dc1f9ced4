// Failure handling (paper §3.3, Figure 3): crash injection, substitute
// election, buffered-message resends, and application-level correctness
// after a replica fail-stop.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "test_support.hpp"

namespace sdrmpi {
namespace {

using test::quick_config;
using test::run_clean;
using test::small_workload;

/// A 2-rank iterated exchange reproducing Figure 3's message pattern:
/// rank 1 sends to rank 0, then rank 0 sends to rank 1, repeatedly.
core::AppFn figure3_app(int rounds) {
  return [rounds](mpi::Env& env) {
    auto& world = env.world();
    double v = env.rank() == 1 ? 1.0 : 0.0;
    for (int i = 0; i < rounds; ++i) {
      if (env.rank() == 1) {
        world.send_value(v, 0, 5);
        v = world.recv_value<double>(0, 6) + 1.0;
      } else if (env.rank() == 0) {
        const double got = world.recv_value<double>(1, 5);
        world.send_value(got * 2.0, 1, 6);
        v = got;
      }
    }
    util::Checksum cs;
    cs.add_double(v);
    env.report_checksum(cs.digest());
  };
}

TEST(Failure, Figure3ScenarioSurvivesReplicaCrash) {
  auto native =
      core::run(quick_config(2, 1, core::ProtocolKind::Native), figure3_app(10));
  ASSERT_TRUE(run_clean(native));

  // Crash p_1^1 (slot 3 = world 1, rank 1) right before its 4th send.
  auto cfg = quick_config(2, 2, core::ProtocolKind::Sdr);
  cfg.faults.push_back({.slot = 3, .at_time = -1, .at_send = 3});
  auto res = core::run(cfg, figure3_app(10));
  ASSERT_TRUE(run_clean(res));
  EXPECT_EQ(res.protocol.failures_observed, 3u);  // 3 alive observers

  // Every surviving process finished with the native result.
  EXPECT_EQ(res.checksum_of(0, 0), native.checksum_of(0));
  EXPECT_EQ(res.checksum_of(1, 0), native.checksum_of(1));
  EXPECT_EQ(res.checksum_of(0, 1), native.checksum_of(0));
  EXPECT_EQ(res.slots[3].final_state, "Crashed");
}

TEST(Failure, SubstituteResendsBufferedMessages) {
  // Crash the world-1 sender early: the world-0 replica must resend
  // whatever slot 2 (world 1, rank 0) had not acknowledged.
  auto cfg = quick_config(2, 2, core::ProtocolKind::Sdr);
  cfg.faults.push_back({.slot = 3, .at_time = -1, .at_send = 1});
  auto res = core::run(cfg, figure3_app(8));
  ASSERT_TRUE(run_clean(res));
  EXPECT_GT(res.protocol.resends, 0u);
}

/// Every run in `runs` is clean and each surviving process reported the
/// checksum of its rank in `native`.
void expect_survivors_match_native(const std::vector<core::RunResult>& runs,
                                   const std::vector<std::string>& labels,
                                   const core::RunResult& native) {
  ASSERT_EQ(runs.size(), labels.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_TRUE(run_clean(runs[i])) << labels[i];
    for (const auto& slot : runs[i].slots) {
      if (!slot.reported_checksum) continue;
      EXPECT_EQ(slot.checksum, native.checksum_of(slot.rank))
          << labels[i] << ": slot " << slot.slot << " diverged";
    }
  }
}

struct FaultCase {
  const char* workload;
  int nranks;
  int crash_slot;
  std::int64_t at_send;
};

class WorkloadWithFault : public ::testing::TestWithParam<FaultCase> {};

// Each workload completes with native-equal checksums in every surviving
// process despite a mid-run replica crash.
TEST_P(WorkloadWithFault, SurvivorsMatchNative) {
  const auto [name, nranks, crash_slot, at_send] = GetParam();
  auto native = core::run(quick_config(nranks, 1, core::ProtocolKind::Native),
                          small_workload(name));
  ASSERT_TRUE(run_clean(native));

  auto cfg = quick_config(nranks, 2, core::ProtocolKind::Sdr);
  cfg.faults.push_back(
      {.slot = crash_slot, .at_time = -1, .at_send = at_send});
  expect_survivors_match_native({core::run(cfg, small_workload(name))},
                                {name}, native);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WorkloadWithFault,
    ::testing::Values(FaultCase{"cg", 4, 5, 4}, FaultCase{"cg", 4, 1, 10},
                      FaultCase{"mg", 4, 6, 12}, FaultCase{"ft", 4, 7, 2},
                      FaultCase{"bt", 4, 4, 3}, FaultCase{"sp", 4, 5, 6},
                      FaultCase{"hpccg", 4, 6, 9}, FaultCase{"cm1", 4, 7, 5}),
    [](const auto& info) {
      return std::string(info.param.workload) + "_slot" +
             std::to_string(info.param.crash_slot) + "_send" +
             std::to_string(info.param.at_send);
    });

TEST(Failure, TimeBasedCrash) {
  // One world-1 crash, then two world-1 crashes of different ranks.
  const std::vector<std::vector<core::FaultSpec>> cases = {
      {{.slot = 6, .at_time = timeunits::microseconds(300.0), .at_send = -1}},
      {{.slot = 6, .at_time = timeunits::microseconds(150.0), .at_send = -1},
       {.slot = 4, .at_time = timeunits::microseconds(300.0), .at_send = -1}},
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    auto cfg = quick_config(4, 2, core::ProtocolKind::Sdr);
    cfg.faults = cases[i];
    auto res = core::run(cfg, small_workload("cg"));
    ASSERT_TRUE(run_clean(res)) << "case " << i;
    for (const core::FaultSpec& f : cases[i]) {
      EXPECT_EQ(res.slots[static_cast<std::size_t>(f.slot)].final_state,
                "Crashed")
          << "case " << i << ", slot " << f.slot;
    }
    EXPECT_TRUE(res.checksums_consistent()) << "case " << i;
  }
}

TEST(Failure, BothReplicasLostIsReported) {
  auto cfg = quick_config(2, 2, core::ProtocolKind::Sdr);
  cfg.faults.push_back({.slot = 1, .at_time = -1, .at_send = 2});
  cfg.faults.push_back({.slot = 3, .at_time = -1, .at_send = 2});
  cfg.time_limit = timeunits::seconds(1.0);
  auto res = core::run(cfg, figure3_app(10));
  // All replicas of rank 1 died: the run cannot be clean (the paper: the
  // system would have to fall back to checkpoint/restart).
  EXPECT_FALSE(res.clean());
  EXPECT_TRUE(res.rank_lost);
}

TEST(Failure, CrashDuringRendezvousIsRetransmitted) {
  // Force rendezvous traffic (payload above the eager threshold) and crash
  // the sender between its sends: the receiver must recover the payload
  // from the substitute's retransmission.
  const int n = 8192;  // doubles -> 64 KiB > 12 KiB eager threshold
  auto app = [n](mpi::Env& env) {
    auto& world = env.world();
    std::vector<double> buf(static_cast<std::size_t>(n), 0.0);
    if (env.rank() == 1) {
      for (int round = 0; round < 4; ++round) {
        for (int i = 0; i < n; ++i) buf[static_cast<std::size_t>(i)] = round + i * 1e-6;
        world.send(std::span<const double>(buf), 0, 9);
      }
    } else {
      util::Checksum cs;
      for (int round = 0; round < 4; ++round) {
        world.recv(std::span<double>(buf), 1, 9);
        cs.add_range(std::span<const double>(buf));
      }
      env.report_checksum(cs.digest());
    }
  };
  auto native = core::run(quick_config(2, 1, core::ProtocolKind::Native), app);
  ASSERT_TRUE(run_clean(native));

  for (std::int64_t at_send : {1, 2, 3}) {
    auto cfg = quick_config(2, 2, core::ProtocolKind::Sdr);
    cfg.faults.push_back({.slot = 3, .at_time = -1, .at_send = at_send});
    auto res = core::run(cfg, app);
    ASSERT_TRUE(run_clean(res)) << "crash at send " << at_send;
    EXPECT_EQ(res.checksum_of(0, 0), native.checksum_of(0));
    EXPECT_EQ(res.checksum_of(0, 1), native.checksum_of(0))
        << "world-1 receiver lost data after sender crash at send "
        << at_send;
  }
}

/// Two ranks swap `bytes`-sized vectors in `rounds` sendrecv rounds.
core::AppFn sendrecv_app(int rounds, std::size_t bytes) {
  return [rounds, bytes](mpi::Env& env) {
    auto& world = env.world();
    const int peer = env.rank() ^ 1;
    std::vector<double> out(bytes / sizeof(double));
    std::vector<double> in(out.size());
    double acc = env.rank() + 1.0;
    for (int r = 0; r < rounds; ++r) {
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = acc + static_cast<double>(i);
      }
      world.sendrecv(std::span<const double>(out), peer, r,
                     std::span<double>(in), peer, r);
      acc += in[in.size() / 2] * 0.5;
    }
    util::Checksum cs;
    cs.add_double(acc);
    env.report_checksum(cs.digest());
  };
}

// A rendezvous send whose destination dies must still complete: its CTS
// will never come. Every single crash of a 2-rank r=2 exchange above the
// eager threshold, under each protocol that survives a replica crash.
TEST(Failure, RendezvousSendToDeadPeerCompletes) {
  constexpr int kRounds = 6;
  constexpr std::size_t kBytes = 16 * 1024;
  static_assert(kBytes > net::NetParams{}.eager_threshold);
  const auto app = sendrecv_app(kRounds, kBytes);
  const auto native =
      core::run(quick_config(2, 1, core::ProtocolKind::Native), app);
  ASSERT_TRUE(run_clean(native));

  std::vector<core::RunConfig> configs;
  std::vector<std::string> labels;
  for (const auto proto : {core::ProtocolKind::Sdr, core::ProtocolKind::Leader,
                           core::ProtocolKind::Mirror}) {
    for (int slot = 0; slot < 4; ++slot) {
      for (std::int64_t at_send = 0; at_send <= kRounds; ++at_send) {
        auto cfg = quick_config(2, 2, proto);
        cfg.faults.push_back({.slot = slot, .at_time = -1, .at_send = at_send});
        cfg.time_limit = timeunits::seconds(1.0);
        configs.push_back(cfg);
        labels.push_back(std::string(core::to_string(proto)) + " slot " +
                         std::to_string(slot) + " send " +
                         std::to_string(at_send));
      }
    }
  }
  expect_survivors_match_native(core::run_many(configs, app), labels, native);
}

// The same hang inside a collective: 8-rank CG with the Bruck allgather
// (rendezvous-sized blocks), SDR, every single (slot, at_send) crash.
TEST(Failure, CgBruckSurvivesEverySingleCrash) {
  util::Options opts;
  opts.set("nrows", "4096");
  opts.set("iters", "2");
  const auto app = wl::make_workload("cg", opts);
  auto base = quick_config(8, 1, core::ProtocolKind::Native);
  base.coll.allgather = mpi::AllgatherAlg::Bruck;
  const auto native = core::run(base, app);
  ASSERT_TRUE(run_clean(native));
  // 40 crash points per slot cover every send of every process (each
  // rank sends 21 times here); the later ones never fire.
  constexpr std::int64_t kCrashPoints = 40;
  ASSERT_LT(native.app_sends / 8, static_cast<std::uint64_t>(kCrashPoints));

  std::vector<core::RunConfig> configs;
  std::vector<std::string> labels;
  for (int slot = 0; slot < 16; ++slot) {
    for (std::int64_t at_send = 0; at_send < kCrashPoints; ++at_send) {
      auto cfg = base;
      cfg.protocol = core::ProtocolKind::Sdr;
      cfg.replication = 2;
      cfg.faults.push_back({.slot = slot, .at_time = -1, .at_send = at_send});
      cfg.time_limit = timeunits::seconds(1.0);
      configs.push_back(cfg);
      labels.push_back("slot " + std::to_string(slot) + " send " +
                       std::to_string(at_send));
    }
  }
  expect_survivors_match_native(core::run_many(configs, app), labels, native);
}

TEST(Failure, NativeCrashIsFatal) {
  // Without replication a crash kills the application (deadlock or lost
  // rank): the run must not be clean.
  auto cfg = quick_config(2, 1, core::ProtocolKind::Native);
  cfg.faults.push_back({.slot = 1, .at_time = -1, .at_send = 2});
  cfg.time_limit = timeunits::seconds(1.0);
  auto res = core::run(cfg, figure3_app(10));
  EXPECT_FALSE(res.clean());
}

TEST(Failure, MirrorSurvivesSenderCrashEagerTraffic) {
  auto native =
      core::run(quick_config(2, 1, core::ProtocolKind::Native), figure3_app(8));
  auto cfg = quick_config(2, 2, core::ProtocolKind::Mirror);
  cfg.faults.push_back({.slot = 3, .at_time = -1, .at_send = 2});
  auto res = core::run(cfg, figure3_app(8));
  ASSERT_TRUE(run_clean(res));
  EXPECT_EQ(res.checksum_of(0, 0), native.checksum_of(0));
  EXPECT_EQ(res.checksum_of(0, 1), native.checksum_of(0));
}

}  // namespace
}  // namespace sdrmpi
