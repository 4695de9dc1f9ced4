// Protocol-level properties: message complexity (O(q*r) parallel vs
// O(q*r^2) mirror, paper §2.4), ack accounting, send-request gating, the
// ack-on-wait deadlock (§3.3), the eager-copy ablation, and redMPI SDC
// detection.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "sdrmpi/util/log.hpp"
#include "test_support.hpp"

namespace sdrmpi {
namespace {

using test::quick_config;
using test::run_clean;
using test::small_workload;

core::AppFn exchange_app(int rounds, std::size_t bytes) {
  return [rounds, bytes](mpi::Env& env) {
    auto& world = env.world();
    std::vector<std::byte> out(bytes, std::byte{1});
    std::vector<std::byte> in(bytes);
    const int peer = env.rank() ^ 1;
    for (int i = 0; i < rounds; ++i) {
      world.sendrecv(std::span<const std::byte>(out), peer, 1,
                     std::span<std::byte>(in), peer, 1);
    }
    env.report_checksum(static_cast<std::uint64_t>(rounds));
  };
}

TEST(MessageComplexity, ParallelIsOqrMirrorIsOqr2) {
  const int rounds = 10;
  auto native = core::run(quick_config(2, 1, core::ProtocolKind::Native),
                          exchange_app(rounds, 64));
  ASSERT_TRUE(run_clean(native));
  const auto q = native.data_frames;  // application messages, native run

  auto sdr = core::run(quick_config(2, 2, core::ProtocolKind::Sdr),
                       exchange_app(rounds, 64));
  ASSERT_TRUE(run_clean(sdr));
  auto mirror = core::run(quick_config(2, 2, core::ProtocolKind::Mirror),
                          exchange_app(rounds, 64));
  ASSERT_TRUE(run_clean(mirror));

  // r = 2: parallel sends q*r data frames, mirror q*r^2.
  EXPECT_EQ(sdr.data_frames, q * 2);
  EXPECT_EQ(mirror.data_frames, q * 4);
  // Mirror needs no acks; SDR sends (r-1) acks per received message.
  EXPECT_EQ(mirror.protocol.acks_sent, 0u);
  EXPECT_EQ(sdr.protocol.acks_sent, q * 2);

  auto sdr3 = core::run(quick_config(2, 3, core::ProtocolKind::Sdr),
                        exchange_app(rounds, 64));
  ASSERT_TRUE(run_clean(sdr3));
  auto mirror3 = core::run(quick_config(2, 3, core::ProtocolKind::Mirror),
                           exchange_app(rounds, 64));
  ASSERT_TRUE(run_clean(mirror3));
  EXPECT_EQ(sdr3.data_frames, q * 3);
  EXPECT_EQ(mirror3.data_frames, q * 9);
}

TEST(AckAccounting, EveryAckIsConsumed) {
  auto res = core::run(quick_config(4, 2, core::ProtocolKind::Sdr),
                       small_workload("cg"));
  ASSERT_TRUE(run_clean(res));
  EXPECT_GT(res.protocol.acks_sent, 0u);
  EXPECT_EQ(res.protocol.acks_sent, res.protocol.acks_received);
  EXPECT_EQ(res.protocol.stale_acks, 0u);
}

TEST(AckGating, SendWaitsForCrossWorldAck) {
  // One-directional stream: rank 0 blasts messages at rank 1. Under SDR
  // every blocking send must wait for the sibling receiver's ack, so the
  // replicated makespan strictly exceeds native.
  auto app = [](mpi::Env& env) {
    auto& world = env.world();
    std::byte b{7};
    if (env.rank() == 0) {
      for (int i = 0; i < 50; ++i)
        world.send(std::span<const std::byte>(&b, 1), 1, 2);
    } else {
      for (int i = 0; i < 50; ++i)
        world.recv(std::span<std::byte>(&b, 1), 0, 2);
    }
    env.report_checksum(1);
  };
  auto native = core::run(quick_config(2, 1, core::ProtocolKind::Native), app);
  auto sdr = core::run(quick_config(2, 2, core::ProtocolKind::Sdr), app);
  ASSERT_TRUE(run_clean(native));
  ASSERT_TRUE(run_clean(sdr));
  EXPECT_GT(sdr.makespan, native.makespan);
}

TEST(Deadlock, AckOnWaitDeadlocks) {
  // Paper §3.3: Irecv; Send; Wait(recv) on both sides. If acks are only
  // emitted at application-level completion (MPI_Wait), both blocking
  // sends wait for acks that can never be sent.
  auto app = [](mpi::Env& env) {
    auto& world = env.world();
    const int peer = env.rank() ^ 1;
    double in = 0.0, out = env.rank();
    auto rreq = world.irecv(std::span<double>(&in, 1), peer, 4);
    world.send(std::span<const double>(&out, 1), peer, 4);
    world.wait(rreq);
    env.report_checksum(static_cast<std::uint64_t>(in));
  };

  auto ok = quick_config(2, 2, core::ProtocolKind::Sdr);
  auto res_ok = core::run(ok, app);
  EXPECT_TRUE(run_clean(res_ok)) << "ack-on-irecvComplete must not deadlock";

  auto bad = quick_config(2, 2, core::ProtocolKind::Sdr);
  bad.ack_on_wait = true;
  auto res_bad = core::run(bad, app);
  EXPECT_TRUE(res_bad.deadlock) << "ack-on-wait must deadlock (paper §3.3)";
}

TEST(Ablation, EagerCopyCompletionAvoidsAckWaitButCopies) {
  auto bad = quick_config(2, 2, core::ProtocolKind::Sdr);
  bad.ack_on_wait = true;
  bad.eager_copy_completion = true;  // the paper's proposed alternative
  auto app = [](mpi::Env& env) {
    auto& world = env.world();
    const int peer = env.rank() ^ 1;
    double in = 0.0, out = env.rank();
    auto rreq = world.irecv(std::span<double>(&in, 1), peer, 4);
    world.send(std::span<const double>(&out, 1), peer, 4);
    world.wait(rreq);
    env.report_checksum(static_cast<std::uint64_t>(in + 1));
  };
  auto res = core::run(bad, app);
  EXPECT_TRUE(run_clean(res))
      << "extra-copy completion breaks the deadlock cycle";
  EXPECT_GT(res.protocol.extra_copies, 0u);
}

TEST(RedMpi, DetectsInjectedCorruption) {
  for (auto kind :
       {core::ProtocolKind::RedMpiSd, core::ProtocolKind::RedMpiLeader}) {
    auto cfg = quick_config(4, 2, core::ProtocolKind::Sdr);
    cfg.protocol = kind;
    cfg.sdc.push_back({.slot = 5, .at_send = 3});
    auto res = core::run(cfg, small_workload("cg"));
    ASSERT_TRUE(run_clean(res));
    EXPECT_GE(res.protocol.sdc_detected, 1u) << core::to_string(kind);
    EXPECT_GT(res.protocol.hashes_compared, 0u);
  }
}

TEST(RedMpi, WarnsOncePerCorruptedSlot) {
  // One flip cascades: every later message carrying the corrupted value
  // mismatches again. All of them count, but each slot warns only once.
  auto cfg = quick_config(8, 2, core::ProtocolKind::RedMpiSd);
  cfg.sdc.push_back({.slot = 3, .at_send = 1});
  util::Options cg;
  cg.set("nrows", "512");
  cg.set("iters", "6");
  const util::LogLevel saved = util::log_level();
  util::set_log_level(util::LogLevel::Warn);
  testing::internal::CaptureStderr();
  auto res = core::run(cfg, wl::make_workload("cg", cg));
  const std::string err = testing::internal::GetCapturedStderr();
  util::set_log_level(saved);
  ASSERT_TRUE(run_clean(res));
  EXPECT_EQ(res.protocol.sdc_detected, 752u);

  std::map<std::string, int> warnings;  // "slot N" -> lines
  std::istringstream lines(err);
  for (std::string line; std::getline(lines, line);) {
    const auto at = line.find(" detected silent data corruption");
    if (at == std::string::npos) continue;
    const auto slot = line.rfind("slot ", at);
    ASSERT_NE(slot, std::string::npos) << line;
    ++warnings[line.substr(slot, at - slot)];
  }
  EXPECT_FALSE(warnings.empty());
  for (const auto& [slot, n] : warnings) EXPECT_EQ(n, 1) << slot;
}

TEST(RedMpi, NoFalsePositives) {
  auto cfg = quick_config(4, 2, core::ProtocolKind::RedMpiSd);
  auto res = core::run(cfg, small_workload("hpccg"));
  ASSERT_TRUE(run_clean(res));
  EXPECT_EQ(res.protocol.sdc_detected, 0u);
  EXPECT_GT(res.protocol.hashes_compared, 0u);
}

TEST(RedMpi, SdrDoesNotDetectCorruption) {
  // SDR targets crashes, not SDC: an injected corruption silently diverges
  // the worlds' checksums (motivating redMPI's hash comparison).
  auto cfg = quick_config(2, 2, core::ProtocolKind::Sdr);
  cfg.sdc.push_back({.slot = 3, .at_send = 2});
  auto res = core::run(cfg, exchange_app(6, 64));
  ASSERT_TRUE(run_clean(res));
  EXPECT_EQ(res.protocol.sdc_detected, 0u);
}

TEST(Leader, DecisionsFlowForAnySource) {
  auto cfg = quick_config(4, 2, core::ProtocolKind::Leader);
  auto res = core::run(cfg, small_workload("hpccg"));
  ASSERT_TRUE(run_clean(res));
  // hpccg posts ANY_SOURCE halo receives: followers must have consumed
  // exactly the decisions the leaders published.
  EXPECT_GT(res.protocol.decisions_sent, 0u);
  EXPECT_EQ(res.protocol.decisions_sent, res.protocol.decisions_used);
}

TEST(Leader, NoDecisionsWithoutWildcards) {
  auto cfg = quick_config(4, 2, core::ProtocolKind::Leader);
  auto res = core::run(cfg, small_workload("cg"));
  ASSERT_TRUE(run_clean(res));
  EXPECT_EQ(res.protocol.decisions_sent, 0u);
}

TEST(Leader, MoreUnexpectedMessagesThanSdr) {
  // Followers delay posting wildcard receives until the decision arrives,
  // inflating the unexpected-message count (paper §3.1).
  auto sdr = core::run(quick_config(4, 2, core::ProtocolKind::Sdr),
                       small_workload("hpccg"));
  auto leader = core::run(quick_config(4, 2, core::ProtocolKind::Leader),
                          small_workload("hpccg"));
  ASSERT_TRUE(run_clean(sdr));
  ASSERT_TRUE(run_clean(leader));
  EXPECT_GT(leader.unexpected, sdr.unexpected);
}

TEST(Replication, TripleReplicationWorks) {
  auto native = core::run(quick_config(4, 1, core::ProtocolKind::Native),
                          small_workload("cg"));
  auto cfg = quick_config(4, 3, core::ProtocolKind::Sdr);
  auto res = core::run(cfg, small_workload("cg"));
  ASSERT_TRUE(run_clean(res));
  for (int rank = 0; rank < 4; ++rank) {
    for (int w = 0; w < 3; ++w) {
      EXPECT_EQ(res.checksum_of(rank, w), native.checksum_of(rank));
    }
  }
  // r = 3: every received message is acked to the two other worlds.
  EXPECT_EQ(res.protocol.acks_sent, res.protocol.acks_received);
}

TEST(Replication, TripleReplicationSurvivesCrash) {
  auto cfg = quick_config(2, 3, core::ProtocolKind::Sdr);
  cfg.faults.push_back({.slot = 5, .at_time = -1, .at_send = 3});
  auto res = core::run(cfg, exchange_app(10, 128));
  ASSERT_TRUE(run_clean(res));
}

}  // namespace
}  // namespace sdrmpi
