// Checkpoint/restart protocol (ProtocolKind::Ckpt): the charge-forward
// cost model. Boundaries charge checkpoint_cost to every live clock, a
// fail-stop fault charges restart + rework at detection time, and nobody
// dies — runs stay clean and deterministic.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "test_support.hpp"

namespace sdrmpi {
namespace {

core::RunConfig ckpt_config(Time interval) {
  core::RunConfig cfg = test::quick_config(4, 1, core::ProtocolKind::Ckpt);
  cfg.ckpt.interval = interval;
  // Costs scaled to the ~400us small-cg makespan.
  cfg.ckpt.checkpoint_cost = 5000;
  cfg.ckpt.restart_cost = 20000;
  return cfg;
}

TEST(Ckpt, ZeroIntervalMatchesNativeExactly) {
  // interval == 0 disables the boundary chain: the run is the unreplicated
  // baseline bit-for-bit, protocol stats included.
  const auto native = core::run(
      test::quick_config(4, 1, core::ProtocolKind::Native),
      test::small_workload("cg"));
  const auto ckpt0 = core::run(ckpt_config(0), test::small_workload("cg"));
  ASSERT_TRUE(test::run_clean(native));
  EXPECT_EQ(ckpt0, native);
}

TEST(Ckpt, BoundariesChargeEveryLiveClock) {
  const auto native = core::run(
      test::quick_config(4, 1, core::ProtocolKind::Native),
      test::small_workload("cg"));
  const auto res = core::run(ckpt_config(100000), test::small_workload("cg"));
  ASSERT_TRUE(test::run_clean(res));
  EXPECT_GE(res.protocol.checkpoints_taken, 3u);
  EXPECT_EQ(res.protocol.restarts, 0u);
  EXPECT_EQ(res.protocol.rework_ns, 0u);
  // Boundaries charge every live clock. A charge to a process blocked on a
  // later message is absorbed into its wait, so the makespan grows by less
  // than count x cost — but the critical path eats at least one charge.
  EXPECT_GE(res.makespan, native.makespan + 5000);
  // Boundaries stop re-arming once the app is done, so the chain can't
  // stretch the run much beyond one extra interval.
  EXPECT_LT(res.makespan, native.makespan + 300000);
}

TEST(Ckpt, FaultChargesRestartPlusRework) {
  // Boundaries fall at 100us and 200us. One fault at 250us rolls back
  // exactly 50us; faults at 120us and 260us roll back 20us + 60us.
  struct Case {
    std::vector<core::FaultSpec> faults;
    std::uint64_t rework_ns;
  };
  const std::vector<Case> cases = {
      {{{.slot = 1, .at_time = 250000, .at_send = -1}}, 50000},
      {{{.slot = 0, .at_time = 120000, .at_send = -1},
        {.slot = 2, .at_time = 260000, .at_send = -1}},
       80000},
  };
  const auto clean = core::run(ckpt_config(100000),
                               test::small_workload("cg"));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    core::RunConfig cfg = ckpt_config(100000);
    cfg.faults = cases[i].faults;
    const auto faulty = core::run(cfg, test::small_workload("cg"));
    ASSERT_TRUE(test::run_clean(faulty))
        << "ckpt faults must not kill anyone (case " << i << ")";
    const std::uint64_t nfaults = cases[i].faults.size();
    EXPECT_EQ(faulty.protocol.restarts, nfaults) << "case " << i;
    EXPECT_EQ(faulty.protocol.failures_observed, nfaults) << "case " << i;
    EXPECT_EQ(faulty.protocol.rework_ns, cases[i].rework_ns) << "case " << i;
    // restart_cost + rework land on every clock; boundary count may differ
    // by the stretch, so only the lower bound is exact.
    EXPECT_GE(faulty.makespan,
              clean.makespan + static_cast<Time>(nfaults) * 20000 +
                  static_cast<Time>(cases[i].rework_ns))
        << "case " << i;
    // All four slots finished (no replicas to fail over to — nobody died).
    for (const auto& s : faulty.slots) EXPECT_EQ(s.final_state, "Finished");
  }
}

TEST(Ckpt, FaultBeyondCompletionIsAbsorbedFree) {
  core::RunConfig cfg = ckpt_config(100000);
  cfg.faults.push_back({.slot = 0, .at_time = timeunits::seconds(1.0),
                        .at_send = -1});
  const auto res = core::run(cfg, test::small_workload("cg"));
  const auto clean = core::run(ckpt_config(100000),
                               test::small_workload("cg"));
  ASSERT_TRUE(test::run_clean(res));
  // The fault is still observed (counters are config-faithful) but lands
  // after every process terminated: no clock moves.
  EXPECT_EQ(res.protocol.restarts, 1u);
  EXPECT_EQ(res.makespan, clean.makespan);
}

TEST(Ckpt, ValidatorRejectsReplicationAndSendPlacedFaults) {
  core::RunConfig replicated = ckpt_config(100000);
  replicated.replication = 2;
  EXPECT_THROW(
      { auto r = core::run(replicated, test::small_workload("cg")); },
      std::invalid_argument);

  // No process dies under the charge-forward model, so a send-count
  // placement has nothing to attach to.
  core::RunConfig send_fault = ckpt_config(100000);
  send_fault.faults.push_back({.slot = 1, .at_time = -1, .at_send = 5});
  EXPECT_THROW(
      { auto r = core::run(send_fault, test::small_workload("cg")); },
      std::invalid_argument);

  // Negative costs would speed a run up; a boundary costing a whole
  // interval or more would never let the app advance.
  std::vector<core::RunConfig> bad_costs(4, ckpt_config(10000));
  bad_costs[0].ckpt.interval = -1;
  bad_costs[1].ckpt.checkpoint_cost = -5000;
  bad_costs[2].ckpt.restart_cost = -1;
  bad_costs[3].ckpt.checkpoint_cost = 10000;
  for (std::size_t i = 0; i < bad_costs.size(); ++i) {
    EXPECT_THROW(
        { auto r = core::run(bad_costs[i], test::small_workload("cg")); },
        std::invalid_argument)
        << "case " << i;
  }
}

}  // namespace
}  // namespace sdrmpi
