// Batch-runner tests: result ordering, sweep expansion, error surfacing,
// and determinism under parallelism (identical RunResults whatever the pool
// size — the property every sweep bench and future sharded experiment
// relies on).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <typeindex>
#include <utility>
#include <vector>

#include "test_support.hpp"

namespace sdrmpi {
namespace {

/// Everything a run reports that must be bit-identical across pool sizes.
std::string fingerprint(const core::RunResult& r) {
  std::string fp;
  fp += std::to_string(r.makespan) + "|";
  fp += std::to_string(r.events_executed) + "|";
  fp += std::to_string(r.context_switches) + "|";
  fp += std::to_string(r.app_sends) + "|";
  fp += std::to_string(r.data_frames) + "|";
  fp += std::to_string(r.ctl_frames) + "|";
  fp += std::to_string(r.unexpected) + "|";
  fp += std::to_string(r.duplicates_dropped) + "|";
  fp += std::to_string(r.protocol.acks_sent) + "|";
  fp += std::to_string(r.protocol.resends) + "|";
  fp += std::to_string(r.protocol.recoveries) + "|";
  for (const auto& s : r.slots) {
    fp += s.final_state + ":" + std::to_string(s.finish_time) + ":" +
          std::to_string(s.checksum) + ";";
  }
  return fp;
}

core::AppFn allreduce_app() {
  return [](mpi::Env& env) {
    double x = env.rank() + 1.0;
    x = env.world().allreduce_value(x, mpi::Op::Sum);
    util::Checksum cs;
    cs.add_double(x);
    env.report_checksum(cs.digest());
  };
}

TEST(RunMany, ResultsComeBackInInputOrder) {
  std::vector<core::RunConfig> configs;
  for (int n = 1; n <= 4; ++n) {
    core::RunConfig cfg;
    cfg.nranks = n;
    configs.push_back(cfg);
  }
  auto results = core::run_many(configs, allreduce_app(), {.threads = 4});
  ASSERT_EQ(results.size(), 4u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(test::run_clean(results[i]));
    EXPECT_EQ(results[i].slots.size(), i + 1);  // nranks = index + 1
  }
}

TEST(RunMany, EmptyInputIsFine) {
  auto results = core::run_many({}, allreduce_app());
  EXPECT_TRUE(results.empty());
}

TEST(RunMany, FactoryReceivesIndices) {
  std::vector<core::RunConfig> configs(3, core::RunConfig{});
  std::vector<std::size_t> seen;
  auto factory = [&seen](const core::RunConfig&, std::size_t i) {
    seen.push_back(i);
    return allreduce_app();
  };
  auto results = core::run_many(configs, factory, {.threads = 2});
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(results.size(), 3u);
}

TEST(RunMany, InvalidConfigRethrown) {
  core::RunConfig bad;
  bad.nranks = 0;
  EXPECT_THROW(
      { auto r = core::run_many({bad}, allreduce_app(), {.threads = 2}); },
      std::invalid_argument);
}

TEST(RunMany, ErrorNamesTheFailingPointIndex) {
  // 20 good configs with one bad one at index 17: the rethrown error keeps
  // its type and says which sweep point failed.
  std::vector<core::RunConfig> configs(20, test::quick_config(2, 1, core::ProtocolKind::Native));
  configs[17].nranks = 0;
  try {
    auto r = core::run_many(configs, allreduce_app(), {.threads = 4});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("config[17]: ", 0), 0u)
        << "message was: " << e.what();
  }
}

TEST(RunMany, LowestFailingIndexWins) {
  std::vector<core::RunConfig> configs(8, test::quick_config(2, 1, core::ProtocolKind::Native));
  configs[3].nranks = 0;
  configs[6].nranks = -2;
  try {
    auto r = core::run_many(configs, allreduce_app(), {.threads = 8});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("config[3]: ", 0), 0u)
        << "message was: " << e.what();
  }
}

/// What core::rethrow_with_index(7, ...) turns `original` into: the
/// dynamic type and message of the exception it throws.
template <typename E>
std::pair<std::type_index, std::string> tagged(const E& original) {
  try {
    core::rethrow_with_index(7, std::make_exception_ptr(original));
  } catch (const std::exception& e) {
    return {typeid(e), e.what()};
  }
  return {typeid(void), ""};
}

TEST(RethrowWithIndex, KeepsLogicErrorTypesAndWidensTheRest) {
  // The one "config[i]: " helper behind run_many and the sweep service:
  // invalid_argument and other logic_errors keep their type, any other
  // std::exception becomes runtime_error.
  const auto expect = [](std::type_index type, const char* what) {
    return std::make_pair(type, std::string(what));
  };
  EXPECT_EQ(tagged(std::invalid_argument("nranks must be > 0")),
            expect(typeid(std::invalid_argument),
                   "config[7]: nranks must be > 0"));
  EXPECT_EQ(tagged(std::logic_error("broken invariant")),
            expect(typeid(std::logic_error), "config[7]: broken invariant"));
  EXPECT_EQ(tagged(std::overflow_error("too many events")),
            expect(typeid(std::runtime_error), "config[7]: too many events"));
}

TEST(RunMany, DeterministicAcrossPoolSizes) {
  // A sweep mixing protocols, a wildcard workload, and a crash+recovery
  // point: identical fingerprints on a 1-thread and an 8-thread pool.
  core::Sweep sweep;
  sweep.base = test::quick_config(2, 2, core::ProtocolKind::Sdr);
  sweep.protocols = {core::ProtocolKind::Native, core::ProtocolKind::Sdr,
                     core::ProtocolKind::Leader};
  auto configs = sweep.expand();
  core::RunConfig crash = test::quick_config(2, 2, core::ProtocolKind::Sdr);
  crash.faults.push_back({.slot = 3, .at_time = -1, .at_send = 5});
  crash.auto_recover = true;
  configs.push_back(crash);

  const auto app = test::small_workload("cg");
  auto serial = core::run_many(configs, app, {.threads = 1});
  auto parallel = core::run_many(configs, app, {.threads = 8});
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(test::run_clean(serial[i]));
    EXPECT_EQ(fingerprint(serial[i]), fingerprint(parallel[i]))
        << "config " << i << " diverged between pool sizes";
  }
  // And across repeated parallel executions.
  auto parallel2 = core::run_many(configs, app, {.threads = 8});
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(fingerprint(parallel[i]), fingerprint(parallel2[i]));
  }
}

TEST(Sweep, EmptyAxesYieldBase) {
  core::Sweep sweep;
  sweep.base = test::quick_config(3, 2, core::ProtocolKind::Mirror);
  auto configs = sweep.expand();
  ASSERT_EQ(configs.size(), 1u);
  EXPECT_EQ(configs[0].nranks, 3);
  EXPECT_EQ(configs[0].replication, 2);
  EXPECT_EQ(configs[0].protocol, core::ProtocolKind::Mirror);
}

TEST(Sweep, CrossProductOrderIsAxisMajor) {
  core::Sweep sweep;
  sweep.base = test::quick_config(2, 1, core::ProtocolKind::Sdr);
  sweep.protocols = {core::ProtocolKind::Sdr, core::ProtocolKind::Mirror};
  sweep.replications = {2, 3};
  auto configs = sweep.expand();
  ASSERT_EQ(configs.size(), 4u);
  EXPECT_EQ(configs[0].protocol, core::ProtocolKind::Sdr);
  EXPECT_EQ(configs[0].replication, 2);
  EXPECT_EQ(configs[1].replication, 3);
  EXPECT_EQ(configs[2].protocol, core::ProtocolKind::Mirror);
  EXPECT_EQ(configs[3].replication, 3);
}

TEST(Sweep, NativeCollapsesToSingleUnreplicatedPoint) {
  core::Sweep sweep;
  sweep.base = test::quick_config(2, 2, core::ProtocolKind::Sdr);
  sweep.protocols = {core::ProtocolKind::Native, core::ProtocolKind::Sdr};
  sweep.replications = {2, 3};
  auto configs = sweep.expand();
  ASSERT_EQ(configs.size(), 3u);  // native once + sdr x {2,3}
  EXPECT_EQ(configs[0].protocol, core::ProtocolKind::Native);
  EXPECT_EQ(configs[0].replication, 1);
  EXPECT_EQ(configs[1].protocol, core::ProtocolKind::Sdr);
}

TEST(Sweep, TopologyAndTuningAreInnermostAxes) {
  // Full axis order: protocol > replication > faults > topology > tuning.
  core::Sweep sweep;
  sweep.base = test::quick_config(2, 2, core::ProtocolKind::Sdr);
  sweep.protocols = {core::ProtocolKind::Sdr, core::ProtocolKind::Mirror};
  net::TopologySpec flat;  // defaults: flat network
  net::TopologySpec tree = flat;
  tree.kind = net::TopologyKind::FatTree;
  sweep.topologies = {flat, tree};
  mpi::CollTuning t0;
  mpi::CollTuning t1 = t0;
  t1.allreduce_long_bytes = 1;
  sweep.coll_tunings = {t0, t1};
  auto configs = sweep.expand();
  ASSERT_EQ(configs.size(), 8u);
  // Tuning toggles fastest, then topology, then protocol.
  EXPECT_EQ(configs[0].net.topology, flat);
  EXPECT_EQ(configs[0].coll, t0);
  EXPECT_EQ(configs[1].net.topology, flat);
  EXPECT_EQ(configs[1].coll, t1);
  EXPECT_EQ(configs[2].net.topology, tree);
  EXPECT_EQ(configs[2].coll, t0);
  EXPECT_EQ(configs[3].net.topology, tree);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(configs[i].protocol, core::ProtocolKind::Sdr);
    EXPECT_EQ(configs[4 + i].protocol, core::ProtocolKind::Mirror);
  }
}

TEST(Sweep, FaultGridAxis) {
  core::Sweep sweep;
  sweep.base = test::quick_config(2, 2, core::ProtocolKind::Sdr);
  sweep.fault_sets = {{}, {{.slot = 2, .at_time = -1, .at_send = 3}}};
  auto configs = sweep.expand();
  ASSERT_EQ(configs.size(), 2u);
  EXPECT_TRUE(configs[0].faults.empty());
  ASSERT_EQ(configs[1].faults.size(), 1u);
  EXPECT_EQ(configs[1].faults[0].slot, 2);
}

TEST(Sweep, UniqueSeedsAreDistinctAndDeterministic) {
  core::Sweep sweep;
  sweep.base = test::quick_config(2, 2, core::ProtocolKind::Sdr);
  sweep.protocols = {core::ProtocolKind::Sdr, core::ProtocolKind::Mirror,
                     core::ProtocolKind::Leader};
  sweep.unique_seeds = true;
  auto a = sweep.expand();
  auto b = sweep.expand();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_NE(a[0].seed, a[1].seed);
  EXPECT_NE(a[1].seed, a[2].seed);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].seed, b[i].seed);
  // The derivation is pinned: seed = hash_combine(base.seed, point index).
  // Changing it silently invalidates every content-addressed result store.
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, util::hash_combine(sweep.base.seed, i));
  }
}

TEST(World, ConstructionSeparableFromDrive) {
  // The launcher split: a World can be built, inspected, then driven.
  core::World world(test::quick_config(2, 2, core::ProtocolKind::Sdr),
                    allreduce_app());
  EXPECT_EQ(world.job().topo.nslots(), 4);
  EXPECT_EQ(world.engine().process_count(), 0u);  // nothing spawned yet
  auto outcome = world.drive();
  EXPECT_TRUE(outcome.clean());
  EXPECT_EQ(world.engine().process_count(), 4u);
  auto res = world.collect(outcome);
  EXPECT_TRUE(test::run_clean(res));
  EXPECT_TRUE(res.checksums_consistent());
}

}  // namespace
}  // namespace sdrmpi
