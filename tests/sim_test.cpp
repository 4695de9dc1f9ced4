// Unit tests for the discrete-event engine: scheduling order, virtual
// clocks, block/wake, crash unwinding, deadlock and time-limit detection —
// the semantics the fiber rewrite must preserve — plus determinism of
// core::run_many across pool sizes (a run is confined to one host thread,
// so pool parallelism must never leak into outcomes).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sdrmpi/core/batch.hpp"
#include "sdrmpi/sim/engine.hpp"

namespace sdrmpi::sim {
namespace {

TEST(Engine, RunsProcessesToCompletion) {
  Engine e;
  int done = 0;
  e.spawn("a", [&] { ++done; });
  e.spawn("b", [&] { ++done; });
  auto out = e.run();
  EXPECT_TRUE(out.clean());
  EXPECT_EQ(done, 2);
}

TEST(Engine, AdvanceMovesClock) {
  Engine e;
  e.spawn("a", [&] {
    EXPECT_EQ(e.now(), 0);
    e.advance(100);
    EXPECT_EQ(e.now(), 100);
    e.advance_to(50);  // no-op backwards
    EXPECT_EQ(e.now(), 100);
    e.advance_to(250);
    EXPECT_EQ(e.now(), 250);
  });
  auto out = e.run();
  EXPECT_TRUE(out.clean());
  EXPECT_EQ(out.end_time, 250);
}

TEST(Engine, EventsExecuteInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule(300, [&] { order.push_back(3); });
  e.schedule(100, [&] { order.push_back(1); });
  e.schedule(200, [&] { order.push_back(2); });
  auto out = e.run();
  EXPECT_TRUE(out.clean());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, EventTieBreakByInsertion) {
  Engine e;
  std::vector<int> order;
  e.schedule(100, [&] { order.push_back(1); });
  e.schedule(100, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Engine, SmallestClockRunsFirst) {
  Engine e;
  std::vector<char> order;
  e.spawn("slow", [&] {
    e.advance(1000);
    e.yield();
    order.push_back('s');
  });
  e.spawn("fast", [&] {
    e.advance(10);
    e.yield();
    order.push_back('f');
  });
  e.run();
  EXPECT_EQ(order, (std::vector<char>{'f', 's'}));
}

TEST(Engine, EventsInterleaveWithProcesses) {
  Engine e;
  std::vector<int> order;
  e.schedule(50, [&] { order.push_back(-1); });
  e.spawn("p", [&] {
    order.push_back(1);  // clock 0 < 50: process first
    e.advance(100);
    e.yield();  // now the event at 50 must run before we continue
    order.push_back(2);
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, -1, 2}));
}

TEST(Engine, BlockAndWake) {
  Engine e;
  bool resumed = false;
  const int pid = e.spawn("sleeper", [&] {
    e.block("test");
    resumed = true;
    EXPECT_GE(e.now(), 500);
  });
  e.schedule(500, [&, pid] { e.wake(pid, 500); });
  auto out = e.run();
  EXPECT_TRUE(out.clean());
  EXPECT_TRUE(resumed);
}

TEST(Engine, WakeOnRunnableIsNoop) {
  Engine e;
  const int pid = e.spawn("p", [&] { e.advance(10); });
  e.wake(pid, 999);  // not blocked: must not touch the clock
  auto out = e.run();
  EXPECT_TRUE(out.clean());
  EXPECT_EQ(e.process(pid).clock(), 10);
}

TEST(Engine, DeadlockDetected) {
  Engine e;
  e.spawn("a", [&] { e.block("never"); });
  e.spawn("b", [&] { e.block("never"); });
  auto out = e.run();
  EXPECT_TRUE(out.deadlock);
  EXPECT_EQ(out.blocked_pids.size(), 2u);
  EXPECT_EQ(e.process(0).block_reason(), "never");
}

TEST(Engine, NoDeadlockWhenAllFinish) {
  Engine e;
  const int pid = e.spawn("a", [&] { e.block("waiting"); });
  e.spawn("b", [&, pid] {
    e.advance(10);
    e.wake(pid, e.now());
  });
  auto out = e.run();
  EXPECT_FALSE(out.deadlock);
  EXPECT_TRUE(out.clean());
}

TEST(Engine, CrashUnwindsBlockedProcess) {
  Engine e;
  bool after_block = false;
  const int pid = e.spawn("victim", [&] {
    e.block("forever");
    after_block = true;  // must never run
  });
  e.schedule(100, [&, pid] { e.request_crash(pid); });
  auto out = e.run();
  EXPECT_FALSE(out.deadlock);
  EXPECT_FALSE(after_block);
  EXPECT_TRUE(e.crashed(pid));
}

TEST(Engine, CrashAtYieldPoint) {
  Engine e;
  int steps = 0;
  const int pid = e.spawn("victim", [&] {
    for (int i = 0; i < 100; ++i) {
      e.advance(10);
      e.yield();
      ++steps;
    }
  });
  e.schedule(255, [&, pid] { e.request_crash(pid); });
  auto out = e.run();
  EXPECT_TRUE(e.crashed(pid));
  EXPECT_LT(steps, 100);
  EXPECT_FALSE(out.deadlock);
}

TEST(Engine, RaiiRunsDuringCrashUnwind) {
  Engine e;
  bool destroyed = false;
  struct Sentinel {
    bool* flag;
    ~Sentinel() { *flag = true; }
  };
  const int pid = e.spawn("victim", [&] {
    Sentinel s{&destroyed};
    e.block("forever");
  });
  e.schedule(10, [&, pid] { e.request_crash(pid); });
  e.run();
  EXPECT_TRUE(destroyed);
}

TEST(Engine, FailedProcessReported) {
  Engine e;
  e.spawn("thrower", [] { throw std::runtime_error("boom"); });
  auto out = e.run();
  EXPECT_FALSE(out.clean());
  ASSERT_EQ(out.failed_pids.size(), 1u);
  EXPECT_NE(e.process(out.failed_pids[0]).error(), nullptr);
}

TEST(Engine, ThrowingInlineEventUnwindsItsHostProcess) {
  // An event drained inline from maybe_yield()/block() runs on the host
  // process's fiber, so its exception unwinds that process. Process
  // context must be handed back first: a body that catches keeps a valid
  // current(), one that does not fails with the event's error, and the
  // other processes run on. Staggered start clocks keep every other
  // process behind the events, so both are drained inline.
  Engine e;
  int catcher = -1;
  bool catcher_done = false;
  catcher = e.spawn("catcher", [&] {
    e.schedule(50, [] { throw std::runtime_error("inline in maybe_yield"); });
    e.advance(100);
    try {
      e.maybe_yield();
      ADD_FAILURE() << "maybe_yield() did not drain the throwing event";
    } catch (const std::runtime_error& err) {
      EXPECT_STREQ(err.what(), "inline in maybe_yield");
      ASSERT_TRUE(e.in_process_context());
      EXPECT_EQ(&e.current(), &e.process(catcher));
      EXPECT_EQ(e.now(), 100);  // the process clock, not the event's
    }
    e.advance(10);
    catcher_done = true;
  });
  const int dropper = e.spawn(
      "dropper",
      [&] {
        e.schedule(e.now() + 5,
                   [] { throw std::runtime_error("inline in block"); });
        e.block("await throwing event");
        ADD_FAILURE() << "block() returned past a throwing event";
      },
      200);
  bool peer_done = false;
  const int peer = e.spawn(
      "peer",
      [&] {
        e.advance(50);
        peer_done = true;
      },
      1000);

  const auto out = e.run();
  EXPECT_FALSE(out.deadlock);
  EXPECT_EQ(out.failed_pids, std::vector<int>{dropper});
  EXPECT_EQ(e.process(dropper).state(), ProcState::Failed);
  ASSERT_NE(e.process(dropper).error(), nullptr);
  try {
    std::rethrow_exception(e.process(dropper).error());
  } catch (const std::runtime_error& err) {
    EXPECT_STREQ(err.what(), "inline in block");
  }
  EXPECT_TRUE(catcher_done);
  EXPECT_EQ(e.process(catcher).state(), ProcState::Finished);
  EXPECT_EQ(e.process(catcher).clock(), 110);
  EXPECT_TRUE(peer_done);
  EXPECT_EQ(e.process(peer).state(), ProcState::Finished);
  EXPECT_EQ(out.end_time, 1050);
}

TEST(Engine, TimeLimit) {
  Engine e;
  e.set_time_limit(1000);
  e.spawn("runner", [&] {
    for (;;) {
      e.advance(100);
      e.yield();
    }
  });
  auto out = e.run();
  EXPECT_TRUE(out.time_limit_hit);
  EXPECT_FALSE(out.clean());
}

TEST(Engine, SpawnDuringRun) {
  Engine e;
  std::vector<int> order;
  e.spawn("parent", [&] {
    e.advance(100);
    order.push_back(1);
    e.spawn("child", [&] {
      EXPECT_GE(e.now(), 100);  // child starts at spawn time
      order.push_back(2);
    });
    e.advance(10);
    e.yield();
    order.push_back(3);
  });
  auto out = e.run();
  EXPECT_TRUE(out.clean());
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);
  // child (clock 100) runs before parent resumes (clock 110)
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 3);
}

TEST(Engine, MaybeYieldSkipsWhenNothingOlder) {
  Engine e;
  std::uint64_t switches_before = 0;
  e.spawn("lonely", [&] {
    for (int i = 0; i < 1000; ++i) {
      e.advance(1);
      e.maybe_yield();  // no other entity: should not context-switch
    }
  });
  auto out = e.run();
  switches_before = out.context_switches;
  // One switch in, one out.
  EXPECT_LE(switches_before, 2u);
}

TEST(Engine, DeterministicOutcome) {
  auto run_once = [] {
    Engine e;
    std::vector<int> order;
    for (int p = 0; p < 4; ++p) {
      e.spawn("p" + std::to_string(p), [&, p] {
        for (int i = 0; i < 5; ++i) {
          e.advance(10 * (p + 1));
          e.yield();
          order.push_back(p);
        }
      });
    }
    e.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, CurrentOutsideProcessThrows) {
  Engine e;
  EXPECT_THROW((void)e.current(), std::logic_error);
  EXPECT_FALSE(e.in_process_context());
}

TEST(Engine, EventWinsTieAgainstProcess) {
  // Scheduling rule: pending events win ties against runnable processes.
  Engine e;
  std::vector<int> order;
  e.spawn("p", [&] {
    e.advance(100);
    e.yield();
    order.push_back(1);
  });
  e.schedule(100, [&] { order.push_back(-1); });
  auto out = e.run();
  EXPECT_TRUE(out.clean());
  EXPECT_EQ(order, (std::vector<int>{-1, 1}));
}

TEST(Engine, MaybeYieldSwitchesWhenOlderProcessExists) {
  Engine e;
  std::vector<char> order;
  e.spawn("ahead", [&] {
    e.advance(100);
    // "behind" (clock 0) is older: maybe_yield must give it the engine.
    e.maybe_yield();
    order.push_back('a');
  });
  e.spawn("behind", [&] {
    e.advance(10);
    order.push_back('b');
  });
  auto out = e.run();
  EXPECT_TRUE(out.clean());
  EXPECT_EQ(order, (std::vector<char>{'b', 'a'}));
}

TEST(Engine, FiberStacksRecycledAcrossManyProcesses) {
  // Spawn waves of short-lived processes; terminated fibers hand their
  // stacks back to the engine cache, so this neither exhausts memory nor
  // perturbs scheduling.
  Engine e;
  int done = 0;
  e.spawn("spawner", [&] {
    for (int wave = 0; wave < 50; ++wave) {
      for (int i = 0; i < 8; ++i) {
        e.spawn("w", [&] {
          e.advance(1);
          ++done;
        });
      }
      e.advance(10);
      e.yield();
    }
  });
  auto out = e.run();
  EXPECT_TRUE(out.clean());
  EXPECT_EQ(done, 400);
  EXPECT_EQ(e.process_count(), 401u);
}

TEST(Engine, StacksAllocatedLazilyAtFirstDispatch) {
  // Spawning maps nothing: a process pays for a stack only when it is
  // first dispatched. This is what lets a 4k-rank spawn phase cost
  // near-zero address space up front.
  Engine e;
  for (int i = 0; i < 32; ++i) {
    e.spawn("p", [&] { e.advance(1); });
  }
  EXPECT_EQ(e.stack_stats().stacks_created, 0u);
  EXPECT_EQ(e.stack_stats().bytes_mapped, 0u);
  auto out = e.run();
  EXPECT_TRUE(out.clean());
  EXPECT_GT(e.stack_stats().stacks_created, 0u);
}

TEST(Engine, SequentialFibersShareOneStack) {
  // Run-to-completion processes hand their stack back before the next one
  // dispatches, so any number of sequential fibers costs one mapping.
  Engine e;
  for (int i = 0; i < 5; ++i) {
    e.spawn("p", [] {});
  }
  auto out = e.run();
  EXPECT_TRUE(out.clean());
  EXPECT_EQ(e.stack_stats().stacks_created, 1u);
  EXPECT_EQ(e.stack_stats().stacks_recycled, 4u);
  EXPECT_EQ(e.stack_stats().stacks_dropped, 0u);
}

TEST(Engine, InterleavedFibersEachGetTheirOwnStack) {
  // Yielding keeps a fiber live, so interleaved processes genuinely hold
  // concurrent stacks — the mapped high-water tracks peak concurrency,
  // not total process count.
  Engine e;
  for (int i = 0; i < 4; ++i) {
    e.spawn("p", [&] {
      for (int j = 0; j < 3; ++j) {
        e.advance(1);
        e.yield();
      }
    });
  }
  auto out = e.run();
  EXPECT_TRUE(out.clean());
  EXPECT_EQ(e.stack_stats().stacks_created, 4u);
  EXPECT_GT(e.stack_stats().bytes_mapped_peak, 0u);
}

TEST(Engine, StackCacheCapZeroDropsEveryStack) {
  Engine e;
  e.set_stack_cache_cap(0);
  for (int i = 0; i < 5; ++i) {
    e.spawn("p", [] {});
  }
  auto out = e.run();
  EXPECT_TRUE(out.clean());
  EXPECT_EQ(e.stack_stats().stacks_created, 5u);
  EXPECT_EQ(e.stack_stats().stacks_recycled, 0u);
  EXPECT_EQ(e.stack_stats().stacks_dropped, 5u);
  EXPECT_EQ(e.stack_stats().bytes_mapped, 0u);
}

TEST(Engine, FiberStackSizeIsConfigurable) {
  constexpr std::size_t kBytes = std::size_t{1} << 20;
  Engine e;
  e.set_fiber_stack_bytes(kBytes);
  e.spawn("p", [] {});
  auto out = e.run();
  EXPECT_TRUE(out.clean());
  // mapped_bytes = usable bytes + guard page + page rounding; bound the
  // overhead loosely so page-size differences don't break the test.
  EXPECT_GE(e.stack_stats().bytes_mapped_peak, kBytes);
  EXPECT_LE(e.stack_stats().bytes_mapped_peak, kBytes + (std::size_t{64} << 10));
}

TEST(Engine, WatermarkReportsStackDepth) {
  // The watermark fill is read from the environment at engine
  // construction; painted stacks report the deepest frame reached.
  ::setenv("SDRMPI_STACK_WATERMARK", "1", 1);
  {
    Engine e;
    e.spawn("p", [&] { e.advance(1); });
    auto out = e.run();
    EXPECT_TRUE(out.clean());
    EXPECT_GT(e.stack_stats().stack_depth_peak, 0u);
    EXPECT_LT(e.stack_stats().stack_depth_peak, e.fiber_stack_bytes());
  }
  ::unsetenv("SDRMPI_STACK_WATERMARK");
}

TEST(Engine, RunManyDeterministicAcrossPoolSizes) {
  // One simulated run occupies exactly one host thread, so outcomes must be
  // bit-identical whatever the pool size: same end time, event count, and
  // endpoint traffic totals on 1-thread and 8-thread pools.
  std::vector<core::RunConfig> configs;
  for (int n = 2; n <= 5; ++n) {
    core::RunConfig cfg;
    cfg.nranks = n;
    cfg.replication = 2;
    cfg.protocol = core::ProtocolKind::Sdr;
    configs.push_back(cfg);
  }
  auto app = [](mpi::Env& env) {
    double x = env.rank() * 3.0 + 1.0;
    for (int i = 0; i < 4; ++i) {
      x = env.world().allreduce_value(x, mpi::Op::Sum);
    }
    env.report_checksum(static_cast<std::uint64_t>(x));
  };
  auto serial = core::run_many(configs, core::AppFn(app), {.threads = 1});
  auto parallel = core::run_many(configs, core::AppFn(app), {.threads = 8});
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i].clean());
    EXPECT_EQ(serial[i].makespan, parallel[i].makespan);
    EXPECT_EQ(serial[i].events_executed, parallel[i].events_executed);
    EXPECT_EQ(serial[i].context_switches, parallel[i].context_switches);
    EXPECT_EQ(serial[i].app_sends, parallel[i].app_sends);
    EXPECT_EQ(serial[i].data_frames, parallel[i].data_frames);
    EXPECT_EQ(serial[i].ctl_frames, parallel[i].ctl_frames);
    ASSERT_EQ(serial[i].slots.size(), parallel[i].slots.size());
    for (std::size_t s = 0; s < serial[i].slots.size(); ++s) {
      EXPECT_EQ(serial[i].slots[s].checksum, parallel[i].slots[s].checksum);
      EXPECT_EQ(serial[i].slots[s].finish_time,
                parallel[i].slots[s].finish_time);
    }
  }
}

TEST(Engine, EndTimeIsMaxClock) {
  Engine e;
  e.spawn("a", [&] { e.advance(100); });
  e.spawn("b", [&] { e.advance(700); });
  auto out = e.run();
  EXPECT_EQ(out.end_time, 700);
}

}  // namespace
}  // namespace sdrmpi::sim
