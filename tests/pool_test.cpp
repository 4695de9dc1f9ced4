// Tests for the zero-allocation hot-path layer: BufferPool size classes and
// reuse, Payload refcounting/aliasing and cross-pool isolation, InlineFn
// inline-vs-heap paths, EventQueue ordering + slab recycling, the pinned
// allocations-per-message regression bound, and a warm ping-pong that
// allocates nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "sdrmpi/net/payload.hpp"
#include "sdrmpi/sim/event_queue.hpp"
#include "sdrmpi/sim/inline_fn.hpp"
#include "sdrmpi/util/alloc_counter.hpp"
#include "sdrmpi/util/buffer_pool.hpp"
#include "test_support.hpp"

namespace sdrmpi {
namespace {

// ------------------------------------------------------------- BufferPool

TEST(BufferPool, RoundsUpToPowerOfTwoClasses) {
  util::BufferPool pool;
  std::uint32_t cls = 0;

  void* a = pool.acquire(1, cls);
  EXPECT_EQ(util::BufferPool::capacity(cls), 64u);  // min class
  pool.release(a, cls);

  void* b = pool.acquire(65, cls);
  EXPECT_EQ(util::BufferPool::capacity(cls), 128u);
  pool.release(b, cls);

  void* c = pool.acquire(100000, cls);
  EXPECT_EQ(util::BufferPool::capacity(cls), 131072u);
  pool.release(c, cls);
}

TEST(BufferPool, ReusesReleasedSlabs) {
  util::BufferPool pool;
  std::uint32_t cls = 0;
  void* a = pool.acquire(1000, cls);
  pool.release(a, cls);
  EXPECT_EQ(pool.cached_slabs(), 1u);

  std::uint32_t cls2 = 0;
  void* b = pool.acquire(900, cls2);  // same 1024-byte class
  EXPECT_EQ(cls2, cls);
  EXPECT_EQ(b, a);  // the exact slab came back
  EXPECT_EQ(pool.stats().reuses, 1u);
  EXPECT_EQ(pool.stats().fresh_allocs, 1u);
  pool.release(b, cls2);
}

TEST(BufferPool, OversizeBypassesFreeLists) {
  util::BufferPool pool;
  std::uint32_t cls = 0;
  void* big = pool.acquire(util::BufferPool::kMaxClassBytes + 1, cls);
  EXPECT_EQ(cls, util::BufferPool::kOversize);
  EXPECT_EQ(pool.stats().oversize_allocs, 1u);
  pool.release(big, cls);
  EXPECT_EQ(pool.cached_slabs(), 0u);  // heap-freed, not cached
}

// ---------------------------------------------------------------- Payload

TEST(Payload, CopiesShareOneBufferViaRefcount) {
  util::BufferPool pool;
  const std::vector<std::byte> bytes(100, std::byte{0x42});
  net::Payload a = net::Payload::copy_of(&pool, bytes);
  EXPECT_EQ(a.size(), 100u);
  EXPECT_EQ(a.use_count(), 1u);

  net::Payload b = a;  // aliases, no copy
  EXPECT_EQ(a.use_count(), 2u);
  EXPECT_EQ(b.data(), a.data());
  EXPECT_EQ(b[99], std::byte{0x42});

  b.reset();
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_EQ(pool.cached_slabs(), 0u);  // still held by a
  a.reset();
  EXPECT_EQ(pool.cached_slabs(), 1u);  // slab returned
}

TEST(Payload, MoveTransfersOwnershipWithoutRefcountChange) {
  util::BufferPool pool;
  const std::vector<std::byte> bytes(32, std::byte{7});
  net::Payload a = net::Payload::copy_of(&pool, bytes);
  net::Payload b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.use_count(), 1u);
  EXPECT_EQ(b.size(), 32u);
}

TEST(Payload, SlabReturnsToItsOwnPool) {
  // Cross-Engine isolation: two pools, each gets its own slabs back.
  util::BufferPool pool_a;
  util::BufferPool pool_b;
  const std::vector<std::byte> bytes(500, std::byte{1});
  {
    net::Payload pa = net::Payload::copy_of(&pool_a, bytes);
    net::Payload pb = net::Payload::copy_of(&pool_b, bytes);
    // Handles may be destroyed in any order, long after the fabric that
    // made them; each slab must find its way home.
  }
  EXPECT_EQ(pool_a.cached_slabs(), 1u);
  EXPECT_EQ(pool_b.cached_slabs(), 1u);
  EXPECT_EQ(pool_a.stats().fresh_allocs, 1u);
  EXPECT_EQ(pool_b.stats().fresh_allocs, 1u);
}

TEST(Payload, PoollessHandlesUseTheHeap) {
  const std::vector<std::byte> bytes(64, std::byte{9});
  net::Payload p = net::Payload::copy_of(nullptr, bytes);
  EXPECT_EQ(p.size(), 64u);
  EXPECT_EQ(p[0], std::byte{9});
  // Destruction must not touch any pool (would crash on nullptr).
}

// ---------------------------------------------------------------- InlineFn

TEST(InlineFn, SmallCapturesStayInline) {
  int hits = 0;
  sim::InlineFn fn([&hits] { ++hits; });
  EXPECT_FALSE(fn.heap_allocated());
  fn();
  EXPECT_EQ(hits, 1);
}

TEST(InlineFn, DeliveryClosureFitsInline) {
  // The shape of the closure the fabric schedules per frame: an object
  // pointer, the destination slot, the header by value and the payload
  // handle. This static guarantee is what makes the per-frame schedule
  // allocation-free.
  util::BufferPool pool;
  net::FrameHeader h;
  h.tag = 7;
  net::Payload bulk =
      net::Payload::copy_of(&pool, std::vector<std::byte>(40));
  bool delivered = false;
  void* ctx = &delivered;
  int dst_slot = 1;
  auto closure = [ctx, dst_slot, h, bulk = std::move(bulk)]() mutable {
    *static_cast<bool*>(ctx) =
        dst_slot == 1 && h.tag == 7 && bulk.size() == 40;
  };
  static_assert(sizeof(closure) <= sim::InlineFn::kInlineBytes);
  sim::InlineFn fn(std::move(closure));
  EXPECT_FALSE(fn.heap_allocated());
  fn();
  EXPECT_TRUE(delivered);
}

TEST(InlineFn, LargeCapturesFallBackToHeap) {
  struct Big {
    char blob[sim::InlineFn::kInlineBytes + 1] = {};
  } big;
  big.blob[0] = 1;
  int out = 0;
  sim::InlineFn fn([big, &out] { out = big.blob[0]; });
  EXPECT_TRUE(fn.heap_allocated());
  fn();
  EXPECT_EQ(out, 1);
}

TEST(InlineFn, MovePreservesTheCallable) {
  int hits = 0;
  sim::InlineFn a([&hits] { ++hits; });
  sim::InlineFn b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  b();
  EXPECT_EQ(hits, 1);
  sim::InlineFn c;
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

// -------------------------------------------------------------- EventQueue

TEST(EventQueue, PopsInTimestampThenSequenceOrder) {
  sim::EventQueue q;
  std::vector<std::pair<Time, std::uint64_t>> items;
  std::uint64_t seq = 0;
  std::mt19937 rng(7);
  for (int i = 0; i < 500; ++i) {
    items.emplace_back(static_cast<Time>(rng() % 50), seq++);
  }
  std::vector<std::pair<Time, std::uint64_t>> popped;
  for (auto [t, s] : items) {
    q.push(t, s, [] {});
  }
  std::vector<std::pair<Time, std::uint64_t>> expect = items;
  std::sort(expect.begin(), expect.end());
  while (!q.empty()) {
    const Time t = q.top_time();
    (void)q.pop();
    popped.emplace_back(t, 0);
  }
  ASSERT_EQ(popped.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(popped[i].first, expect[i].first) << "at " << i;
  }
}

TEST(EventQueue, RecyclesSlabSlots) {
  sim::EventQueue q;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 16; ++i) {
      q.push(i, static_cast<std::uint64_t>(round * 16 + i), [] {});
    }
    while (!q.empty()) (void)q.pop()();
  }
  // The slab never outgrew the high-water mark of one round.
  EXPECT_LE(q.slab_capacity(), 16u);
}

TEST(EventQueue, PopReturnsTheMatchingCallback) {
  sim::EventQueue q;
  int fired = -1;
  q.push(20, 0, [&fired] { fired = 20; });
  q.push(10, 1, [&fired] { fired = 10; });
  auto fn = q.pop();
  fn();
  EXPECT_EQ(fired, 10);
}

// -------------------------------------------- allocation regression bounds

TEST(AllocRegression, SteadyStateEngineEventsAllocateNothing) {
  if (!util::alloc_counting_enabled()) {
    GTEST_SKIP() << "allocation counting disabled (sanitizer build)";
  }
  sim::Engine engine;
  struct Step {
    sim::Engine* eng;
    int left;
    void operator()() {
      if (left-- > 0) eng->schedule(eng->now() + 5, *this);
    }
  };
  // Warmup sizes the heap vector and the callback slab.
  engine.schedule(0, Step{&engine, 64});
  (void)engine.run();

  const std::uint64_t before = util::alloc_count();
  engine.schedule(engine.now() + 1, Step{&engine, 512});
  (void)engine.run();
  const std::uint64_t delta = util::alloc_count() - before;
  EXPECT_EQ(delta, 0u) << "schedule/pop cycle allocated on a warm engine";
}

TEST(AllocRegression, WarmFabricSendsStayUnderBound) {
  if (!util::alloc_counting_enabled()) {
    GTEST_SKIP() << "allocation counting disabled (sanitizer build)";
  }
  // One sender process per round; round 1 warms the pools, round 2 is
  // measured. The only allocations allowed in round 2 are the respawned
  // process bookkeeping — nothing per message.
  constexpr int kSends = 200;
  test::FabricHarness h(2);
  auto run_round = [&h] {
    h.engine.spawn("s", [&h] {
      // One staged payload; every send aliases it (refcount bump only).
      const net::Payload msg = h.blob(256);
      for (int i = 0; i < kSends; ++i) h.send(0, 1, msg);
    });
    (void)h.engine.run();
  };
  run_round();
  h.received[1].clear();  // keep the vector capacity, drop the payloads

  const std::uint64_t before = util::alloc_count();
  run_round();
  const std::uint64_t delta = util::alloc_count() - before;
  // Pinned: well under one allocation per message (measured: ~5 total for
  // the spawn + blob staging, independent of kSends).
  EXPECT_LT(delta, kSends / 4u)
      << "warm fabric send path allocates per message";
}

TEST(AllocRegression, PingPongMessagesStayUnderPinnedBound) {
  if (!util::alloc_counting_enabled()) {
    GTEST_SKIP() << "allocation counting disabled (sanitizer build)";
  }
  // Whole-stack bound, cold start included: one native run, small eager
  // messages. The pre-PR baseline sat at ~9 allocations per message; the
  // pooled hot path amortises to well under 2 (pinned with headroom).
  constexpr int kIters = 400;
  core::RunConfig cfg;
  cfg.nranks = 2;
  const std::uint64_t before = util::alloc_count();
  auto res = core::run(cfg, [](mpi::Env& env) {
    auto& world = env.world();
    std::vector<std::byte> buf(256, std::byte{1});
    const int peer = env.rank() ^ 1;
    for (int i = 0; i < kIters; ++i) {
      if (env.rank() == 0) {
        world.send(std::span<const std::byte>(buf), peer, 1);
        world.recv(std::span<std::byte>(buf), peer, 1);
      } else {
        world.recv(std::span<std::byte>(buf), peer, 1);
        world.send(std::span<const std::byte>(buf), peer, 1);
      }
    }
  });
  const std::uint64_t delta = util::alloc_count() - before;
  ASSERT_TRUE(test::run_clean(res));
  EXPECT_EQ(res.app_sends, 2u * kIters);
  const double per_msg =
      static_cast<double>(delta) / static_cast<double>(res.app_sends);
  EXPECT_LT(per_msg, 2.0) << "allocs/message regressed (delta=" << delta
                          << " over " << res.app_sends << " sends)";
}

TEST(AllocRegression, WarmPingPongAllocatesNothing) {
  if (!util::alloc_counting_enabled()) {
    GTEST_SKIP() << "allocation counting disabled (sanitizer build)";
  }
  // Once the pools, queues and inboxes are warm, a message round trip
  // touches no heap at all, natively and under replication. The window is
  // rank 0 of world 0, iterations 100 to 399; every other fiber of the run
  // allocates into the same counter meanwhile.
  constexpr int kIters = 400;
  constexpr int kWarm = 100;
  struct Case {
    core::ProtocolKind protocol;
    int replication;
  };
  for (const Case c : {Case{core::ProtocolKind::Native, 1},
                       Case{core::ProtocolKind::Sdr, 2}}) {
    core::RunConfig cfg;
    cfg.nranks = 2;
    cfg.protocol = c.protocol;
    cfg.replication = c.replication;
    std::uint64_t at_warm = 0;
    std::uint64_t at_end = 0;
    auto res = core::run(cfg, [&](mpi::Env& env) {
      auto& world = env.world();
      const bool measured = env.rank() == 0 && env.replica_world() == 0;
      std::vector<std::byte> buf(256, std::byte{1});
      const int peer = env.rank() ^ 1;
      for (int i = 0; i < kIters; ++i) {
        if (measured && i == kWarm) at_warm = util::alloc_count();
        if (env.rank() == 0) {
          world.send(std::span<const std::byte>(buf), peer, 1);
          world.recv(std::span<std::byte>(buf), peer, 1);
        } else {
          world.recv(std::span<std::byte>(buf), peer, 1);
          world.send(std::span<const std::byte>(buf), peer, 1);
        }
      }
      if (measured) at_end = util::alloc_count();
    });
    ASSERT_TRUE(test::run_clean(res));
    EXPECT_EQ(at_end - at_warm, 0u)
        << "warm ping-pong allocated, replication=" << c.replication;
  }
}

TEST(AllocRegression, WarmCollectiveLoopStaysUnderPinnedBound) {
  if (!util::alloc_counting_enabled()) {
    GTEST_SKIP() << "allocation counting disabled (sanitizer build)";
  }
  // The collective engine's results, joins and accumulators are pool
  // slabs and its fan-out request list lives on the endpoint, so a
  // steady-state collective loop must not touch the heap: payload headers,
  // ropes, combine scratch and request lists all recycle. Whole-run bound
  // per collective call, cold start included (pool warmup, app vectors).
  constexpr int kRounds = 100;
  constexpr int kCollsPerRound = 4;
  core::RunConfig cfg;
  cfg.nranks = 4;
  const std::uint64_t before = util::alloc_count();
  auto res = core::run(cfg, [](mpi::Env& env) {
    auto& w = env.world();
    std::vector<double> vec(64, 1.0 + env.rank());
    std::vector<double> out(64);
    std::vector<double> gathered(static_cast<std::size_t>(64 * w.size()));
    for (int round = 0; round < kRounds; ++round) {
      w.allreduce(std::span<const double>(vec), std::span<double>(out),
                  mpi::Op::Sum);
      w.allgather(std::span<const double>(vec),
                  std::span<double>(gathered));
      w.alltoall(std::span<const double>(
                     gathered.data(), static_cast<std::size_t>(w.size())),
                 std::span<double>(out.data(),
                                   static_cast<std::size_t>(w.size())));
      w.bcast(std::span<double>(vec), round % w.size());
    }
  });
  const std::uint64_t delta = util::alloc_count() - before;
  ASSERT_TRUE(test::run_clean(res));
  constexpr double kCollCalls = 4.0 * kRounds * kCollsPerRound;  // per rank
  const double per_coll = static_cast<double>(delta) / kCollCalls;
  EXPECT_LT(per_coll, 2.0)
      << "allocs per collective call regressed (delta=" << delta << " over "
      << kCollCalls << " collective calls)";
}

}  // namespace
}  // namespace sdrmpi
