// Substrate microbenchmarks (google-benchmark): costs of the simulator and
// runtime primitives that everything above is built on. These measure HOST
// performance of the simulation itself, not virtual time.
//
// The hot-path counters (events/sec, sends/sec, allocs/msg) mirror the
// standalone bench/hotpath binary, which is what emits the committed
// BENCH_hotpath.json trajectory; the engine context-switch cost is
// measured there only (its ctx_switch point).
#include <benchmark/benchmark.h>

#include "sdrmpi/mpi/seq_map.hpp"
#include "sdrmpi/sdrmpi.hpp"
#include "sdrmpi/util/alloc_counter.hpp"
#include "sdrmpi/util/byte_counter.hpp"

namespace {

using namespace sdrmpi;

void BM_EngineSpawnRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < 4; ++i) {
      engine.spawn("p" + std::to_string(i), [&engine] {
        for (int k = 0; k < 10; ++k) {
          engine.advance(100);
          engine.yield();
        }
      });
    }
    auto out = engine.run();
    benchmark::DoNotOptimize(out.end_time);
  }
}
BENCHMARK(BM_EngineSpawnRun);

void BM_PingPongHostCost(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  std::uint64_t sends = 0;
  std::uint64_t events = 0;
  const std::uint64_t allocs0 = util::alloc_count();
  for (auto _ : state) {
    core::RunConfig cfg;
    cfg.nranks = 2;
    auto res = core::run(cfg, [bytes](mpi::Env& env) {
      auto& world = env.world();
      std::vector<std::byte> buf(bytes, std::byte{1});
      const int peer = env.rank() ^ 1;
      for (int i = 0; i < 10; ++i) {
        if (env.rank() == 0) {
          world.send(std::span<const std::byte>(buf), peer, 1);
          world.recv(std::span<std::byte>(buf), peer, 1);
        } else {
          world.recv(std::span<std::byte>(buf), peer, 1);
          world.send(std::span<const std::byte>(buf), peer, 1);
        }
      }
    });
    sends += res.app_sends;
    events += res.events_executed;
    benchmark::DoNotOptimize(res.makespan);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 20 *
                          static_cast<std::int64_t>(bytes));
  state.counters["sends/s"] = benchmark::Counter(
      static_cast<double>(sends), benchmark::Counter::kIsRate);
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  if (util::alloc_counting_enabled() && sends > 0) {
    state.counters["allocs/msg"] =
        static_cast<double>(util::alloc_count() - allocs0) /
        static_cast<double>(sends);
  }
}
BENCHMARK(BM_PingPongHostCost)->Arg(64)->Arg(65536);

void BM_SdrPingPongHostCost(benchmark::State& state) {
  std::uint64_t sends = 0;
  std::uint64_t events = 0;
  const std::uint64_t allocs0 = util::alloc_count();
  for (auto _ : state) {
    core::RunConfig cfg;
    cfg.nranks = 2;
    cfg.replication = 2;
    cfg.protocol = core::ProtocolKind::Sdr;
    auto res = core::run(cfg, [](mpi::Env& env) {
      auto& world = env.world();
      double v = 1.0;
      const int peer = env.rank() ^ 1;
      for (int i = 0; i < 10; ++i) {
        if (env.rank() == 0) {
          world.send_value(v, peer, 1);
          v = world.recv_value<double>(peer, 1);
        } else {
          v = world.recv_value<double>(peer, 1);
          world.send_value(v, peer, 1);
        }
      }
    });
    sends += res.app_sends;
    events += res.events_executed;
    benchmark::DoNotOptimize(res.makespan);
  }
  state.counters["sends/s"] = benchmark::Counter(
      static_cast<double>(sends), benchmark::Counter::kIsRate);
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  if (util::alloc_counting_enabled() && sends > 0) {
    state.counters["allocs/msg"] =
        static_cast<double>(util::alloc_count() - allocs0) /
        static_cast<double>(sends);
  }
}
BENCHMARK(BM_SdrPingPongHostCost);

// Symbolic large-message ping-pong: the host never touches the payload
// bytes (descriptor sends + sink receives), so host cost is independent of
// the message size — compare bytes-copied/msg against BM_PingPongHostCost.
void BM_SymbolicPingPongHostCost(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  std::uint64_t sends = 0;
  const util::ByteCounters bc0 = util::byte_counters();
  for (auto _ : state) {
    core::RunConfig cfg;
    cfg.nranks = 2;
    auto res = core::run(cfg, [bytes](mpi::Env& env) {
      auto& world = env.world();
      const auto desc = net::ContentDesc::pattern(0x517b01ULL, bytes);
      const int peer = env.rank() ^ 1;
      for (int i = 0; i < 10; ++i) {
        if (env.rank() == 0) {
          world.send_symbolic(desc, peer, 1);
          (void)world.recv_sink(bytes, peer, 1);
        } else {
          (void)world.recv_sink(bytes, peer, 1);
          world.send_symbolic(desc, peer, 1);
        }
      }
    });
    sends += res.app_sends;
    benchmark::DoNotOptimize(res.makespan);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 20 *
                          static_cast<std::int64_t>(bytes));
  state.counters["sends/s"] = benchmark::Counter(
      static_cast<double>(sends), benchmark::Counter::kIsRate);
  if (sends > 0) {
    state.counters["bytes-copied/msg"] =
        static_cast<double>(util::byte_counters().bytes_copied -
                            bc0.bytes_copied) /
        static_cast<double>(sends);
  }
}
BENCHMARK(BM_SymbolicPingPongHostCost)->Arg(1 << 20)->Arg(16 << 20);

// Raw event-queue throughput: self-rescheduling InlineFn chains, no MPI
// machinery — isolates the slab-backed d-ary heap dispatch path.
void BM_EventQueueThroughput(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Engine engine;
    struct Step {
      sim::Engine* eng;
      int left;
      void operator()() {
        if (left-- > 0) eng->schedule(eng->now() + 10, *this);
      }
    };
    for (int c = 0; c < 8; ++c) engine.schedule(c, Step{&engine, 4096});
    auto out = engine.run();
    events += out.events_executed;
    benchmark::DoNotOptimize(out.end_time);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventQueueThroughput);

void BM_Collective(benchmark::State& state) {
  const int nranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    core::RunConfig cfg;
    cfg.nranks = nranks;
    auto res = core::run(cfg, [](mpi::Env& env) {
      std::vector<double> v(64, env.rank());
      env.world().allreduce(std::span<double>(v), mpi::Op::Sum);
    });
    benchmark::DoNotOptimize(res.makespan);
  }
}
BENCHMARK(BM_Collective)->Arg(4)->Arg(16);

// Batch-runner throughput: a 16-run sweep through core::run_many on a pool
// of state.range(0) host threads. On multi-core hosts the speedup over the
// /1 variant is the whole point of the fiber refactor (one run = one
// thread).
void BM_RunManyBatch(benchmark::State& state) {
  core::RunConfig base;
  base.nranks = 2;
  base.replication = 2;
  base.protocol = core::ProtocolKind::Sdr;
  std::vector<core::RunConfig> configs(16, base);
  auto app = [](mpi::Env& env) {
    auto& world = env.world();
    double v = 1.0;
    const int peer = env.rank() ^ 1;
    for (int i = 0; i < 20; ++i) {
      if (env.rank() == 0) {
        world.send_value(v, peer, 1);
        v = world.recv_value<double>(peer, 1);
      } else {
        v = world.recv_value<double>(peer, 1);
        world.send_value(v, peer, 1);
      }
    }
  };
  core::BatchOptions opts;
  opts.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto results = core::run_many(configs, core::AppFn(app), opts);
    benchmark::DoNotOptimize(results.front().makespan);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_RunManyBatch)->Arg(1)->Arg(4)->UseRealTime();

// Fiber-stack acquire/release through the public API: run-to-completion
// processes each take a stack at dispatch and hand it back at exit. Arg is
// the engine's free-list cap — 16 (default) serves every fiber after the
// first from the cache, 0 forces a fresh mmap/munmap pair per fiber, so
// the pair's gap is the recycling win the lazy-stack engine banks on.
void BM_StackAcquireRelease(benchmark::State& state) {
  const auto cap = static_cast<std::size_t>(state.range(0));
  constexpr int kProcs = 256;
  std::uint64_t created = 0;
  for (auto _ : state) {
    sim::Engine engine;
    engine.set_stack_cache_cap(cap);
    for (int i = 0; i < kProcs; ++i) {
      engine.spawn("p", [] {});
    }
    auto out = engine.run();
    created += engine.stack_stats().stacks_created;
    benchmark::DoNotOptimize(out.end_time);
  }
  state.counters["fibers/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kProcs,
      benchmark::Counter::kIsRate);
  state.counters["mmaps/iter"] =
      static_cast<double>(created) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_StackAcquireRelease)->Arg(16)->Arg(0);

// Per-peer sequence state, dense vector vs sparse SeqMap, under the
// workload the sparse layout was built for: 4k possible peers of which a
// rank talks to O(log n). Dense pays O(nranks) memory (and cold cache
// lines); sparse pays a short binary search over ~12 warm entries. The
// bench shows the lookup cost the endpoint diet trades for its 60x
// memory reduction.
void BM_SeqLookupDense(benchmark::State& state) {
  const auto nranks = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> seq(nranks, 0);
  // log2(nranks) neighbours, hypercube-style — the NAS/collective pattern.
  std::vector<int> peers;
  for (std::size_t bit = 1; bit < nranks; bit <<= 1) {
    peers.push_back(static_cast<int>(bit ^ 1));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const int peer = peers[i++ % peers.size()];
    benchmark::DoNotOptimize(seq[static_cast<std::size_t>(peer)]++);
  }
  state.counters["bytes"] = static_cast<double>(seq.size() * sizeof(seq[0]));
}
BENCHMARK(BM_SeqLookupDense)->Arg(4096);

void BM_SeqLookupSparse(benchmark::State& state) {
  const auto nranks = static_cast<std::size_t>(state.range(0));
  mpi::SeqMap seq;
  std::vector<int> peers;
  for (std::size_t bit = 1; bit < nranks; bit <<= 1) {
    peers.push_back(static_cast<int>(bit ^ 1));
  }
  for (const int p : peers) seq.set(p, 1);
  std::size_t i = 0;
  for (auto _ : state) {
    const int peer = peers[i++ % peers.size()];
    benchmark::DoNotOptimize(seq.bump(peer));
  }
  state.counters["bytes"] = static_cast<double>(seq.heap_bytes());
}
BENCHMARK(BM_SeqLookupSparse)->Arg(4096);

void BM_Hashing(benchmark::State& state) {
  std::vector<std::byte> data(static_cast<std::size_t>(state.range(0)),
                              std::byte{42});
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::fnv1a(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Hashing)->Arg(4096)->Arg(1 << 20);

}  // namespace

BENCHMARK_MAIN();
