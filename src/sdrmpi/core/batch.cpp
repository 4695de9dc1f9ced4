#include "sdrmpi/core/batch.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "sdrmpi/util/hash.hpp"

namespace sdrmpi::core {

std::vector<std::exception_ptr> pool_for_each(
    std::size_t n, int threads,
    const std::function<void(std::size_t)>& task) {
  std::vector<std::exception_ptr> errors(n);
  if (n == 0) return errors;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  threads = std::clamp(threads, 1, static_cast<int>(n));

  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        task(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };

  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
  }
  return errors;
}

std::vector<RunResult> run_many(const std::vector<RunConfig>& configs,
                                const AppFactory& factory,
                                const BatchOptions& opts) {
  const std::size_t n = configs.size();
  std::vector<RunResult> results(n);
  if (n == 0) return results;

  // Build apps up front on the submitting thread: factories stay simple
  // (no thread-safety contract) and app identity is independent of the
  // pool's execution order.
  std::vector<AppFn> apps(n);
  for (std::size_t i = 0; i < n; ++i) apps[i] = factory(configs[i], i);

  const auto errors = pool_for_each(n, opts.threads, [&](std::size_t i) {
    results[i] = run(configs[i], apps[i]);
  });

  // Deterministic error surfacing: the lowest-index failure wins.
  for (std::size_t i = 0; i < n; ++i) {
    if (errors[i] != nullptr) rethrow_with_index(i, errors[i]);
  }
  return results;
}

std::vector<RunResult> run_many(const std::vector<RunConfig>& configs,
                                const AppFn& app, const BatchOptions& opts) {
  return run_many(
      configs, [&app](const RunConfig&, std::size_t) { return app; }, opts);
}

void rethrow_with_index(std::size_t index, const std::exception_ptr& error) {
  const std::string prefix = "config[" + std::to_string(index) + "]: ";
  try {
    std::rethrow_exception(error);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(prefix + e.what());
  } catch (const std::logic_error& e) {
    throw std::logic_error(prefix + e.what());
  } catch (const std::exception& e) {
    throw std::runtime_error(prefix + e.what());
  }
}

std::vector<RunConfig> Sweep::expand() const {
  const std::vector<ProtocolKind> protos =
      protocols.empty() ? std::vector<ProtocolKind>{base.protocol} : protocols;
  const std::vector<int> reps =
      replications.empty() ? std::vector<int>{base.replication} : replications;
  const std::vector<std::vector<FaultSpec>> faults =
      fault_sets.empty() ? std::vector<std::vector<FaultSpec>>{base.faults}
                         : fault_sets;
  const std::vector<net::TopologySpec> topos =
      topologies.empty() ? std::vector<net::TopologySpec>{base.net.topology}
                         : topologies;
  const std::vector<mpi::CollTuning> tunings =
      coll_tunings.empty() ? std::vector<mpi::CollTuning>{base.coll}
                           : coll_tunings;

  std::vector<RunConfig> out;
  out.reserve(protos.size() * reps.size() * faults.size() * topos.size() *
              tunings.size());
  for (ProtocolKind p : protos) {
    bool emitted_r1 = false;
    for (int r : reps) {
      if (r < 1) continue;
      if (p == ProtocolKind::Native || p == ProtocolKind::Ckpt) {
        r = 1;  // unreplicated baselines
      }
      if (r == 1) {
        if (emitted_r1) continue;
        emitted_r1 = true;
      }
      for (const auto& f : faults) {
        for (const auto& t : topos) {
          for (const auto& ct : tunings) {
            RunConfig cfg = base;
            cfg.protocol = p;
            cfg.replication = r;
            cfg.faults = f;
            cfg.net.topology = t;
            cfg.coll = ct;
            if (unique_seeds) {
              cfg.seed = util::hash_combine(base.seed, out.size());
            }
            out.push_back(std::move(cfg));
          }
        }
      }
    }
  }
  return out;
}

}  // namespace sdrmpi::core
