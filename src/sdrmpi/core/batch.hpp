// Batch runner: executes N independent simulations across a host thread
// pool. A whole simulated run occupies exactly one host thread (the fiber
// engine never leaves it), so runs parallelise perfectly; results come back
// ordered by input index regardless of completion order, and every run is
// bit-reproducible independent of the pool size — the determinism tests
// assert 1-thread and 8-thread pools produce identical RunResults.
//
// Sweep describes the cross products the paper's figures are made of
// (protocol set × replication set × fault grid over a base config) so
// benches and tests build config vectors declaratively instead of
// hand-rolling nested loops.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <vector>

#include "sdrmpi/core/launcher.hpp"
#include "sdrmpi/core/run_config.hpp"

namespace sdrmpi::core {

struct BatchOptions {
  /// Pool size; 0 means std::thread::hardware_concurrency().
  int threads = 0;
};

/// Builds the app for one run; called sequentially on the submitting thread
/// (index = position in the config vector), so it need not be thread-safe.
/// The returned AppFn itself runs on a pool thread and must not share
/// mutable state with other runs' apps.
using AppFactory = std::function<AppFn(const RunConfig& cfg, std::size_t index)>;

/// The batch pool: calls task(i) for every i in [0, n) on `threads` host
/// threads (0 means std::thread::hardware_concurrency(); clamped to
/// [1, n]), handing out one index per atomic fetch, and inline when one
/// thread is used. Returns one slot per index: what task(i) threw, or
/// null. run_many and the sweep service's local dispatch both run on it.
[[nodiscard]] std::vector<std::exception_ptr> pool_for_each(
    std::size_t n, int threads, const std::function<void(std::size_t)>& task);

/// Runs every config through core::run() on a thread pool and returns the
/// results in input order. The first run-construction error (invalid
/// config) is rethrown after the pool drains; per-process application
/// errors land in RunResult::errors as in core::run().
[[nodiscard]] std::vector<RunResult> run_many(
    const std::vector<RunConfig>& configs, const AppFactory& factory,
    const BatchOptions& opts = {});

/// Same, with one app shared by all runs (must be stateless/reentrant).
[[nodiscard]] std::vector<RunResult> run_many(
    const std::vector<RunConfig>& configs, const AppFn& app,
    const BatchOptions& opts = {});

/// Rethrows `error` tagged with the failing point's input position
/// ("config[17]: ..."), so sweep failures are attributable without
/// bisection. The type is kept for the types run construction throws:
/// std::invalid_argument and other std::logic_errors stay what they are;
/// any other exception becomes std::runtime_error. run_many and the
/// sweep service both surface their lowest failing index through it.
[[noreturn]] void rethrow_with_index(std::size_t index,
                                     const std::exception_ptr& error);

/// A sweep over a base config. Empty axis = keep the base's value. expand()
/// emits the full cross product in axis-major order (protocol, replication,
/// fault set, topology, collective tuning). Native and Ckpt collapse to
/// replication 1 and are emitted for at most one replication value (both
/// are unreplicated baselines). With unique_seeds each point's seed is
/// derived deterministically from (base seed, point index) so workload RNG
/// streams never collide.
struct Sweep {
  RunConfig base;
  std::vector<ProtocolKind> protocols;
  std::vector<int> replications;
  std::vector<std::vector<FaultSpec>> fault_sets;
  std::vector<net::TopologySpec> topologies;    ///< fabric backend axis
  std::vector<mpi::CollTuning> coll_tunings;    ///< collective algorithm axis
  bool unique_seeds = false;

  [[nodiscard]] std::vector<RunConfig> expand() const;
};

}  // namespace sdrmpi::core
