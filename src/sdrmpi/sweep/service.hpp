// Content-addressed sweep service: the scaling layer over core::run_many.
//
// Where run_many is a thread pool over a config vector, the service is an
// experiment manager (in the "MPI Benchmarking Revisited" sense —
// reproducible, repetition-aware experiment handling):
//
//   1. Every RunConfig gets a content address (sweep/config_key.hpp).
//   2. Identical digests are deduplicated before dispatch — Native
//      collapse and repeated base points make duplicates common, and a
//      digest is never simulated twice in one sweep.
//   3. A persistent ResultStore (--cache) serves previously computed
//      results without simulation; interrupted sweeps resume from the
//      records that made it to disk. Sound because runs are
//      bit-deterministic: a cached result equals a fresh one.
//   4. The remaining unique points run on in-process pool threads, one
//      point per atomic fetch as in core::run_many, or on a remote
//      sweep-workerd fleet (remote.hpp) when `listen` is set. Results are
//      bit-identical for every pool size and fleet — the pools-1-vs-8
//      invariant extended to the service. Process isolation for a local
//      sweep means a localhost sweep-workerd fleet: a killed worker's
//      points are re-dispatched, not lost.
//   5. Each point streams to an optional callback as it completes
//      (benches emit BENCH-style JSON lines from it).
//
// Serialization and digesting happen strictly at run boundaries: the
// zero-allocation hot path inside a simulation is untouched.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sdrmpi/core/batch.hpp"
#include "sdrmpi/core/run_config.hpp"
#include "sdrmpi/sweep/remote.hpp"
#include "sdrmpi/sweep/result_store.hpp"

namespace sdrmpi::sweep {

struct ServiceOptions {
  /// In-process pool threads; 0 = std::thread::hardware_concurrency().
  /// They also run the points a remote fleet hands back.
  int workers = 0;
  /// Path of the persistent result store; empty = in-memory dedupe only.
  std::string cache_path{};
  /// Listen endpoint ("host:port"; port 0 = ephemeral) for remote
  /// sweep-workerd processes. Non-empty selects the remote backend:
  /// misses are dispatched to registered workers with lease-based
  /// re-dispatch; once the fleet has been empty for
  /// RemoteTuning::registration_wait_ms, the rest run on the local pool
  /// (remote.hpp).
  std::string listen{};
  /// Failure-detection / re-dispatch tuning and the registration secret
  /// (RemoteTuning::secret) for the remote backend.
  RemoteTuning remote{};
  /// Maps a point to the app-spec string a remote workerd resolves via
  /// the workload registry ("cg nrows=768 iters=8"). The spec is also
  /// folded into each point's content address (config_key overload), so
  /// identical configs under different workloads neither dedupe into each
  /// other nor alias in the result store. Unset => points carry an empty
  /// spec: digests are config-only (sound only if every point runs the
  /// same program) and registry-backed remote workers reject the points —
  /// set this whenever apps differ across points or `listen` is set.
  std::function<std::string(const core::RunConfig&, std::size_t index)> spec{};
};

/// One completed point, streamed as it resolves (from cache or worker).
/// `index` is the first input position of this digest; duplicates of the
/// same digest do not re-stream.
struct PointOutcome {
  std::size_t index = 0;
  std::uint64_t digest = 0;
  bool cached = false;  ///< served from the store, no simulation
  const core::RunResult* result = nullptr;
};

/// Outcome accounting for one run() call.
struct ServiceStats {
  std::size_t points = 0;         ///< input configs
  std::size_t unique_points = 0;  ///< distinct digests
  std::size_t duplicates = 0;     ///< points collapsed onto an earlier digest
  std::size_t cache_hits = 0;     ///< unique digests served from the store
  std::size_t dispatched = 0;     ///< unique digests actually simulated
  /// Highest dispatch count observed for any single digest. The dedupe
  /// contract says this is 1 (or 0 on a fully warm sweep); fig_sweepsvc
  /// --check gates on it.
  std::size_t max_dispatches_per_digest = 0;

  std::size_t remote_workers = 0;  ///< fleet size when dispatch began
  /// Remote-backend fault-tolerance counters accrued during this run (all
  /// zero for the local pool and for failure-free remote sweeps — the
  /// cold/warm JSON emitted by benches must not change shape or content
  /// when nothing went wrong).
  RemoteStats remote;
};

/// Deterministic one-line summary of the nonzero fault counters in
/// `s.remote` ("faults: workers_lost=1 chunks_redispatched=2"), or
/// "faults: none" when the sweep was failure-free. Counter order is fixed
/// so CI can grep a crashed sweep's log without caring which backend ran
/// it; the --stats flag of distributed_sweep and the bench harness print
/// exactly this line on stderr at sweep end.
[[nodiscard]] std::string format_fault_summary(const ServiceStats& s);

class SweepService {
 public:
  using StreamFn = std::function<void(const PointOutcome&)>;

  /// Opens the cache immediately (so open errors surface at construction,
  /// not mid-sweep). The store lives as long as the service: a second
  /// run() against the same service is the warm-cache path even without
  /// persistence.
  explicit SweepService(ServiceOptions opts = {});
  ~SweepService();
  SweepService(const SweepService&) = delete;
  SweepService& operator=(const SweepService&) = delete;

  /// Runs every config, returning results in input order (duplicates of
  /// one digest share the identical result). The factory is invoked
  /// sequentially on the calling thread, in ascending input order, for
  /// exactly the first-occurrence indices that miss the cache — points
  /// served from the store or collapsed by dedupe never build an app.
  /// The first failing point's construction error is rethrown after the
  /// sweep drains through core::rethrow_with_index ("config[i]: ", type
  /// kept); a remote point's error arrives as invalid_argument for an
  /// invalid config and runtime_error otherwise.
  std::vector<core::RunResult> run(const std::vector<core::RunConfig>& configs,
                                   const core::AppFactory& factory,
                                   const StreamFn& stream = {});

  /// Same, with one app shared by all runs (must be stateless/reentrant).
  std::vector<core::RunResult> run(const std::vector<core::RunConfig>& configs,
                                   const core::AppFn& app,
                                   const StreamFn& stream = {});

  /// Accounting for the most recent run() call.
  [[nodiscard]] const ServiceStats& stats() const noexcept { return stats_; }

  /// The backing store (tests inspect size()/loaded()).
  [[nodiscard]] const ResultStore& store() const noexcept { return *store_; }

  /// True when a remote backend is listening (opts.listen non-empty).
  [[nodiscard]] bool remote() const noexcept { return coordinator_ != nullptr; }

  /// Resolved "host:port" workers connect to (ephemeral port filled in).
  /// Only valid when remote().
  [[nodiscard]] std::string remote_address() const;

  /// Currently registered remote workers (0 when !remote()).
  [[nodiscard]] std::size_t connected_workers() const;

  /// Snapshot of the lifetime remote fault-tolerance counters,
  /// accumulated across run() calls (ServiceStats carries the per-run
  /// deltas). Zero-valued when !remote(). A lease-expired worker's late
  /// answer can land after run() returned — tests poll this to observe
  /// the suppression.
  [[nodiscard]] RemoteStats remote_snapshot() const;

 private:
  ServiceOptions opts_;
  ServiceStats stats_;
  std::unique_ptr<ResultStore> store_;
  std::unique_ptr<RemoteCoordinator> coordinator_;
};

}  // namespace sdrmpi::sweep
