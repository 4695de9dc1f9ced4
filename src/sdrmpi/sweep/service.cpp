#include "sdrmpi/sweep/service.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

#include "sdrmpi/core/launcher.hpp"
#include "sdrmpi/sweep/config_key.hpp"
#include "sdrmpi/sweep/remote.hpp"

namespace sdrmpi::sweep {
namespace {

/// Per-run delta of the coordinator's lifetime counters.
RemoteStats since(const RemoteStats& before, const RemoteStats& after) {
  RemoteStats d = after;
  d.workers_registered -= before.workers_registered;
  d.workers_lost -= before.workers_lost;
  d.heartbeats_missed -= before.heartbeats_missed;
  d.chunks_redispatched -= before.chunks_redispatched;
  d.duplicate_results -= before.duplicate_results;
  d.local_fallback_points -= before.local_fallback_points;
  return d;
}

}  // namespace

std::string format_fault_summary(const ServiceStats& s) {
  std::string out = "faults:";
  const RemoteStats& r = s.remote;
  const struct {
    const char* name;
    std::size_t value;
  } counters[] = {
      {"workers_lost", r.workers_lost},
      {"heartbeats_missed", r.heartbeats_missed},
      {"chunks_redispatched", r.chunks_redispatched},
      {"duplicate_results", r.duplicate_results},
      {"local_fallback_points", r.local_fallback_points},
  };
  bool any = false;
  for (const auto& c : counters) {
    if (c.value == 0) continue;
    out += " ";
    out += c.name;
    out += "=";
    out += std::to_string(c.value);
    any = true;
  }
  if (!any) out += " none";
  return out;
}

SweepService::SweepService(ServiceOptions opts) : opts_(std::move(opts)) {
  store_ = opts_.cache_path.empty()
               ? std::make_unique<ResultStore>()
               : std::make_unique<ResultStore>(opts_.cache_path);
  if (!opts_.listen.empty()) {
    // The coordinator outlives individual run() calls so workers can
    // register before the first sweep and keep serving across cold/warm
    // pairs. Its destructor sends Shutdown frames, so workerd processes
    // exit cleanly when the service goes away.
    coordinator_ =
        std::make_unique<RemoteCoordinator>(opts_.listen, opts_.remote);
  }
}

SweepService::~SweepService() = default;

std::string SweepService::remote_address() const {
  return coordinator_ != nullptr ? coordinator_->address() : std::string();
}

std::size_t SweepService::connected_workers() const {
  return coordinator_ != nullptr ? coordinator_->connected_workers() : 0;
}

RemoteStats SweepService::remote_snapshot() const {
  return coordinator_ != nullptr ? coordinator_->stats() : RemoteStats{};
}

std::vector<core::RunResult> SweepService::run(
    const std::vector<core::RunConfig>& configs,
    const core::AppFactory& factory, const StreamFn& stream) {
  const std::size_t n = configs.size();
  stats_ = ServiceStats{};
  stats_.points = n;
  std::vector<core::RunResult> results(n);
  if (n == 0) return results;

  // ---- content addresses + dedupe ------------------------------------------
  std::vector<std::uint64_t> digests(n);
  std::unordered_map<std::uint64_t, std::size_t> first_index;
  first_index.reserve(n);
  std::vector<std::size_t> unique_indices;  // first occurrences, input order
  unique_indices.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // The app-spec participates in the content address: identical configs
    // running different workloads are different experiments and must not
    // dedupe into each other (or collide in the persistent store).
    digests[i] = opts_.spec ? config_key(configs[i], opts_.spec(configs[i], i))
                            : config_key(configs[i]);
    if (first_index.emplace(digests[i], i).second) {
      unique_indices.push_back(i);
    } else {
      ++stats_.duplicates;
    }
  }
  stats_.unique_points = unique_indices.size();

  // ---- cache pass ----------------------------------------------------------
  std::vector<std::size_t> misses;  // input indices needing simulation
  misses.reserve(unique_indices.size());
  for (std::size_t i : unique_indices) {
    if (auto hit = store_->lookup(digests[i])) {
      results[i] = std::move(*hit);
      ++stats_.cache_hits;
      if (stream) {
        stream(PointOutcome{i, digests[i], /*cached=*/true, &results[i]});
      }
    } else {
      misses.push_back(i);
    }
  }

  // ---- build apps (sequential, ascending — the run_many contract) ----------
  std::vector<core::AppFn> apps(misses.size());
  for (std::size_t m = 0; m < misses.size(); ++m) {
    apps[m] = factory(configs[misses[m]], misses[m]);
  }

  // ---- dispatch ------------------------------------------------------------
  std::mutex collect_mutex;  // guards results/stats/store/stream
  std::unordered_map<std::uint64_t, std::size_t> dispatch_counts;
  // One slot per miss, written once by whichever thread finishes it.
  std::vector<std::exception_ptr> errors(misses.size());

  auto collect_result = [&](std::size_t m, core::RunResult&& result) {
    const std::size_t i = misses[m];
    std::lock_guard<std::mutex> lock(collect_mutex);
    store_->put(digests[i], result);
    results[i] = std::move(result);
    ++stats_.dispatched;
    const std::size_t count = ++dispatch_counts[digests[i]];
    stats_.max_dispatches_per_digest =
        std::max(stats_.max_dispatches_per_digest, count);
    if (stream) {
      stream(PointOutcome{i, digests[i], /*cached=*/false, &results[i]});
    }
  };

  // Positions in `misses` that run on the local pool: all of them, or
  // whatever the remote fleet handed back undone.
  std::vector<std::size_t> local(misses.size());
  std::iota(local.begin(), local.end(), std::size_t{0});
  if (!misses.empty() && coordinator_ != nullptr) {
    std::vector<RemotePoint> points(misses.size());
    for (std::size_t m = 0; m < misses.size(); ++m) {
      points[m].cfg = &configs[misses[m]];
      if (opts_.spec) {
        points[m].spec = opts_.spec(configs[misses[m]], misses[m]);
      }
    }
    auto collect_error = [&](PointError&& err) {
      errors[err.id] =
          err.invalid_config
              ? std::make_exception_ptr(std::invalid_argument(err.message))
              : std::make_exception_ptr(std::runtime_error(err.message));
    };
    stats_.remote_workers = coordinator_->connected_workers();
    const RemoteStats before = coordinator_->stats();
    local = coordinator_->run(points, collect_result, collect_error);
    stats_.remote = since(before, coordinator_->stats());
  }
  const auto local_errors =
      core::pool_for_each(local.size(), opts_.workers, [&](std::size_t k) {
        const std::size_t m = local[k];
        collect_result(m, core::run(configs[misses[m]], apps[m]));
      });
  for (std::size_t k = 0; k < local.size(); ++k) {
    if (local_errors[k] != nullptr) errors[local[k]] = local_errors[k];
  }

  // Deterministic error surfacing: misses ascend in input order, so the
  // first recorded error is the lowest failing input index.
  for (std::size_t m = 0; m < misses.size(); ++m) {
    if (errors[m] != nullptr) core::rethrow_with_index(misses[m], errors[m]);
  }

  // ---- resolve duplicates off their first occurrence -----------------------
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t first = first_index.at(digests[i]);
    if (first != i) results[i] = results[first];
  }
  return results;
}

std::vector<core::RunResult> SweepService::run(
    const std::vector<core::RunConfig>& configs, const core::AppFn& app,
    const StreamFn& stream) {
  return run(
      configs, [&app](const core::RunConfig&, std::size_t) { return app; },
      stream);
}

}  // namespace sdrmpi::sweep
