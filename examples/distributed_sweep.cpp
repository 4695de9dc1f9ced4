// distributed_sweep: determinism-pinned driver for the remote sweep
// backend.
//
// Runs a CG parameter sweep through the sweep service and prints one
// JSON line per point to STDOUT containing only virtual, deterministic
// quantities (config digest, simulated seconds, message counters) —
// never host time. That makes stdout byte-comparable across execution
// backends, which is the contract this example exists to demonstrate:
//
//   ./distributed_sweep > local.json
//   ./distributed_sweep --listen=127.0.0.1:17117 --wait-workers=3 > r.json &
//   sweep-workerd --connect=127.0.0.1:17117 &   # x3, then SIGKILL one
//   cmp local.json r.json                       # byte-identical
//
// Worker count, dispatch order, mid-sweep worker deaths, re-dispatch —
// all invisible on stdout. Host-side accounting (fleet size, workers
// lost, points re-dispatched, duplicates suppressed, local-fallback
// points) goes to STDERR.
//
// Flags: --listen=H:P  --wait-workers=N (gives up after 15 s, kWaitTimeout)
//        --points=N  --ranks=N  --nrows=N  --iters=N
//        --pool=N  --cache=PATH
//        --secret-file=PATH (HMAC registration auth: only workerds started
//                            with the same secret may join the fleet)
//        --stats            (append one deterministic fault-counter line
//                            on stderr: "faults: none" or nonzero counters)
#include <chrono>
#include <cstdio>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "sdrmpi/sdrmpi.hpp"
#include "sdrmpi/sweep/auth.hpp"
#include "sdrmpi/workloads/registry.hpp"

namespace {

constexpr std::chrono::milliseconds kWaitTimeout{15000};  // --wait-workers

std::string hex_digest(std::uint64_t digest) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sdrmpi;
  const util::Options opts(argc, argv);
  // An unknown flag or a malformed value exits 2 with the reason.
  int npoints = 0, nranks = 0, nrows = 0, iters = 0, pool = 0;
  std::size_t want_workers = 0;
  bool stats = false;
  try {
    opts.expect({"listen", "wait-workers", "points", "ranks", "nrows", "iters",
                 "pool", "cache", "secret-file", "stats"});
    npoints = static_cast<int>(opts.get_int("points", 64));
    nranks = static_cast<int>(opts.get_int("ranks", 4));
    nrows = static_cast<int>(opts.get_int("nrows", 768));
    iters = static_cast<int>(opts.get_int("iters", 8));
    pool = static_cast<int>(opts.get_int("pool", 0));
    want_workers = static_cast<std::size_t>(opts.get_int("wait-workers", 0));
    stats = opts.get_bool("stats", false);
  } catch (const std::invalid_argument& e) {
    std::cerr << "distributed_sweep: " << e.what() << "\n";
    return 2;
  }

  util::Options wl_opts;
  wl_opts.set("nrows", std::to_string(nrows));
  wl_opts.set("iters", std::to_string(iters));
  const core::AppFn app = wl::make_workload("cg", wl_opts);
  const std::string spec = "cg nrows=" + std::to_string(nrows) +
                           " iters=" + std::to_string(iters);

  // Seed x protocol grid: every point a distinct digest, SDR and Native
  // interleaved so cheap and expensive simulations alternate.
  std::vector<std::string> labels;
  std::vector<core::RunConfig> configs;
  for (int i = 0; i < npoints; ++i) {
    core::RunConfig cfg;
    cfg.nranks = nranks;
    const bool sdr = (i % 2) != 0;
    cfg.protocol = sdr ? core::ProtocolKind::Sdr : core::ProtocolKind::Native;
    cfg.replication = sdr ? 2 : 1;
    cfg.seed = 4200u + static_cast<std::uint64_t>(i);
    labels.push_back((sdr ? "sdr/seed=" : "native/seed=") +
                     std::to_string(cfg.seed));
    configs.push_back(cfg);
  }

  sweep::ServiceOptions sopts;
  sopts.workers = pool;
  sopts.cache_path = opts.get_string("cache", "");
  sopts.listen = opts.get_string("listen", "");
  const std::string secret_file = opts.get_string("secret-file", "");
  if (!secret_file.empty()) {
    try {
      sopts.remote.secret = sweep::auth::load_secret_file(secret_file);
    } catch (const std::exception& e) {
      std::cerr << "distributed_sweep: " << e.what() << "\n";
      return 2;
    }
  }
  sopts.spec = [&spec](const core::RunConfig&, std::size_t) { return spec; };

  sweep::SweepService service(sopts);
  if (service.remote()) {
    std::cerr << "[distributed_sweep] listening on "
              << service.remote_address() << "\n";
    const auto deadline = std::chrono::steady_clock::now() + kWaitTimeout;
    while (service.connected_workers() < want_workers &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    std::cerr << "[distributed_sweep] " << service.connected_workers()
              << " workers connected\n";
  }

  std::vector<core::RunResult> results;
  try {
    results = service.run(configs, app);
  } catch (const std::exception& e) {
    std::cerr << "distributed_sweep: sweep failed: " << e.what() << "\n";
    return 1;
  }

  // Deterministic report: input order, virtual quantities only, maximum
  // double precision so any bit divergence between backends shows up.
  std::cout << std::setprecision(17);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const core::RunResult& r = results[i];
    std::cout << "{\"label\": \"" << labels[i] << "\""
              << ", \"digest\": \"" << hex_digest(sweep::config_key(configs[i]))
              << "\""
              << ", \"virtual_seconds\": " << r.seconds()
              << ", \"clean\": " << (r.clean() ? "true" : "false")
              << ", \"app_sends\": " << r.app_sends
              << ", \"data_frames\": " << r.data_frames
              << ", \"ctl_frames\": " << r.ctl_frames
              << ", \"events_executed\": " << r.events_executed << "}\n";
  }

  const sweep::ServiceStats& st = service.stats();
  const sweep::RemoteStats& faults = st.remote;
  std::cerr << "[distributed_sweep] points=" << st.points
            << " unique=" << st.unique_points
            << " dispatched=" << st.dispatched
            << " cache_hits=" << st.cache_hits
            << " remote_workers=" << st.remote_workers
            << " workers_lost=" << faults.workers_lost
            << " heartbeats_missed=" << faults.heartbeats_missed
            << " chunks_redispatched=" << faults.chunks_redispatched
            << " duplicate_results=" << faults.duplicate_results
            << " local_fallback_points=" << faults.local_fallback_points
            << "\n";
  if (stats) {
    std::cerr << "[distributed_sweep] " << sweep::format_fault_summary(st)
              << "\n";
  }
  return 0;
}
