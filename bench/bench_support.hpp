// Shared harness for the paper-reproduction benches.
//
// Benches describe their sweep as a vector of labelled Points (config +
// app), execute the whole sweep through the content-addressed sweep
// service (sweep::SweepService), and report either the human-readable
// table (default) or machine-readable JSON (--json) for the perf
// trajectory (BENCH_*.json).
//
// Harness flags every run_points() bench accepts:
//   --pool=N      in-process worker threads (0 = hardware concurrency)
//   --workers=N   forked process-level workers instead of pool threads
//   --chunks=N    work chunks the sweep is sharded into (0 = auto)
//   --cache=PATH  persistent result store; warm points skip simulation
//   --listen=H:P  accept remote sweep-workerd processes (":0" = ephemeral
//                 port, printed on stderr); misses run on the fleet with
//                 lease-based re-dispatch, locally if the fleet dies
//   --secret-file=PATH  shared secret for the HMAC registration handshake;
//                 only workerds started with the same secret may join
//   --stats       one deterministic fault-counter line on stderr at sweep
//                 end ("faults: none" when clean)
//   --stream      emit one JSON line per completed point on stderr
//   --json        machine-readable document on stdout
// Unknown flags are rejected with the accepted list (check_options).
#pragma once

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <ostream>
#include <string>
#include <unordered_set>
#include <vector>

#include "sdrmpi/sdrmpi.hpp"
#include "sdrmpi/sweep/auth.hpp"
#include "sdrmpi/workloads/registry.hpp"

namespace sdrmpi::bench {

/// One sweep point: a labelled config + the app to run under it. `spec`
/// is the registry app-spec ("cg nrows=768 iters=8") a remote
/// sweep-workerd resolves when the bench runs with --listen; it is also
/// folded into the point's content address, so any bench whose points
/// share a config across DIFFERENT workloads (table1_nas kernels,
/// fig_scale's cg/ft axis) must fill it or the sweep service dedupes
/// those points into one simulation. Single-app benches may leave it
/// empty.
struct Point {
  std::string label;
  core::RunConfig cfg;
  core::AppFn app;
  std::string spec;
};

/// Outcome of one point. Virtual time is deterministic, so one execution
/// is the whole answer; repetition belongs to host timings only.
struct PointResult {
  double mean_sec = 0.0;     ///< virtual makespan (JSON "mean_seconds")
  std::uint64_t digest = 0;  ///< content address of the point's config
  bool cached = false;       ///< served from the result store, no dispatch
  core::RunResult run;       ///< the point's full result
};

/// Warns on stderr when the bench binary was not built in a Release
/// configuration (host-side perf numbers from Debug/RelWithDebInfo builds
/// are not comparable with the committed BENCH_*.json trajectory).
inline void warn_if_not_release() {
#ifdef SDRMPI_CMAKE_BUILD_TYPE
  const std::string build_type = SDRMPI_CMAKE_BUILD_TYPE;
#else
  const std::string build_type = "unknown";
#endif
  if (build_type != "Release") {
    std::cerr << "[bench] WARNING: built as '" << build_type
              << "', not Release — host-perf numbers (sends/sec, events/sec) "
                 "are not comparable with the committed baselines\n";
  }
}

/// Host thread-pool size for the sweep: --pool=N (0 = hardware concurrency).
inline core::BatchOptions pool_options(const util::Options& opts) {
  core::BatchOptions b;
  b.threads = static_cast<int>(opts.get_int("pool", 0));
  return b;
}

/// Sweep-service configuration from the harness flags. --workers=N picks
/// forked process-level workers; plain --pool=N keeps in-process threads.
inline sweep::ServiceOptions service_options(const util::Options& opts) {
  sweep::ServiceOptions s;
  s.workers = static_cast<int>(opts.get_int("pool", 0));
  if (opts.has("workers")) {
    s.workers = static_cast<int>(opts.get_int("workers", 0));
    s.process_workers = true;
  }
  s.chunks = static_cast<int>(opts.get_int("chunks", 0));
  s.cache_path = opts.get_string("cache", "");
  s.listen = opts.get_string("listen", "");
  const std::string secret_file = opts.get_string("secret-file", "");
  if (!secret_file.empty()) s.secret = sweep::auth::load_secret_file(secret_file);
  return s;
}

/// Peak RSS of this process in MB (getrusage high-water mark — covers
/// everything the bench did so far, not one point).
inline long peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
#ifdef __APPLE__
  return ru.ru_maxrss / (1 << 20);  // ru_maxrss is bytes
#else
  return ru.ru_maxrss / 1024;  // ru_maxrss is KB on Linux
#endif
}

/// Peak-RSS regression gate shared by table1_nas and fig_scale: reports
/// the measured peak against the bound on stderr and returns false when
/// it is exceeded (a change that silently rematerializes GB-scale
/// symbolic payloads, or re-densifies per-rank state, blows through it).
inline bool check_max_rss_mb(const std::string& bench_name, long max_rss_mb) {
  const long rss_mb = peak_rss_mb();
  std::cerr << bench_name << ": peak RSS " << rss_mb << " MB (bound "
            << max_rss_mb << " MB)\n";
  if (rss_mb > max_rss_mb) {
    std::cerr << bench_name
              << ": peak RSS exceeds the bound — host-memory regression\n";
    return false;
  }
  return true;
}

/// True when the bench should emit JSON instead of tables (--json).
inline bool json_mode(const util::Options& opts) {
  return opts.get_bool("json", false);
}

/// Validates the bench's flag set: the harness flags above plus the
/// bench's own `extra` keys. A typo'd flag aborts with the accepted list
/// instead of silently running with a default (--pol=8 used to run the
/// sweep on the wrong pool size).
inline void check_options(const util::Options& opts,
                          std::vector<std::string> extra = {},
                          bool service_flags = true) {
  std::vector<std::string> accepted;
  if (service_flags) {
    accepted = {"json", "pool", "workers", "chunks", "cache", "listen",
                "secret-file", "stats", "stream"};
  }
  accepted.insert(accepted.end(), extra.begin(), extra.end());
  try {
    opts.expect(accepted);
  } catch (const std::invalid_argument& e) {
    std::cerr << (opts.program().empty() ? "bench" : opts.program()) << ": "
              << e.what() << "\n";
    std::exit(2);
  }
}

/// Appends the option keys the registered workloads read (registry.cpp)
/// to a bench's own keys. Benches that forward their Options object into
/// wl::make_workload pass their accepted list through this so workload
/// tuning flags (--nrows=..., --class=B, ...) stay usable.
inline std::vector<std::string> with_workload_flags(
    std::vector<std::string> extra) {
  static const char* const kWorkloadKeys[] = {
      "any-source", "class", "compute-scale", "iters", "materialize",
      "nrows",      "nx",    "ny",            "nz",    "reps",
      "seed",       "sizes", "symbolic"};
  for (const char* k : kWorkloadKeys) extra.emplace_back(k);
  return extra;
}

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

inline std::string hex_digest(std::uint64_t digest) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

/// Runs every point once through the sweep service and returns one
/// PointResult per point, in point order: the virtual makespan, the
/// point's config digest, and whether it was served from the result
/// store. Identical digests (Native collapse, deliberate duplicates) are
/// simulated once — sound because runs are bit-deterministic. With
/// --stream, one JSON line per completed unique point goes to stderr as
/// it finishes. Aborts loudly if any run fails, unless `allow_unclean`
/// (ablations that demonstrate deadlocks set it).
inline std::vector<PointResult> run_points(const std::vector<Point>& pts,
                                           const util::Options& opts,
                                           bool allow_unclean = false,
                                           sweep::ServiceStats* stats_out =
                                               nullptr) {
  std::vector<core::RunConfig> configs;
  configs.reserve(pts.size());
  for (const Point& p : pts) configs.push_back(p.cfg);
  auto factory = [&pts](const core::RunConfig&, std::size_t index) {
    return pts[index].app;
  };

  sweep::ServiceOptions sopts = service_options(opts);
  // Always installed (not just for --listen): the spec distinguishes the
  // content addresses of same-config points that run different workloads.
  sopts.spec = [&pts](const core::RunConfig&, std::size_t index) {
    return pts[index].spec;
  };
  sweep::SweepService service(sopts);
  if (service.remote()) {
    std::cerr << "[sweep] coordinator listening on "
              << service.remote_address() << " ("
              << service.connected_workers() << " workers connected)\n";
  }
  const bool stream = opts.get_bool("stream", false);
  std::unordered_set<std::uint64_t> cached_digests;
  auto on_point = [&pts, stream,
                   &cached_digests](const sweep::PointOutcome& out) {
    if (out.cached) cached_digests.insert(out.digest);
    if (!stream) return;
    std::cerr << "{\"event\": \"point\", \"label\": \""
              << json_escape(pts[out.index].label) << "\", \"digest\": \""
              << hex_digest(out.digest) << "\", \"cached\": "
              << (out.cached ? "true" : "false")
              << ", \"virtual_seconds\": " << out.result->seconds()
              << ", \"clean\": " << (out.result->clean() ? "true" : "false")
              << "}\n";
  };
  const auto runs = service.run(configs, factory, on_point);
  if (opts.get_bool("stats", false)) {
    std::cerr << "[sweep] " << sweep::format_fault_summary(service.stats())
              << "\n";
  }
  if (stats_out != nullptr) *stats_out = service.stats();

  std::vector<PointResult> out(pts.size());
  for (std::size_t p = 0; p < pts.size(); ++p) {
    const core::RunResult& res = runs[p];
    if (!res.clean() && !allow_unclean) {
      std::cerr << "bench point '" << pts[p].label << "' failed:"
                << (res.deadlock ? " deadlock" : "")
                << (res.rank_lost ? " rank-lost" : "")
                << (res.time_limit_hit ? " time-limit" : "");
      for (const auto& e : res.errors) std::cerr << " [" << e << "]";
      std::cerr << "\n";
      std::exit(2);
    }
    out[p].mean_sec = res.seconds();
    out[p].digest = sweep::config_key(pts[p].cfg, pts[p].spec);
    out[p].cached = cached_digests.count(out[p].digest) > 0;
    out[p].run = res;
  }
  return out;
}

/// True when a sweep saw any fault-tolerance event. Gates the optional
/// JSON block below: a failure-free run (remote or not) emits byte-for-
/// byte the same document as before the remote backend existed.
inline bool had_fault_events(const sweep::ServiceStats& s) {
  return s.workers_lost > 0 || s.heartbeats_missed > 0 ||
         s.chunks_redispatched > 0 || s.duplicate_results > 0 ||
         s.local_fallback_points > 0;
}

/// Emits one JSON document: bench name + one record per point with the
/// config, mean seconds, and fabric/endpoint/protocol counters. When
/// `stats` is given and recorded fault-tolerance events, a
/// "fault_tolerance" object is appended (absent on failure-free runs so
/// committed baselines never churn).
inline void emit_json(std::ostream& os, const std::string& bench_name,
                      const std::vector<Point>& pts,
                      const std::vector<PointResult>& results,
                      const sweep::ServiceStats* stats = nullptr) {
  os << "{\n  \"bench\": \"" << json_escape(bench_name) << "\",\n"
     << "  \"points\": [\n";
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const Point& p = pts[i];
    const core::RunResult& r = results[i].run;
    os << "    {\"label\": \"" << json_escape(p.label) << "\""
       << ", \"protocol\": \"" << core::to_string(p.cfg.protocol) << "\""
       << ", \"nranks\": " << p.cfg.nranks
       << ", \"replication\": " << p.cfg.replication
       << ", \"faults\": " << p.cfg.faults.size()
       << ", \"seed\": " << p.cfg.seed
       << ", \"topology\": \"" << net::to_string(p.cfg.net.topology.kind)
       << "\""
       << ", \"placement\": \"" << net::to_string(p.cfg.net.topology.placement)
       << "\""
       << ", \"oversubscription\": " << p.cfg.net.topology.oversubscription
       << ", \"mean_seconds\": " << results[i].mean_sec
       << ", \"config_digest\": \"" << hex_digest(results[i].digest) << "\""
       << ", \"clean\": " << (r.clean() ? "true" : "false")
       << ", \"deadlock\": " << (r.deadlock ? "true" : "false")
       << ", \"app_sends\": " << r.app_sends
       << ", \"data_frames\": " << r.data_frames
       << ", \"ctl_frames\": " << r.ctl_frames
       << ", \"unexpected\": " << r.unexpected
       << ", \"duplicates_dropped\": " << r.duplicates_dropped
       << ", \"events_executed\": " << r.events_executed
       << ", \"context_switches\": " << r.context_switches
       << ", \"bytes_copied\": " << r.bytes_copied
       << ", \"bytes_hashed\": " << r.bytes_hashed
       << ", \"acks_sent\": " << r.protocol.acks_sent
       << ", \"resends\": " << r.protocol.resends
       << ", \"decisions_sent\": " << r.protocol.decisions_sent
       << ", \"hashes_sent\": " << r.protocol.hashes_sent
       << ", \"sdc_detected\": " << r.protocol.sdc_detected
       << ", \"recoveries\": " << r.protocol.recoveries
       << ", \"frames_sent\": " << r.fabric.frames_sent
       << ", \"payload_bytes\": " << r.fabric.payload_bytes
       << ", \"intra_node_frames\": " << r.fabric.intra_node_frames
       << ", \"intra_switch_frames\": " << r.fabric.intra_switch_frames
       << ", \"inter_switch_frames\": " << r.fabric.inter_switch_frames
       << ", \"link_stalls\": " << r.fabric.link_stalls
       << ", \"link_stall_ns\": " << r.fabric.link_stall_ns
       << ", \"link_busy_ns\": " << r.fabric.link_busy_ns
       << ", \"mem\": {\"stack_bytes_reserved\": "
       << r.mem.stack_bytes_reserved
       << ", \"stack_bytes_peak\": " << r.mem.stack_bytes_peak
       << ", \"stack_depth_peak\": " << r.mem.stack_depth_peak
       << ", \"endpoint_bytes\": " << r.mem.endpoint_bytes
       << ", \"fabric_bytes\": " << r.mem.fabric_bytes
       << ", \"payload_slab_bytes\": " << r.mem.payload_slab_bytes << "}}"
       << (i + 1 < pts.size() ? "," : "") << "\n";
  }
  os << "  ]";
  if (stats != nullptr && had_fault_events(*stats)) {
    os << ",\n  \"fault_tolerance\": {\"remote_workers\": "
       << stats->remote_workers << ", \"workers_lost\": "
       << stats->workers_lost << ", \"heartbeats_missed\": "
       << stats->heartbeats_missed << ", \"chunks_redispatched\": "
       << stats->chunks_redispatched << ", \"duplicate_results\": "
       << stats->duplicate_results << ", \"local_fallback_points\": "
       << stats->local_fallback_points << "}";
  }
  os << "\n}\n";
}

/// Paper-style header printed by each bench binary (suppressed under
/// --json; the non-Release warning still fires — it goes to stderr and
/// guards the committed BENCH_*.json trajectory).
inline void banner(const util::Options& opts, const std::string& what,
                   const std::string& paper_ref) {
  warn_if_not_release();
  if (json_mode(opts)) return;
  std::cout << "== " << what << " ==\n"
            << "   reproduces: " << paper_ref << "\n"
            << "   (virtual-time simulation calibrated to InfiniBand-20G;\n"
            << "    compare shapes/ratios with the paper, not absolutes)\n\n";
}

}  // namespace sdrmpi::bench
