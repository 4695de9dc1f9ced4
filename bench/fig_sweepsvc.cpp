// Sweep-service benchmark: the two perf claims of the content-addressed
// sweep layer, on a >=100-point sweep with deliberate duplicates.
//
//   1. Warm cache: re-running the identical sweep against a populated
//      result store is >=20x faster than the cold run (no simulation,
//      only decode), with bit-identical results.
//   2. Dedupe: no digest is ever dispatched twice in one sweep, and a
//      fully warm sweep dispatches nothing.
//
// --check gates both (CI runs it); --json emits the summary document
// committed as BENCH_sweepsvc.json.
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "sdrmpi/util/timer.hpp"

static int bench_main(const sdrmpi::util::Options& opts) {
  using namespace sdrmpi;
  bench::check_options(opts, {"points", "ranks", "check"});
  bench::banner(opts, "content-addressed sweep service: cold vs warm cache",
                "harness extension (dedupe + persistent result store)");

  const int nranks = static_cast<int>(opts.get_int("ranks", 4));
  // `points` counts configs actually submitted; each sweep point is
  // submitted twice, so 60 distinct points -> 120 configs.
  const int npoints =
      std::max(2, static_cast<int>(opts.get_int("points", 120)));
  const int nunique = npoints / 2;
  const bool check = opts.get_bool("check", false);

  // Default to a scratch cache (removed on start so the first run is
  // genuinely cold); --cache=PATH keeps the store for resume experiments.
  util::Options run_opts = opts;
  const bool own_cache = !opts.has("cache");
  std::string cache_path = opts.get_string("cache", "");
  if (own_cache) {
    cache_path = (std::filesystem::temp_directory_path() /
                  "sdrmpi_fig_sweepsvc.cache")
                     .string();
    run_opts.set("cache", cache_path);
  }
  if (own_cache || check) std::filesystem::remove(cache_path);

  // One small CG solve per point; the seed axis makes each point a
  // distinct digest, and submitting it twice makes every digest a
  // duplicate.
  util::Options wl_opts;
  wl_opts.set("nrows", "768");
  wl_opts.set("iters", "8");
  const auto app = wl::make_workload("cg", wl_opts);
  // What a remote sweep-workerd rebuilds for each point under --listen;
  // must describe exactly the app above.
  const std::string spec = "cg nrows=768 iters=8";

  std::vector<bench::Point> points;
  points.reserve(2 * static_cast<std::size_t>(nunique));
  for (int i = 0; i < nunique; ++i) {
    core::RunConfig cfg;
    cfg.nranks = nranks;
    const bool sdr = (i % 2) != 0;
    cfg.protocol = sdr ? core::ProtocolKind::Sdr : core::ProtocolKind::Native;
    cfg.replication = sdr ? 2 : 1;
    cfg.seed = 1000u + static_cast<std::uint64_t>(i);
    bench::Point point{(sdr ? "sdr/seed=" : "native/seed=") +
                           std::to_string(cfg.seed),
                       std::move(cfg), app, spec};
    points.push_back(point);
    points.push_back(std::move(point));
  }

  sweep::ServiceStats cold_stats, warm_stats;
  util::WallTimer timer;
  const auto cold = bench::run_points(points, run_opts,
                                      /*allow_unclean=*/false, &cold_stats);
  const double cold_sec = timer.elapsed_sec();

  timer.reset();
  const auto warm = bench::run_points(points, run_opts,
                                      /*allow_unclean=*/false, &warm_stats);
  const double warm_sec = timer.elapsed_sec();

  bool identical = cold.size() == warm.size();
  for (std::size_t i = 0; identical && i < cold.size(); ++i) {
    identical = cold[i].run == warm[i].run &&
                cold[i].mean_sec == warm[i].mean_sec &&
                cold[i].digest == warm[i].digest;
  }
  const double speedup = warm_sec > 0.0 ? cold_sec / warm_sec : 0.0;

  if (own_cache) std::filesystem::remove(cache_path);

  // Per-phase fault-tolerance suffix: empty on failure-free runs so the
  // committed BENCH_sweepsvc.json never changes shape without a failure.
  auto ft_suffix = [](const sweep::ServiceStats& s) -> std::string {
    if (!bench::had_fault_events(s)) return "";
    const sweep::RemoteStats& r = s.remote;
    return ", \"remote_workers\": " + std::to_string(s.remote_workers) +
           ", \"workers_lost\": " + std::to_string(r.workers_lost) +
           ", \"heartbeats_missed\": " + std::to_string(r.heartbeats_missed) +
           ", \"chunks_redispatched\": " +
           std::to_string(r.chunks_redispatched) +
           ", \"duplicate_results\": " + std::to_string(r.duplicate_results) +
           ", \"local_fallback_points\": " +
           std::to_string(r.local_fallback_points);
  };

  if (bench::json_mode(opts)) {
    std::cout << "{\n  \"bench\": \"fig_sweepsvc\",\n"
              << "  \"points\": " << cold_stats.points << ",\n"
              << "  \"unique_points\": " << cold_stats.unique_points << ",\n"
              << "  \"duplicates\": " << cold_stats.duplicates << ",\n"
              << "  \"cold\": {\"seconds\": " << cold_sec
              << ", \"dispatched\": " << cold_stats.dispatched
              << ", \"cache_hits\": " << cold_stats.cache_hits
              << ", \"max_dispatches_per_digest\": "
              << cold_stats.max_dispatches_per_digest << ft_suffix(cold_stats)
              << "},\n"
              << "  \"warm\": {\"seconds\": " << warm_sec
              << ", \"dispatched\": " << warm_stats.dispatched
              << ", \"cache_hits\": " << warm_stats.cache_hits
              << ", \"max_dispatches_per_digest\": "
              << warm_stats.max_dispatches_per_digest << ft_suffix(warm_stats)
              << "},\n"
              << "  \"warm_speedup\": " << speedup << ",\n"
              << "  \"identical_results\": "
              << (identical ? "true" : "false") << "\n}\n";
  } else {
    util::Table table({"phase", "host seconds", "dispatched", "cache hits"});
    table.add_row({"cold", util::format_double(cold_sec, 4),
                   std::to_string(cold_stats.dispatched),
                   std::to_string(cold_stats.cache_hits)});
    table.add_row({"warm", util::format_double(warm_sec, 4),
                   std::to_string(warm_stats.dispatched),
                   std::to_string(warm_stats.cache_hits)});
    table.print(std::cout);
    std::cout << "\n  " << cold_stats.points << " configs, "
              << cold_stats.unique_points << " unique digests, warm speedup "
              << util::format_double(speedup, 1) << "x, results "
              << (identical ? "bit-identical" : "DIVERGENT") << "\n";
  }

  if (!check) return 0;

  bool ok = true;
  auto gate = [&ok](bool pass, const std::string& what) {
    std::cerr << (pass ? "  PASS  " : "  FAIL  ") << what << "\n";
    ok = ok && pass;
  };
  std::cerr << "sweep-service checks:\n";
  gate(cold_stats.points >= 100,
       "sweep has >= 100 points (" + std::to_string(cold_stats.points) + ")");
  gate(cold_stats.max_dispatches_per_digest <= 1,
       "cold run never dispatches a digest twice (max " +
           std::to_string(cold_stats.max_dispatches_per_digest) + ")");
  gate(cold_stats.dispatched == cold_stats.unique_points &&
           cold_stats.cache_hits == 0,
       "cold run simulates every unique digest exactly once");
  gate(warm_stats.dispatched == 0 &&
           warm_stats.cache_hits == warm_stats.unique_points,
       "warm run is served entirely from the result store");
  gate(identical, "warm results are bit-identical to cold results");
  gate(speedup >= 20.0, "warm run is >= 20x faster than cold (" +
                            util::format_double(speedup, 1) + "x)");
  std::cerr << (ok ? "sweep-service check PASSED\n"
                   : "sweep-service check FAILED\n");
  return ok ? 0 : 1;
}

int main(int argc, char** argv) {
  return sdrmpi::bench::run_main(argc, argv, bench_main);
}
