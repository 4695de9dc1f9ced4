// Scaling gate: the engine itself at 256 → 4096 simulated ranks.
//
// The paper runs 256 ranks; the protocol-lab conclusions (partial
// replication, failure coverage) only get interesting past that, which
// this simulator can reach solely because per-rank host state is flat:
// lazy fiber stacks, sparse per-peer seq state, deviation-only replica
// maps, and O(1) symbolic payloads. This bench pins all of that with two
// regression gates (--check):
//
//   * peak-RSS-per-slot — host bytes per simulated MPI process across the
//     whole sweep stay under kMaxRssKbPerSlot (measured ~28 KB/slot over
//     the full default grid at 4 threads; the dense-state engine sat at
//     ~4800).
//   * sends/sec floor — host throughput at 4k ranks stays above
//     kMinSendsPerSec (the O(procs)-per-event scheduler scan this repo
//     replaced with a runnable min-heap would fail it by ~50x).
//
// Grid: --ranks {256, 1k, 2k, 4k} x {Native, SDR r=2} on symbolic CG and
// FT skeletons (weak scaling: problem sizes grow with the rank count), on
// IB-20G by default; --net=gige or --net=all adds the slower-network axis
// the old `scaling` bench probed (ack-dominated overhead grows with
// latency-boundedness).
#include <chrono>
#include <iostream>

#include "bench_support.hpp"

namespace {

// Host bytes per simulated MPI process (slot), over the sweep's peak RSS.
// Measured over the full default grid (both apps, up to 4k ranks x r=2)
// on a 4-vCPU host: 218-232 MB peak over 8192 max slots, ~28 KB/slot; one
// 4k world alone (--pool=1) peaks at 87 MB, ~11 KB/slot, flat from 1k ranks.
// The pre-diet engine's ~4800 KB/slot is 18x past the bound.
constexpr long kMaxRssKbPerSlot = 256;

// Host sends/sec floor over the whole sweep (total simulated application
// sends / wall seconds). Calibrated ~10x under a Release build on a
// laptop-class core so slow CI runners pass; the quadratic scheduler scan
// at 4k ranks lands well under it.
constexpr double kMinSendsPerSec = 10'000.0;

}  // namespace

static int bench_main(const sdrmpi::util::Options& opts) {
  using namespace sdrmpi;
  bench::check_options(
      opts, bench::with_workload_flags({"ranks", "net", "check"}));
  bench::banner(opts, "engine scaling: 256 -> 4k simulated ranks",
                "extension (paper fixes 256 ranks, IB-20G)");

  const auto ranks = opts.get_int_list("ranks", {256, 1024, 2048, 4096});

  struct Net {
    const char* name;
    net::NetParams params;
  };
  std::vector<Net> nets;
  const std::string net_flag = opts.get_string("net", "ib-20g");
  if (net_flag == "ib-20g" || net_flag == "all") {
    nets.push_back({"ib-20g", net::NetParams::infiniband_20g()});
  }
  if (net_flag == "gige" || net_flag == "all") {
    nets.push_back({"gige", net::NetParams::gigabit_ethernet()});
  }
  if (nets.empty()) {
    std::cerr << "fig_scale: --net must be ib-20g, gige, or all\n";
    return 2;
  }

  // (network x app x ranks x protocol) grid as one batch. Weak scaling:
  // CG rows and the FT decomposed axis grow with the rank count, so the
  // communication graph (the thing whose per-rank host cost is gated)
  // scales while per-rank work stays fixed.
  const std::vector<std::string> apps = {"cg", "ft"};
  std::vector<bench::Point> points;
  long max_slots = 0;
  for (const Net& net : nets) {
    for (const std::string& app_name : apps) {
      for (const auto r : ranks) {
        util::Options wl_opts = opts;
        wl_opts.set("symbolic", "true");
        if (app_name == "cg") {
          if (!opts.has("nrows")) {
            wl_opts.set("nrows", std::to_string(64 * r));
          }
          if (!opts.has("iters")) wl_opts.set("iters", "4");
        } else {
          // ft: nx and nz must be powers of two divisible by nranks; one
          // x- and one z-plane per rank gives 512 B transpose blocks
          // (nx/np * ny * nz/np complex values, ny = 32).
          for (const char* axis : {"nx", "nz"}) {
            if (!opts.has(axis)) {
              wl_opts.set(axis, std::to_string(std::max<std::int64_t>(64, r)));
            }
          }
          if (!opts.has("iters")) wl_opts.set("iters", "2");
        }
        const auto app = wl::make_workload(app_name, wl_opts);
        // Registry-parseable app spec: salts the content address (CG and
        // FT share byte-identical configs here) and lets remote workers
        // rebuild the exact workload.
        std::string spec = app_name;
        for (const char* key : {"symbolic", "nrows", "nx", "nz", "iters"}) {
          if (wl_opts.has(key)) {
            spec += std::string(" ") + key + "=" + wl_opts.get_string(key, "");
          }
        }

        core::Sweep sweep;
        sweep.base.nranks = static_cast<int>(r);
        sweep.base.net = net.params;
        sweep.base.replication = 2;
        sweep.base.time_limit = timeunits::seconds(36000.0);
        sweep.protocols = {core::ProtocolKind::Native, core::ProtocolKind::Sdr};
        for (core::RunConfig& cfg : sweep.expand()) {
          max_slots = std::max(
              max_slots, static_cast<long>(cfg.nranks) * cfg.replication);
          const bool is_native = cfg.protocol == core::ProtocolKind::Native;
          points.push_back({std::string(net.name) + "/" + app_name + "/" +
                                std::to_string(r) +
                                (is_native ? "/native" : "/sdr"),
                            std::move(cfg), app, spec});
        }
      }
    }
  }

  const auto wall_start = std::chrono::steady_clock::now();
  const auto results = bench::run_points(points, opts);
  const double wall_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  std::uint64_t total_sends = 0;
  for (const auto& res : results) total_sends += res.run.app_sends;
  const double sends_per_sec =
      wall_sec > 0.0 ? static_cast<double>(total_sends) / wall_sec : 0.0;

  if (bench::json_mode(opts)) {
    bench::emit_json(std::cout, "scale", points, results);
  } else {
    util::Table table({"Network", "App", "Ranks", "Native (s)", "SDR r=2 (s)",
                       "Overhead (%)", "B/slot (SDR)"});
    for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
      const bench::Point& pn = points[i];
      const double t_native = results[i].mean_sec;
      const double t_sdr = results[i + 1].mean_sec;
      const core::RunResult& sdr_run = results[i + 1].run;
      // Accounted heap state in bytes: mapped fiber stacks (256 KiB a slot,
      // mostly never touched) would swamp the column and hide its growth.
      const std::uint64_t host_bytes = sdr_run.mem.endpoint_bytes +
                                       sdr_run.mem.fabric_bytes +
                                       sdr_run.mem.payload_slab_bytes;
      const long slots =
          static_cast<long>(pn.cfg.nranks) * 2;  // the SDR twin's slots
      const std::string net_name = pn.label.substr(0, pn.label.find('/'));
      table.add_row(
          {net_name,
           pn.label.substr(net_name.size() + 1,
                           pn.label.find('/', net_name.size() + 1) -
                               net_name.size() - 1),
           std::to_string(pn.cfg.nranks), util::format_double(t_native, 4),
           util::format_double(t_sdr, 4),
           util::format_double(util::overhead_percent(t_native, t_sdr), 2),
           std::to_string(static_cast<long>(host_bytes) / slots)});
    }
    table.print(std::cout);
    std::cout << "\nhost: " << total_sends << " sends in "
              << util::format_double(wall_sec, 2) << " s ("
              << static_cast<long>(sends_per_sec) << " sends/sec), peak RSS "
              << bench::peak_rss_mb() << " MB over " << max_slots
              << " max slots\n";
  }

  if (opts.get_bool("check", false)) {
    bool ok = true;
    // Peak RSS is a process-wide high-water mark over every world alive at
    // once: --pool defaults to hardware concurrency, so that many points
    // overlap (four 4k-rank worlds on a 4-core host). The bound is per slot
    // of the largest point, which holds while per-world memory is flat in
    // the rank count: the overlapping worlds together stay far under it.
    const long bound_mb = max_slots * kMaxRssKbPerSlot / 1024;
    if (!bench::check_max_rss_mb("fig_scale", bound_mb)) ok = false;
    std::cerr << "fig_scale: " << static_cast<long>(sends_per_sec)
              << " sends/sec (floor " << static_cast<long>(kMinSendsPerSec)
              << ")\n";
    if (sends_per_sec < kMinSendsPerSec) {
      std::cerr << "fig_scale: host throughput under the floor — per-event "
                   "scheduling cost regressed\n";
      ok = false;
    }
    if (!ok) return 3;
  }
  return 0;
}

int main(int argc, char** argv) {
  return sdrmpi::bench::run_main(argc, argv, bench_main);
}
