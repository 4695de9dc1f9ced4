// Figure 7a: NetPipe latency, Open MPI (native) vs SDR-MPI, r = 2.
//
// Paper reference points (InfiniBand 20G): 1-byte latency 1.67 us native,
// 2.37 us SDR-MPI (~42% decrease); the relative overhead falls below ~25%
// past a few hundred bytes and approaches zero for large messages.
#include <iostream>

#include "bench_support.hpp"
#include "sdrmpi/workloads/netpipe.hpp"

static int bench_main(const sdrmpi::util::Options& opts) {
  using namespace sdrmpi;
  bench::check_options(opts, {"reps", "sizes"});
  bench::banner(opts, "NetPipe latency sweep", "Figure 7a (latency, IB-20G)");

  wl::NetpipeParams np;
  np.reps = static_cast<int>(opts.get_int("reps", 10));
  const auto sizes = opts.get_int_list("sizes", {});
  if (!sizes.empty()) {
    np.sizes.clear();
    for (auto s : sizes) np.sizes.push_back(static_cast<std::size_t>(s));
  }

  core::Sweep sweep;
  sweep.base.nranks = 2;
  sweep.base.replication = 2;
  sweep.protocols = {core::ProtocolKind::Native, core::ProtocolKind::Sdr};
  std::vector<bench::Point> points;
  for (core::RunConfig& cfg : sweep.expand()) {
    const bool is_native = cfg.protocol == core::ProtocolKind::Native;
    points.push_back({is_native ? "native" : "sdr", std::move(cfg),
                      wl::make_netpipe(np)});
  }
  const auto results = bench::run_points(points, opts);
  if (bench::json_mode(opts)) {
    bench::emit_json(std::cout, "fig7a_latency", points, results);
    return 0;
  }
  // rank 0, world 0 reports the per-size latencies
  const auto& native = results[0].run.slots[0].values;
  const auto& sdr = results[1].run.slots[0].values;

  util::Table table({"Message size (B)", "Open MPI (us)", "SDR-MPI (us)",
                     "Perf. decrease (%)"});
  for (const std::size_t s : np.sizes) {
    const std::string key = "lat_us_" + std::to_string(s);
    const double lat_native = native.at(key);
    const double lat_sdr = sdr.at(key);
    table.add_row({std::to_string(s), util::format_double(lat_native, 2),
                   util::format_double(lat_sdr, 2),
                   util::format_double(
                       util::overhead_percent(lat_native, lat_sdr), 1)});
  }
  table.print(std::cout);
  std::cout << "\npaper: 1B latency 1.67us native vs 2.37us SDR-MPI; "
               "overhead >25% only below ~100B, ~0% at megabyte sizes\n";
  return 0;
}

int main(int argc, char** argv) {
  return sdrmpi::bench::run_main(argc, argv, bench_main);
}
