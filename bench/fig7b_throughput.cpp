// Figure 7b: NetPipe throughput, Open MPI (native) vs SDR-MPI, r = 2.
#include <iostream>

#include "bench_support.hpp"
#include "sdrmpi/workloads/netpipe.hpp"

static int bench_main(const sdrmpi::util::Options& opts) {
  using namespace sdrmpi;
  bench::check_options(opts, {"reps", "sizes"});
  bench::banner(opts, "NetPipe throughput sweep",
                "Figure 7b (throughput, IB-20G)");

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
    bench::emit_json(std::cout, "fig7b_throughput", points, results);
    return 0;
  }
  const auto& native = results[0].run.slots[0].values;
  const auto& sdr = results[1].run.slots[0].values;

  util::Table table({"Message size (B)", "Open MPI (Mbps)", "SDR-MPI (Mbps)",
                     "Perf. decrease (%)"});
  for (const std::size_t s : np.sizes) {
    const std::string key = "mbps_" + std::to_string(s);
    const double bw_native = native.at(key);
    const double bw_sdr = sdr.at(key);
    table.add_row(
        {std::to_string(s), util::format_double(bw_native, 1),
         util::format_double(bw_sdr, 1),
         util::format_double(util::overhead_percent(bw_sdr, bw_native), 1)});
  }
  table.print(std::cout);
  std::cout << "\npaper: throughput decrease mirrors the latency figure — "
               "noticeable only for small messages, ~0% for large ones\n";
  return 0;
}

int main(int argc, char** argv) {
  return sdrmpi::bench::run_main(argc, argv, bench_main);
}
