// Ablation (paper §2.4): message complexity of the protocol families.
//
//   mirror   : O(q * r^2) application messages, no acks
//   parallel : O(q * r) application messages + (r-1) acks per reception
//
// Measured by running the same workload under each protocol and counting
// physical data frames and control frames.
#include <iostream>

#include "bench_support.hpp"

static int bench_main(const sdrmpi::util::Options& opts) {
  using namespace sdrmpi;
  bench::check_options(opts, bench::with_workload_flags({"ranks"}));
  bench::banner(opts, "message complexity: mirror vs parallel protocols",
                "paragraph 2.4 (O(q*r^2) vs O(q*r))");

  const int nranks = static_cast<int>(opts.get_int("ranks", 4));
  util::Options wl_opts = opts;
  wl_opts.set("nrows", "512");
  wl_opts.set("iters", "10");
  const auto app = wl::make_workload("cg", wl_opts);

  // protocol × replication grid; native collapses to its r=1 baseline.
  core::Sweep sweep;
  sweep.base.nranks = nranks;
  sweep.protocols = {core::ProtocolKind::Native, core::ProtocolKind::Sdr,
                     core::ProtocolKind::Mirror};
  sweep.replications = {2, 3};
  std::vector<bench::Point> points;
  for (core::RunConfig& cfg : sweep.expand()) {
    points.push_back({std::string(core::to_string(cfg.protocol)) + "/r" +
                          std::to_string(cfg.replication),
                      std::move(cfg), app});
  }
  const auto results = bench::run_points(points, opts);

  if (bench::json_mode(opts)) {
    bench::emit_json(std::cout, "ablation_msgcount", points, results);
    return 0;
  }

  const auto q = results[0].run.data_frames;  // native baseline
  util::Table table({"Protocol", "r", "Data frames", "Data/q", "Ctl frames",
                     "Time (s)"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& res = results[i].run;
    table.add_row(
        {core::to_string(points[i].cfg.protocol),
         std::to_string(points[i].cfg.replication),
         std::to_string(res.data_frames),
         util::format_double(static_cast<double>(res.data_frames) /
                                 static_cast<double>(q),
                             2),
         std::to_string(res.ctl_frames),
         util::format_double(results[i].mean_sec, 5)});
  }
  table.print(std::cout);
  std::cout << "\nexpected: sdr data/q = r with (r-1) acks per message; "
               "mirror data/q = r^2 with no acks\n";
  return 0;
}

int main(int argc, char** argv) {
  return sdrmpi::bench::run_main(argc, argv, bench_main);
}
