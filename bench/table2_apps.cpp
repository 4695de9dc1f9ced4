// Table 2: applications with anonymous (MPI_ANY_SOURCE) receptions.
//
// Paper (256 procs): HPCCG 91.13 -> 91.29 s (~0%), CM1 210.21 -> 216.80 s
// (3.14%). The point: SDR-MPI's overhead does NOT degrade when wildcard
// receives are used, unlike leader-based protocols (rMPI, redMPI). We print
// SDR next to the leader-based protocol on the same workloads to expose the
// gap the paper attributes to send-determinism.
#include <iostream>

#include "bench_support.hpp"

static int bench_main(const sdrmpi::util::Options& opts) {
  using namespace sdrmpi;
  bench::check_options(opts, bench::with_workload_flags({"ranks"}));
  bench::banner(opts, "ANY_SOURCE applications, native vs SDR-MPI (r=2)",
                "Table 2 (HPCCG 128x128x64, CM1 160^3 in the paper)");

  const int nranks = static_cast<int>(opts.get_int("ranks", 8));

  struct Row {
    const char* name;
    const char* paper;
  };
  const std::vector<Row> rows = {{"hpccg", "0.00"}, {"cm1", "3.14"}};
  std::vector<bench::Point> points;
  for (const Row& row : rows) {
    const auto app = wl::make_workload(row.name, opts);
    core::Sweep sweep;
    sweep.base.nranks = nranks;
    sweep.base.replication = 2;
    sweep.protocols = {core::ProtocolKind::Native, core::ProtocolKind::Sdr,
                       core::ProtocolKind::Leader};
    for (core::RunConfig& cfg : sweep.expand()) {
      // The app name salts the content address: both rows sweep identical
      // configs, and without the spec the service would dedupe CM1's
      // points onto HPCCG's results.
      points.push_back({std::string(row.name) + "/" +
                            core::to_string(cfg.protocol),
                        std::move(cfg), app, row.name});
    }
  }
  const auto results = bench::run_points(points, opts);

  if (bench::json_mode(opts)) {
    bench::emit_json(std::cout, "table2_apps", points, results);
    return 0;
  }

  util::Table table({"App", "Native (s)", "SDR-MPI (s)", "SDR ovh (%)",
                     "Leader (s)", "Leader ovh (%)", "Paper SDR (%)"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double t_native = results[3 * i].mean_sec;
    const double t_sdr = results[3 * i + 1].mean_sec;
    const double t_leader = results[3 * i + 2].mean_sec;
    table.add_row(
        {rows[i].name, util::format_double(t_native, 4),
         util::format_double(t_sdr, 4),
         util::format_double(util::overhead_percent(t_native, t_sdr), 2),
         util::format_double(t_leader, 4),
         util::format_double(util::overhead_percent(t_native, t_leader), 2),
         rows[i].paper});
  }
  table.print(std::cout);
  std::cout << "\npaper claim: SDR-MPI performance does not degrade on "
               "anonymous receptions (HPCCG ~0%, CM1 3.14%), unlike "
               "leader-based rMPI/redMPI\n";
  return 0;
}

int main(int argc, char** argv) {
  return sdrmpi::bench::run_main(argc, argv, bench_main);
}
