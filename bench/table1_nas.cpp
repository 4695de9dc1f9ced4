// Table 1: NAS benchmarks, native vs SDR-MPI dual replication.
//
// Paper (class D, 256 procs, IB-20G):
//   BT 267.24 -> 271.21 s (1.49%)   CG 210.37 -> 220.71 s (4.92%)
//   FT 130.61 -> 134.58 s (3.04%)   MG  35.14 ->  36.04 s (2.56%)
//   SP 418.62 -> 428.70 s (2.41%)
// The claim to reproduce: overhead below 5% on every kernel, with CG (the
// most latency-bound) the worst case.
//
// Problem sizes follow the registry's --class flag (S..D). Classes C and D
// run as symbolic communication skeletons (GB-scale messages as content
// descriptors; see workloads/symbolic.hpp) so the class C/D sweeps are
// host-cheap — `--max-rss-mb=N` turns that into a CI regression gate on
// peak host RSS. `--protocols=all` widens the protocol axis from the
// paper's native/SDR pair to every implemented protocol.
#include <iostream>

#include "bench_support.hpp"

static int bench_main(const sdrmpi::util::Options& opts) {
  using namespace sdrmpi;
  bench::check_options(opts, bench::with_workload_flags(
                                 {"ranks", "protocols", "max-rss-mb"}));
  bench::banner(opts, "NAS kernels, native vs SDR-MPI (r=2)",
                "Table 1 (class D, 256 procs in the paper)");

  const int nranks = static_cast<int>(opts.get_int("ranks", 8));
  const std::string cls = opts.get_string("class", "");
  const bool all_protocols = opts.get_string("protocols", "") == "all";

  struct Row {
    const char* name;
    const char* paper;
  };
  const std::vector<Row> rows = {{"bt", "1.49"}, {"cg", "4.92"},
                                 {"ft", "3.04"}, {"mg", "2.56"},
                                 {"sp", "2.41"}};
  // Whole table as one batch: (kernel × protocol) points on one pool.
  std::vector<bench::Point> points;
  for (const Row& row : rows) {
    util::Options wl_opts = opts;
    if (cls.empty() && std::string(row.name) == "cg") {
      // Calibrated so the mini kernel's compute/communication ratio is in
      // the class-D ballpark (CG is the paper's most latency-bound kernel).
      if (!opts.has("nrows")) wl_opts.set("nrows", "32768");
      if (!opts.has("compute-scale")) wl_opts.set("compute-scale", "8");
    }
    const auto app = wl::make_workload(row.name, wl_opts);
    // Registry-parseable app spec: the five kernels run byte-identical
    // configs, so the kernel name must salt the content address or the
    // sweep service would collapse the whole table onto the first row.
    std::string spec = row.name;
    for (const char* key : {"class", "nrows", "nz", "iters", "compute-scale",
                            "symbolic"}) {
      if (wl_opts.has(key)) {
        spec += std::string(" ") + key + "=" + wl_opts.get_string(key, "");
      }
    }

    core::Sweep sweep;
    sweep.base.nranks = nranks;
    sweep.base.replication = 2;
    // Class C/D skeletons can exceed the default virtual-time failsafe;
    // smaller runs keep it as the runaway guard.
    if (!cls.empty() && (cls == "C" || cls == "c" || cls == "D" ||
                         cls == "d")) {
      sweep.base.time_limit = timeunits::seconds(36000.0);
    }
    if (all_protocols) {
      sweep.protocols = {core::ProtocolKind::Native,
                         core::ProtocolKind::Sdr,
                         core::ProtocolKind::Mirror,
                         core::ProtocolKind::Leader,
                         core::ProtocolKind::RedMpiLeader,
                         core::ProtocolKind::RedMpiSd};
    } else {
      sweep.protocols = {core::ProtocolKind::Native, core::ProtocolKind::Sdr};
    }
    for (core::RunConfig& cfg : sweep.expand()) {
      points.push_back({std::string(row.name) + "/" +
                            core::to_string(cfg.protocol),
                        std::move(cfg), app, spec});
    }
  }
  const auto results = bench::run_points(points, opts);
  const std::size_t per_kernel = points.size() / rows.size();

  if (bench::json_mode(opts)) {
    bench::emit_json(std::cout, "table1_nas", points, results);
  } else {
    util::Table table({"Kernel", "Native (s)", "Replicated (s)",
                       "Overhead (%)", "Paper (%)"});
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const double t_native = results[per_kernel * i].mean_sec;
      const double t_rep = results[per_kernel * i + 1].mean_sec;
      table.add_row({rows[i].name, util::format_double(t_native, 4),
                     util::format_double(t_rep, 4),
                     util::format_double(
                         util::overhead_percent(t_native, t_rep), 2),
                     rows[i].paper});
    }
    table.print(std::cout);
    std::cout << "\npaper claim: SDR-MPI overhead < 5% on all NAS kernels\n";
  }

  // Peak-RSS regression gate for the symbolic class C/D path: a change
  // that silently rematerializes GB-scale payloads blows straight through
  // this bound.
  const long max_rss_mb = static_cast<long>(opts.get_int("max-rss-mb", 0));
  if (max_rss_mb > 0 && !bench::check_max_rss_mb("table1_nas", max_rss_mb)) {
    return 3;
  }
  return 0;
}

int main(int argc, char** argv) {
  return sdrmpi::bench::run_main(argc, argv, bench_main);
}
