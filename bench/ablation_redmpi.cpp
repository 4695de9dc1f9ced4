// Ablation (paper §2.4): redMPI's overhead under non-determinism, and the
// paper's suggestion that its send-determinism trick would help redMPI too.
//
// Paper: redMPI overhead <= 6.8% on deterministic apps but up to 29% with
// non-deterministic calls — because of the leader-based wildcard handling.
// We run redMPI-leader vs redMPI-SD on a deterministic kernel (cg) and an
// ANY_SOURCE app (hpccg).
#include <iostream>

#include "bench_support.hpp"

static int bench_main(const sdrmpi::util::Options& opts) {
  using namespace sdrmpi;
  bench::check_options(opts, bench::with_workload_flags({"ranks"}));
  bench::banner(opts, "redMPI wildcard-handling ablation",
                "paragraph 2.4 (redMPI 6.8% deterministic vs 29% with "
                "non-determinism)");

  const int nranks = static_cast<int>(opts.get_int("ranks", 8));
  const std::vector<std::string> names = {"cg", "hpccg"};
  std::vector<bench::Point> points;
  for (const std::string& name : names) {
    const auto app = wl::make_workload(name, opts);
    core::Sweep sweep;
    sweep.base.nranks = nranks;
    sweep.base.replication = 2;
    sweep.protocols = {core::ProtocolKind::Native,
                       core::ProtocolKind::RedMpiLeader,
                       core::ProtocolKind::RedMpiSd};
    for (core::RunConfig& cfg : sweep.expand()) {
      // Both workloads sweep identical configs; the name salts the content
      // address so the service does not dedupe one onto the other.
      points.push_back({name + "/" + core::to_string(cfg.protocol),
                        std::move(cfg), app, name});
    }
  }
  const auto results = bench::run_points(points, opts);

  if (bench::json_mode(opts)) {
    bench::emit_json(std::cout, "ablation_redmpi", points, results);
    return 0;
  }

  util::Table table({"Workload", "Variant", "Time (s)", "Overhead (%)",
                     "Hashes", "Decisions"});
  for (std::size_t w = 0; w < names.size(); ++w) {
    const double t_native = results[3 * w].mean_sec;
    for (std::size_t v = 1; v <= 2; ++v) {
      const auto& r = results[3 * w + v];
      const auto& res = r.run;
      table.add_row(
          {names[w], core::to_string(points[3 * w + v].cfg.protocol),
           util::format_double(r.mean_sec, 4),
           util::format_double(util::overhead_percent(t_native, r.mean_sec),
                               2),
           std::to_string(res.protocol.hashes_sent),
           std::to_string(res.protocol.decisions_sent)});
    }
  }
  table.print(std::cout);
  std::cout << "\nexpected: identical overhead on deterministic apps; on "
               "ANY_SOURCE apps the leader variant pays for decisions while "
               "the send-deterministic variant does not\n";
  return 0;
}

int main(int argc, char** argv) {
  return sdrmpi::bench::run_main(argc, argv, bench_main);
}
