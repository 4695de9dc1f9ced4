// Ablation (paper §3.2/§3.3): where to acknowledge and when to complete.
//
//   ack-on-irecvComplete + gated send  : the paper's design
//   ack-on-irecvComplete + eager copy  : sends complete early, extra copy
//   ack-on-MPI_Wait                    : deadlocks (shown via the detector)
#include <iostream>

#include "bench_support.hpp"

static int bench_main(const sdrmpi::util::Options& opts) {
  using namespace sdrmpi;
  bench::check_options(opts, bench::with_workload_flags({"ranks"}));
  bench::banner(opts, "acknowledgement-placement ablation",
                "paragraphs 3.2-3.3 (ack timing and send completion)");

  const int nranks = static_cast<int>(opts.get_int("ranks", 4));
  util::Options wl_opts = opts;
  wl_opts.set("nrows", "1024");
  wl_opts.set("iters", "15");
  const auto app = wl::make_workload("cg", wl_opts);

  core::RunConfig base;
  base.nranks = nranks;
  base.replication = 2;
  base.protocol = core::ProtocolKind::Sdr;

  core::RunConfig eager = base;
  eager.eager_copy_completion = true;

  // The deadlock variant runs a short exchange; the simulator's deadlock
  // detector stands in for the hang the paper describes.
  auto exchange = [](mpi::Env& env) {
    auto& world = env.world();
    const int peer = env.rank() ^ 1;
    double in = 0.0, out = env.rank();
    auto rreq = world.irecv(std::span<double>(&in, 1), peer, 4);
    world.send(std::span<const double>(&out, 1), peer, 4);
    world.wait(rreq);
    env.report_checksum(1);
  };
  core::RunConfig bad;
  bad.nranks = 2;
  bad.replication = 2;
  bad.protocol = core::ProtocolKind::Sdr;
  bad.ack_on_wait = true;

  const std::vector<bench::Point> points = {
      {"gated send (paper)", base, app},
      {"eager-copy completion", eager, app},
      {"ack-on-MPI_Wait", bad, exchange}};
  // allow_unclean: the third point deadlocks by design.
  const auto results =
      bench::run_points(points, opts, /*allow_unclean=*/true);
  const bool hung = results[2].run.deadlock;

  if (bench::json_mode(opts)) {
    bench::emit_json(std::cout, "ablation_ack", points, results);
  } else {
    util::Table table(
        {"Variant", "Time (s)", "Delta (%)", "Extra copies", "Outcome"});
    table.add_row({"gated send (paper)",
                   util::format_double(results[0].mean_sec, 5), "-", "0",
                   "ok"});
    table.add_row(
        {"eager-copy completion", util::format_double(results[1].mean_sec, 5),
         util::format_double(
             util::overhead_percent(results[0].mean_sec, results[1].mean_sec),
             2),
         std::to_string(results[1].run.protocol.extra_copies), "ok"});
    table.add_row({"ack-on-MPI_Wait", "-", "-", "0",
                   hung ? "DEADLOCK (as predicted)" : "unexpected"});
    table.print(std::cout);
    std::cout << "\npaper: acking at irecvComplete is mandatory — acks must "
                 "flow while processes are blocked inside MPI_Send\n";
  }
  if (!results[0].run.clean() || !results[1].run.clean()) return 2;
  return hung ? 0 : 2;
}

int main(int argc, char** argv) {
  return sdrmpi::bench::run_main(argc, argv, bench_main);
}
