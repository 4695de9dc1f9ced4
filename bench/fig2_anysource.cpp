// Figure 2: handling an anonymous reception with and without
// send-determinism.
//
// A microbenchmark isolating the wildcard path: rank 0 posts ANY_SOURCE
// receives served by rotating senders. Under the leader-based protocol the
// follower replica must wait for the leader's decision before posting its
// receive (extra latency + unexpected messages); under SDR-MPI each replica
// decides locally.
#include <iostream>

#include "bench_support.hpp"

namespace {

sdrmpi::core::AppFn anysource_app(int rounds) {
  return [rounds](sdrmpi::mpi::Env& env) {
    using namespace sdrmpi;
    auto& world = env.world();
    const int n = world.size();
    double v = 0.0;
    if (env.rank() == 0) {
      double acc = 0.0;
      for (int i = 0; i < rounds; ++i) {
        for (int s = 1; s < n; ++s) {
          acc += world.recv_value<double>(mpi::kAnySource, 11);
        }
      }
      v = acc;
    } else {
      for (int i = 0; i < rounds; ++i) {
        world.send_value(static_cast<double>(env.rank() + i), 0, 11);
      }
    }
    util::Checksum cs;
    cs.add_double(v);
    env.report_checksum(cs.digest());
  };
}

}  // namespace

static int bench_main(const sdrmpi::util::Options& opts) {
  using namespace sdrmpi;
  bench::check_options(opts, {"ranks", "rounds"});
  bench::banner(opts, "ANY_SOURCE microbenchmark: leader vs send-determinism",
                "Figure 2 (anonymous reception handling)");

  const int nranks = static_cast<int>(opts.get_int("ranks", 4));
  const int rounds = static_cast<int>(opts.get_int("rounds", 200));
  const auto app = anysource_app(rounds);

  // Protocol axis over a common base; the sweep collapses native to r=1.
  core::Sweep sweep;
  sweep.base.nranks = nranks;
  sweep.base.replication = 2;
  sweep.protocols = {core::ProtocolKind::Native, core::ProtocolKind::Sdr,
                     core::ProtocolKind::Leader};
  std::vector<bench::Point> points;
  const char* labels[] = {"native", "sdr (local decision)", "leader-based"};
  std::size_t li = 0;
  for (core::RunConfig& cfg : sweep.expand()) {
    points.push_back({labels[li++], std::move(cfg), app});
  }
  const auto results = bench::run_points(points, opts);

  if (bench::json_mode(opts)) {
    bench::emit_json(std::cout, "fig2_anysource", points, results);
    return 0;
  }

  const double t_native = results[0].mean_sec;
  util::Table table({"Protocol", "Time (s)", "Overhead (%)", "Decisions",
                     "Unexpected msgs"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& r = results[i];
    table.add_row(
        {points[i].label, util::format_double(r.mean_sec, 6),
         i == 0 ? "-"
                : util::format_double(
                      util::overhead_percent(t_native, r.mean_sec), 2),
         std::to_string(r.run.protocol.decisions_sent),
         std::to_string(r.run.unexpected)});
  }
  table.print(std::cout);
  std::cout << "\npaper claim: with send-determinism replicas decide "
               "locally — no decision messages, fewer unexpected arrivals, "
               "lower latency\n";
  return 0;
}

int main(int argc, char** argv) {
  return sdrmpi::bench::run_main(argc, argv, bench_main);
}
