// Figure 3 / Figure 4: failover and recovery timing.
//
// The paper presents these as protocol diagrams ("Evaluating our protocol
// with faults is part of the future work"); this bench quantifies them on
// our substrate: how much a mid-run replica crash (and optionally a
// recovery fork) costs the surviving application.
#include <cstring>
#include <iostream>

#include "bench_support.hpp"

namespace {

using namespace sdrmpi;

struct RecState {
  int iter = 0;
  double value = 0.0;
};

core::AppFn ring_app(int iters) {
  return [iters](mpi::Env& env) {
    auto& world = env.world();
    const int n = world.size();
    const int right = (env.rank() + 1) % n;
    const int left = (env.rank() - 1 + n) % n;
    RecState st{0, static_cast<double>(env.rank())};
    if (env.restart_state().has_value()) {
      std::memcpy(&st, env.restart_state()->data(), sizeof(RecState));
    }
    for (; st.iter < iters; ++st.iter) {
      std::vector<std::byte> snap(sizeof(RecState));
      std::memcpy(snap.data(), &st, sizeof(RecState));
      env.offer_snapshot(std::move(snap));
      env.recovery_point();
      env.compute(2e-6);  // 2 us of work per step
      double incoming = 0.0;
      world.sendrecv(std::span<const double>(&st.value, 1), right, 3,
                     std::span<double>(&incoming, 1), left, 3);
      st.value = 0.5 * (st.value + incoming);
    }
    util::Checksum cs;
    cs.add_double(st.value);
    env.report_checksum(cs.digest());
  };
}

}  // namespace

static int bench_main(const util::Options& opts) {
  bench::check_options(opts, {"ranks", "iters", "crash-send"});
  bench::banner(opts, "failover / recovery cost",
                "Figures 3 and 4 (fault and recovery scenarios)");

  const int nranks = static_cast<int>(opts.get_int("ranks", 4));
  const int iters = static_cast<int>(opts.get_int("iters", 400));
  const int crash_send = static_cast<int>(opts.get_int("crash-send", 100));
  const auto app = ring_app(iters);

  core::RunConfig base;
  base.nranks = nranks;
  base.replication = 2;
  base.protocol = core::ProtocolKind::Sdr;

  // Fault axis: clean vs a mid-run replica crash (same point with and
  // without the recovery fork).
  core::Sweep sweep;
  sweep.base = base;
  sweep.fault_sets = {
      {}, {{.slot = nranks + 1, .at_time = -1, .at_send = crash_send}}};
  auto configs = sweep.expand();
  core::RunConfig recover = configs[1];
  recover.auto_recover = true;
  configs.push_back(recover);

  const std::vector<bench::Point> points = {
      {"fault-free (r=2)", configs[0], app},
      {"crash, degraded (Fig 3)", configs[1], app},
      {"crash + recovery (Fig 4)", configs[2], app}};
  const auto results = bench::run_points(points, opts);

  if (bench::json_mode(opts)) {
    bench::emit_json(std::cout, "fig3_failover", points, results);
  } else {
    const double t_clean = results[0].mean_sec;
    util::Table table({"Scenario", "Time (s)", "vs clean (%)", "Resends",
                       "Recoveries"});
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto& r = results[i];
      table.add_row(
          {points[i].label, util::format_double(r.mean_sec, 6),
           i == 0 ? "-"
                  : util::format_double(
                        util::overhead_percent(t_clean, r.mean_sec), 2),
           std::to_string(r.run.protocol.resends),
           std::to_string(r.run.protocol.recoveries)});
    }
    table.print(std::cout);
    std::cout << "\nafter a crash the substitute emits on the dead replica's "
                 "behalf (Alg. 1); recovery forks a fresh replica at a safe "
                 "point and re-feeds the missed messages (FIFO cut)\n";
  }

  if (results[2].run.protocol.recoveries != 1) {
    std::cerr << "failover bench self-check failed\n";
    return 2;
  }
  return 0;
}

int main(int argc, char** argv) {
  return sdrmpi::bench::run_main(argc, argv, bench_main);
}
