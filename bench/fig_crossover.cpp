// Replication-beats-checkpointing crossover (the paper's motivating claim,
// §1/§5): as the failure rate grows, a coordinated checkpoint/restart
// machine spends an increasing share of its time re-executing rolled-back
// work, while dual replication's cost stays a flat 2x in resources plus a
// small protocol overhead — so the system-efficiency curves cross.
//
// Grid: failure-rate axis (pre-drawn Poisson schedules, seeded) x two
// machines over the same CG workload:
//   ckpt  — n ranks,  ProtocolKind::Ckpt with a fixed interval;
//           efficiency = T_native0 / T_ckpt
//   sdr   — n ranks replicated r=2 (2n processes);
//           efficiency = T_native0 / (2 * T_sdr)
// where T_native0 is the failure-free native makespan. Each (machine,
// schedule) pair is one ordinary sweep point (bench::run_points), so the
// harness flags (--pool, --cache, --listen, --stats, --stream) apply, and
// schedules that drew no fault dedupe into one simulation per machine.
//
// --check gates the crossover (ckpt wins at rate 0, sdr wins at the top
// rate, the efficiency-difference sign changes exactly once, every run is
// clean); --json emits the document committed as BENCH_crossover.json.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "sdrmpi/util/rng.hpp"

namespace {

/// Pre-drawn Poisson fault schedule: exponential inter-arrival gaps with
/// mean horizon/expected, truncated at the horizon. Slots cycle over the
/// first-replica worlds' distinct ranks so a dual-replicated run never
/// loses both copies of a rank.
std::vector<sdrmpi::core::FaultSpec> draw_schedule(std::uint64_t seed,
                                                   double expected,
                                                   sdrmpi::Time horizon,
                                                   int nranks) {
  std::vector<sdrmpi::core::FaultSpec> out;
  if (expected <= 0.0) return out;
  sdrmpi::util::Rng rng(seed);
  const double mean_gap = static_cast<double>(horizon) / expected;
  double t = 0.0;
  int next_rank = 0;
  while (out.size() < static_cast<std::size_t>(nranks)) {
    // Inverse-CDF exponential draw; uniform() is in [0,1), flip to (0,1].
    t += -mean_gap * std::log(1.0 - rng.uniform());
    if (t >= static_cast<double>(horizon)) break;
    sdrmpi::core::FaultSpec f;
    f.slot = next_rank;  // world 0, rank = slot for the first replica set
    f.at_time = static_cast<sdrmpi::Time>(t);
    out.push_back(f);
    next_rank = (next_rank + 1) % nranks;
  }
  return out;
}

}  // namespace

static int bench_main(const sdrmpi::util::Options& opts) {
  using namespace sdrmpi;
  bench::check_options(opts, {"ranks", "check"});
  bench::banner(opts,
                "checkpoint/restart vs replication: the efficiency crossover",
                "paper SS1/SS5 (replication becomes competitive as the "
                "failure rate grows)");

  const int nranks = static_cast<int>(opts.get_int("ranks", 8));
  const bool check = opts.get_bool("check", false);

  util::Options wl_opts;
  wl_opts.set("nrows", "1024");
  wl_opts.set("iters", "24");
  const auto app = wl::make_workload("cg", wl_opts);
  // What a remote sweep-workerd rebuilds for each point under --listen;
  // must describe exactly the app above.
  const std::string spec = "cg nrows=1024 iters=24";

  // Failure-free native baseline: the work both machines must deliver.
  core::RunConfig native_cfg;
  native_cfg.nranks = nranks;
  native_cfg.protocol = core::ProtocolKind::Native;
  const core::RunResult native0 = core::run(native_cfg, app);
  if (!native0.clean() || native0.makespan <= 0) {
    std::cerr << "fig_crossover: native baseline failed\n";
    return 2;
  }
  const Time t0 = native0.makespan;

  // Cost model scaled to the workload: checkpoint interval T0/2 (a failure
  // rolls back T0/4 of work on average), checkpoint cost 2% of T0, restart
  // 20% of T0 (requeue + reload on a capacity machine). Failures are drawn
  // over a 2*T0 horizon: ones landing beyond a run's actual completion are
  // absorbed for free, which is exactly the low-rate regime's advantage.
  core::RunConfig ckpt_cfg = native_cfg;
  ckpt_cfg.protocol = core::ProtocolKind::Ckpt;
  ckpt_cfg.ckpt.interval = t0 / 2;
  ckpt_cfg.ckpt.checkpoint_cost = t0 / 50;
  ckpt_cfg.ckpt.restart_cost = t0 / 5;

  core::RunConfig sdr_cfg = native_cfg;
  sdr_cfg.protocol = core::ProtocolKind::Sdr;
  sdr_cfg.replication = 2;

  const Time horizon = 2 * t0;
  const std::vector<double> rates = {0.0, 1.0, 2.0, 4.0, 8.0, 16.0};

  // One schedule per rate, shared verbatim by both machines (the Ckpt
  // validator requires at_time-only faults). Points are ckpt/sdr pairs in
  // rate order: point 2i is rate i on ckpt, 2i+1 the same on sdr.
  std::vector<bench::Point> points;
  points.reserve(2 * rates.size());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const auto schedule =
        draw_schedule(0xc105506eULL + i, rates[i], horizon, nranks);
    const std::string rate = util::format_double(rates[i], 1);
    core::RunConfig ckpt = ckpt_cfg;
    ckpt.faults = schedule;
    points.push_back({"ckpt/rate=" + rate, std::move(ckpt), app, spec});
    core::RunConfig sdr = sdr_cfg;
    sdr.faults = schedule;
    points.push_back({"sdr/rate=" + rate, std::move(sdr), app, spec});
  }
  // Unclean runs are reported by the "every run completes clean" gate
  // below instead of aborting the sweep.
  const auto results =
      bench::run_points(points, opts, /*allow_unclean=*/true);

  struct Row {
    double rate = 0.0;
    std::size_t faults = 0;
    double eff_ckpt = 0.0;
    double eff_sdr = 0.0;
    bool clean = false;
  };
  std::vector<Row> rows;
  rows.reserve(rates.size());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const core::RunResult& ckpt = results[2 * i].run;
    const core::RunResult& sdr = results[2 * i + 1].run;
    Row row;
    row.rate = rates[i];
    row.faults = points[2 * i].cfg.faults.size();
    row.eff_ckpt = static_cast<double>(t0) / static_cast<double>(ckpt.makespan);
    // Replication holds 2n processes for the run's duration.
    row.eff_sdr =
        static_cast<double>(t0) / (2.0 * static_cast<double>(sdr.makespan));
    row.clean = ckpt.clean() && sdr.clean();
    rows.push_back(row);
  }

  if (bench::json_mode(opts)) {
    std::cout << "{\n  \"bench\": \"fig_crossover\",\n"
              << "  \"nranks\": " << nranks << ",\n"
              << "  \"native_seconds\": " << native0.seconds() << ",\n"
              << "  \"ckpt_interval_seconds\": "
              << timeunits::to_sec(ckpt_cfg.ckpt.interval) << ",\n"
              << "  \"points\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      const core::RunResult& ckpt = results[2 * i].run;
      const core::RunResult& sdr = results[2 * i + 1].run;
      std::cout << "    {\"expected_failures\": " << r.rate
                << ", \"drawn_faults\": " << r.faults
                << ", \"ckpt_seconds\": " << ckpt.seconds()
                << ", \"sdr_seconds\": " << sdr.seconds()
                << ", \"checkpoints_taken\": "
                << ckpt.protocol.checkpoints_taken
                << ", \"restarts\": " << ckpt.protocol.restarts
                << ", \"rework_ns\": " << ckpt.protocol.rework_ns
                << ", \"efficiency_ckpt\": " << r.eff_ckpt
                << ", \"efficiency_sdr\": " << r.eff_sdr
                << ", \"clean\": " << (r.clean ? "true" : "false") << "}"
                << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    std::cout << "  ]\n}\n";
  } else {
    util::Table table({"E[failures]", "faults drawn", "eff(ckpt, n nodes)",
                       "eff(sdr r=2, 2n nodes)", "winner"});
    for (const Row& r : rows) {
      table.add_row({util::format_double(r.rate, 1),
                     std::to_string(r.faults),
                     util::format_double(r.eff_ckpt, 3),
                     util::format_double(r.eff_sdr, 3),
                     r.eff_ckpt > r.eff_sdr ? "ckpt" : "sdr"});
    }
    table.print(std::cout);
    std::cout << "\n";
  }

  if (!check) return 0;

  bool ok = true;
  auto gate = [&ok](bool pass, const std::string& what) {
    std::cerr << (pass ? "  PASS  " : "  FAIL  ") << what << "\n";
    ok = ok && pass;
  };
  std::cerr << "crossover checks:\n";
  bool all_clean = true;
  for (const Row& r : rows) all_clean = all_clean && r.clean;
  gate(all_clean, "every run completes clean (faults absorbed, no deadlock)");
  gate(rows.front().eff_ckpt > rows.front().eff_sdr,
       "checkpointing wins at failure rate 0 (" +
           util::format_double(rows.front().eff_ckpt, 3) + " vs " +
           util::format_double(rows.front().eff_sdr, 3) + ")");
  gate(rows.back().eff_sdr > rows.back().eff_ckpt,
       "replication wins at the top failure rate (" +
           util::format_double(rows.back().eff_sdr, 3) + " vs " +
           util::format_double(rows.back().eff_ckpt, 3) + ")");
  int sign_changes = 0;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const bool was = rows[i - 1].eff_ckpt > rows[i - 1].eff_sdr;
    const bool is = rows[i].eff_ckpt > rows[i].eff_sdr;
    if (was != is) ++sign_changes;
  }
  gate(sign_changes == 1, "the efficiency curves cross exactly once (" +
                              std::to_string(sign_changes) + " crossings)");
  bool ckpt_monotone = true;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    // Non-increasing: a higher drawn rate can tie (faults past the run's
    // completion are absorbed for free) but never helps.
    if (rows[i].eff_ckpt > rows[i - 1].eff_ckpt + 1e-12) {
      ckpt_monotone = false;
    }
  }
  gate(ckpt_monotone,
       "ckpt efficiency never improves as the failure rate grows");
  std::cerr << (ok ? "crossover check PASSED\n" : "crossover check FAILED\n");
  return ok ? 0 : 1;
}

int main(int argc, char** argv) {
  return sdrmpi::bench::run_main(argc, argv, bench_main);
}
