// sdrbench: the repository benchmark harness (see BENCHMARK.md).
//
//   sdrbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--out DIR] [--work DIR]
//   sdrbench --selftest [--work DIR]
//
// A run repeats set-up + timed phase + oracle until --seconds are spent,
// and prints one JSON object as the last line of stdout:
// {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics. --trace 1 alternates traced and
// untraced repetitions and reports the per-layer metrics, including the
// tracing overhead, and writes the spans as a Chrome trace-event file.
// Every run also writes a result file with the host block, each
// repetition's samples and the per-layer counts to --out.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "host.hpp"
#include "sdrmpi/util/options.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Host-drift correction. This host's speed drifts by tens of percent over
// minutes, far more than the changes the benchmark must resolve, and a
// fixed reference kernel (host.hpp) slows down with it. Every end-to-end
// time is therefore scaled to a nominal reference-kernel time:
//   corrected = raw * kRefNominalS / ref,
// with ref the kernel timed around the same phase. Raw medians and every
// kernel sample stay in the result file.
constexpr double kRefNominalS = 0.030;

double corrected(double raw_s, double ref_s) {
  return ref_s > 0.0 ? raw_s * kRefNominalS / ref_s : raw_s;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Per-layer timers: self seconds per repetition of the spans they name,
// median over traced repetitions.
struct LayerTimer {
  const char* metric;
  const char* span;
};
constexpr LayerTimer kLayerTimers[] = {
    {"workloads.build_s", "workloads.make_workload"},
    {"core.world_build_s", "core.World"},
    {"core.drive_s", "core.World.drive"},
    {"core.collect_s", "core.World.collect"},
    {"sweep.config_key_s", "sweep.config_key"},
    {"sweep.encode_s", "sweep.encode_result"},
    {"sweep.decode_s", "sweep.decode_result"},
    {"sweep.open_s", "sweep.ResultStore.open"},
    {"sweep.lookup_s", "sweep.ResultStore.lookup"},
    {"sweep.service_build_s", "sweep.SweepService"},
    {"sweep.warm_run_s", "sweep.SweepService.run.warm"},
};

// Per-layer counts: deterministic, read from the program's own counters.
struct LayerCount {
  const char* name;
  const char* unit;
};
constexpr LayerCount kLayerCounts[] = {
    {"core.acks_sent", "count"},
    {"core.ctl_frames_per_send", "ratio"},
    {"core.resends", "count"},
    {"core.recoveries", "count"},
    {"core.sdc_detected", "count"},
    {"core.restarts", "count"},
    {"sim.events", "count"},
    {"sim.context_switches", "count"},
    {"sim.switches_per_event", "ratio"},
    {"sim.stack_bytes_peak", "B"},
    {"sim.stack_depth_peak", "B"},
    {"mpi.app_sends", "count"},
    {"mpi.unexpected", "count"},
    {"mpi.endpoint_bytes", "B"},
    {"mpi.data_frames_per_send", "ratio"},
    {"net.bytes_copied", "B"},
    {"net.bytes_hashed", "B"},
    {"net.copied_bytes_per_send", "B"},
    {"net.frames", "count"},
    {"net.wire_bytes", "B"},
    {"net.link_stalls", "count"},
    {"net.fabric_bytes", "B"},
    {"net.payload_slab_bytes", "B"},
    {"sweep.points", "count"},
    {"sweep.unique_points", "count"},
    {"sweep.dispatched", "count"},
    {"sweep.cache_hits", "count"},
    {"sweep.dispatched_per_point", "ratio"},
    {"sweep.store_bytes", "B"},
};

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
      continue;
    }
    out.push_back(ch);
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i ? ", " : "") + quoted(ms[i].name) + ": {\"value\": " +
           num(ms[i].value) + ", \"unit\": " + quoted(ms[i].unit) + "}";
  }
  return out + "}";
}

std::string numbers_json(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + num(v[i]);
  return out + "]";
}

struct RunArgs {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
  std::string work_dir;
};

int run_benchmark(const RunArgs& o) {
  const HostInfo host = host_info();
  std::cerr << "sdrbench: " << o.workload << " seed=" << o.seed
            << " seconds=" << o.seconds << " trace=" << o.trace << "\n"
            << "host: " << host.cpu_model << ", nproc " << host.nproc << ", "
            << host.compiler << ", " << host.build_type << "\n";
  if (!host.release) {
    std::cerr << "sdrbench: WARNING: built as '" << host.build_type
              << "', not Release: host timings are not comparable\n";
  }

  const std::string work =
      o.work_dir + "/" + o.workload + "-" + std::to_string(getpid());
  fs::create_directories(work);
  fs::create_directories(o.out_dir);
  auto wl = make_workload(o.workload, o.seed, work);
  Tracer tracer;

  std::vector<Rep> reps;
  std::vector<bool> traced;
  std::vector<std::string> failures;
  int attempted = 0;
  int failed = 0;
  // One repetition, counted; its outcome must match repetition 0's.
  auto run_rep = [&] {
    Rep r;
    try {
      r = wl->rep(tracer);
    } catch (const std::exception& e) {
      r.failures.push_back(std::string("exception: ") + e.what());
    }
    if (!reps.empty() && r.failures.empty() &&
        r.fingerprint != reps.front().fingerprint) {
      r.failures.push_back("determinism: outcome differs from repetition 0");
    }
    ++attempted;
    if (!r.failures.empty()) {
      ++failed;
      failures.insert(failures.end(), r.failures.begin(), r.failures.end());
    }
    return r;
  };

  // Repetitions until the budget is spent; a traced run alternates traced
  // (even) and untraced (odd) repetitions so the overhead is measured.
  const double start = now_s();
  const int min_reps = o.trace ? 2 : 1;
  double last = 0.0;
  double rss_mb = 0.0;
  for (int i = 0;; ++i) {
    const double t0 = now_s();
    if (i >= min_reps && t0 + last > start + o.seconds) break;
    const bool on = o.trace && i % 2 == 0;
    tracer.set_enabled(on);
    tracer.set_rep(i);
    reps.push_back(run_rep());
    last = now_s() - t0;
    traced.push_back(on);
    // The first repetition has built, run and checked everything once:
    // later ones only add allocator drift to the high-water mark.
    if (i == 0) rss_mb = peak_rss_mb();
  }
  tracer.set_enabled(false);

  // Fiber-stack depth: one extra repetition with the watermark fill, traced
  // runs only (the fill commits every stack page and would inflate RSS).
  double stack_depth = 0.0;
  if (o.trace && wl->stack_probe()) {
    setenv("SDRMPI_STACK_WATERMARK", "1", 1);
    Rep r = run_rep();
    unsetenv("SDRMPI_STACK_WATERMARK");
    stack_depth = r.counts["sim.stack_depth_peak"];
  }

  // Each repetition's set-up is one set-up sample: spread over the whole
  // run and corrected by the kernel timed right after it, they repeat far
  // better than samples taken back to back.
  std::vector<double> walls_traced, walls_untraced, setups, rates, refs;
  std::vector<double> raw_walls, raw_setups;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    const double wall = corrected(r.wall_s, mean(r.ref_s));
    refs.insert(refs.end(), r.ref_s.begin(), r.ref_s.end());
    if (traced[i]) {
      walls_traced.push_back(wall);
      continue;
    }
    walls_untraced.push_back(wall);
    setups.push_back(corrected(r.setup_s, mean(r.ref_s)));
    raw_walls.push_back(r.wall_s);
    raw_setups.push_back(r.setup_s);
    if (wall > 0.0) rates.push_back(r.app_sends / wall);
  }

  const std::vector<Metric> end_to_end = {
      {"wall_s", median(walls_untraced), "s"},
      {"setup_s", median(setups), "s"},
      {"sends_per_s", median(rates), "1/s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };

  std::map<std::string, double> counts =
      reps.empty() ? std::map<std::string, double>{} : reps.front().counts;
  if (o.trace && wl->stack_probe()) counts["sim.stack_depth_peak"] = stack_depth;

  std::vector<Metric> per_layer;
  for (const LayerTimer& lt : kLayerTimers) {
    std::vector<double> v;
    for (std::size_t i = 0; i < reps.size(); ++i) {
      if (!traced[i]) continue;
      const auto self = tracer.self_seconds(static_cast<int>(i));
      // Measured-path spans when the workload makes that call itself;
      // otherwise the same call made by its oracle.
      auto it = self.find(lt.span);
      if (it == self.end()) it = self.find(std::string("oracle:") + lt.span);
      v.push_back(it != self.end() ? it->second : 0.0);
    }
    per_layer.push_back({lt.metric, median(v), "s"});
  }
  for (const LayerCount& lc : kLayerCounts) {
    per_layer.push_back({lc.name, counts[lc.name], lc.unit});
  }
  std::vector<double> ns_per_event;
  for (const double w : walls_traced) {
    ns_per_event.push_back(w * 1e9 / std::max(1.0, counts["sim.events"]));
  }
  per_layer.push_back({"sim.drive_ns_per_event", median(ns_per_event), "ns"});
  per_layer.push_back({"host.ref_s", median(refs), "s"});
  const double untraced = median(walls_untraced);
  per_layer.push_back(
      {"trace.overhead_pct",
       untraced > 0.0 ? (median(walls_traced) / untraced - 1.0) * 100.0 : 0.0,
       "%"});

  const bool correct = failed == 0 && attempted > 0;
  const std::string stem = o.out_dir + "/" + o.workload + "-seed" +
                           std::to_string(o.seed) + "-trace" +
                           (o.trace ? "1" : "0");
  std::string span_file;
  if (o.trace) {
    span_file = stem + ".spans.json";
    tracer.write_chrome_trace(span_file);
  }

  // Human summary (stderr) and the result file.
  std::cerr << "reps " << reps.size() << ", attempted " << attempted
            << ", failed " << failed << "\n";
  for (const auto& f : failures) std::cerr << "  FAILED " << f << "\n";
  for (const Metric& m : o.trace ? per_layer : end_to_end) {
    std::cerr << "  " << std::left << std::setw(28) << m.name << " "
              << num(m.value) << " " << m.unit << "\n";
  }
  {
    std::ofstream os(stem + ".json");
    os << "{\"workload\": " << quoted(o.workload) << ", \"seed\": " << o.seed
       << ", \"seconds\": " << num(o.seconds)
       << ", \"trace\": " << (o.trace ? 1 : 0) << ",\n \"host\": {\"cpu_model\": "
       << quoted(host.cpu_model) << ", \"nproc\": " << host.nproc
       << ", \"compiler\": " << quoted(host.compiler)
       << ", \"build_type\": " << quoted(host.build_type)
       << ", \"release\": " << (host.release ? "true" : "false") << "},\n"
       << " \"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ",\n \"failures\": [";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      os << (i ? ", " : "") << quoted(failures[i]);
    }
    os << "],\n \"ref_nominal_s\": " << num(kRefNominalS)
       << ", \"raw_wall_s\": " << num(median(raw_walls))
       << ", \"raw_setup_s\": " << num(median(raw_setups)) << ",\n \"reps\": [";
    for (std::size_t i = 0; i < reps.size(); ++i) {
      os << (i ? ",\n   " : "\n   ") << "{\"traced\": "
         << (traced[i] ? "true" : "false") << ", \"setup_s\": "
         << num(reps[i].setup_s) << ", \"wall_s\": " << num(reps[i].wall_s)
         << ", \"ref_s\": " << numbers_json(reps[i].ref_s) << "}";
    }
    os << "],\n \"end_to_end\": " << metrics_json(end_to_end)
       << ",\n \"per_layer\": " << metrics_json(per_layer)
       << ",\n \"span_file\": " << quoted(span_file) << "}\n";
  }
  fs::remove_all(work);

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": "
            << metrics_json(o.trace ? per_layer : end_to_end) << "}"
            << std::endl;
  return 0;
}

// Every oracle check must pass on the default seed and fail once its
// expected value is perturbed.
int run_selftest(const std::string& work_dir) {
  int bad = 0;
  int checks = 0;
  for (const std::string& name : workload_names()) {
    const std::string work =
        work_dir + "/selftest-" + name + "-" + std::to_string(getpid());
    fs::create_directories(work);
    auto wl = make_workload(name, kDefaultSeed, work);
    Tracer tracer;
    const Rep r = wl->rep(tracer);
    for (const auto& f : r.failures) {
      std::cerr << name << ": FAILED unperturbed " << f << "\n";
      ++bad;
    }
    Checker base;
    wl->check(base);
    for (const std::string& check : base.names()) {
      Checker c(check);
      wl->check(c);
      ++checks;
      if (c.failed(check)) {
        std::cerr << name << ": " << check << " fails when perturbed\n";
      } else {
        std::cerr << name << ": " << check << " CANNOT FAIL\n";
        ++bad;
      }
    }
    fs::remove_all(work);
  }
  std::cout << "selftest: " << checks << " checks, "
            << (bad == 0 ? "all pass and all can fail" : "FAILED") << std::endl;
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const sdrmpi::util::Options opts(argc, argv);
    opts.expect({"workload", "seed", "seconds", "trace", "out", "work",
                 "selftest"});
    const std::string work_dir = opts.get_string("work", ".");
    if (opts.get_bool("selftest", false)) return run_selftest(work_dir);
    if (!opts.has("workload")) {
      std::cerr << "usage: sdrbench --workload <name> --seed <n> --seconds <s> "
                   "--trace <0|1> [--out DIR] [--work DIR] | --selftest\n";
      return 2;
    }
    RunArgs o;
    o.workload = opts.get_string("workload", "");
    o.seed = static_cast<std::uint64_t>(opts.get_int("seed", kDefaultSeed));
    o.seconds = opts.get_double("seconds", 10.0);
    o.trace = opts.get_int("trace", 0) != 0;
    o.out_dir = opts.get_string("out", ".");
    o.work_dir = work_dir;
    return run_benchmark(o);
  } catch (const std::exception& e) {
    std::cerr << "sdrbench: " << e.what() << "\n";
    return 2;
  }
}
