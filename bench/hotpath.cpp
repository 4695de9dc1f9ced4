// Hot-path host-throughput bench: how fast does the simulator simulate?
//
// Unlike the fig*/table* benches (virtual-time reproductions of the paper's
// figures), this one measures HOST-side metrics of the send/deliver/schedule
// path: simulated sends per host second, engine events per host second, and
// global operator-new invocations per simulated message, on fig7b-style
// NetPipe traffic (native and SDR r=2), plus the host cost of one engine
// dispatch (a fiber → fiber switch), of one generated Pattern payload
// byte and of one FNV-1a-hashed byte. These are the numbers the
// zero-allocation hot-path work is pinned against (BENCH_hotpath.json).
//
//   --json            machine-readable output for the BENCH_* trajectory
//   --check           exit non-zero if allocs/send regress past the pinned
//                     bound (CI bench-smoke gate)
//   --reps=N          NetPipe timed round trips per size (default 10)
//   --variant=NAME    label recorded in the JSON (default "current")
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "sdrmpi/net/content.hpp"
#include "sdrmpi/util/alloc_counter.hpp"
#include "sdrmpi/util/byte_counter.hpp"
#include "sdrmpi/util/hash.hpp"
#include "sdrmpi/util/rng.hpp"
#include "sdrmpi/workloads/netpipe.hpp"

namespace {

using namespace sdrmpi;

// Pinned allocation budget for --check: heap allocations per application
// send on the fig7b-style workloads below (max over native and SDR r=2).
// Measured steady state after the zero-allocation hot-path work: ~0.5
// (native) / ~0.7 (SDR r=2), almost all cold-start (pool warmup, request
// objects, app buffers); the pre-PR baseline sat at 9.4 / 16.5. The bound
// leaves headroom for allocator/libstdc++ variation while still firing on
// any real regression (a single new per-message allocation adds +1.0).
constexpr double kAllocsPerSendBound = 3.0;

// Pinned host-bytes budget for --check on the *_sym points: a symbolic
// send copies no host byte. Frame headers travel by value and payloads as
// shared descriptors, so nothing on the send/deliver path lands in a host
// buffer; the raw twin of the same sweep moves the full payload
// (>= 2 MiB/send at the 1 MiB size).
constexpr double kSymBytesCopiedPerSendBound = 0.0;

struct HotpathPoint {
  std::string label;
  double host_seconds = 0.0;
  std::uint64_t app_sends = 0;
  std::uint64_t data_frames = 0;
  std::uint64_t events_executed = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t bytes_copied = 0;
  std::uint64_t bytes_hashed = 0;
  double sends_per_sec = 0.0;
  double events_per_sec = 0.0;
  double allocs_per_send = 0.0;
  double allocs_per_frame = 0.0;
  double bytes_copied_per_send = 0.0;
  std::uint64_t context_switches = 0;
  double ns_per_switch = 0.0;  ///< host ns per dispatch (fiber → fiber)
  double ns_per_byte = 0.0;  ///< host ns per generated or hashed byte
  double scalar_ns_per_byte = 0.0;  ///< fnv1a: the scalar loop's ns/byte
  std::string kernel;               ///< fnv1a: the dispatched variant
  bool symbolic = false;     ///< gate bytes_copied_per_send in --check
  bool gate_allocs = false;  ///< gate allocs_per_send in --check (the fig7b
                             ///< sweep; single-size points run too few sends
                             ///< to amortize engine cold-start allocations)
  bool clean = true;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Raw event-queue throughput: kChains self-rescheduling callbacks, no MPI
// machinery. Isolates schedule/pop/dispatch (the InlineFn + d-ary heap path).
HotpathPoint bench_events_raw() {
  constexpr int kChains = 64;
  constexpr std::uint64_t kSteps = 20000;

  HotpathPoint pt;
  pt.label = "events_raw";

  sim::Engine engine;
  struct Step {
    sim::Engine* eng;
    std::uint64_t left;
    void operator()() {
      if (left == 0) return;
      Step next{eng, left - 1};
      eng->schedule(eng->now() + 100, next);
    }
  };
  for (int c = 0; c < kChains; ++c) {
    engine.schedule(c, Step{&engine, kSteps});
  }

  const std::uint64_t a0 = util::alloc_count();
  const auto t0 = std::chrono::steady_clock::now();
  const auto out = engine.run();
  pt.host_seconds = seconds_since(t0);
  pt.allocs = util::alloc_count() - a0;
  pt.events_executed = out.events_executed;
  pt.events_per_sec =
      static_cast<double>(out.events_executed) / pt.host_seconds;
  pt.allocs_per_frame =
      static_cast<double>(pt.allocs) / static_cast<double>(out.events_executed);
  pt.clean = out.clean();
  return pt;
}

// Engine dispatch cost: two fibers ping-pong control through yield(), so
// every dispatch (as counted by RunOutcome::context_switches) is one
// fiber → fiber hand-off, with nothing else on the path but the scheduling
// decision and the runnable-heap push/pop. Only the first dispatch, the
// two exits and the dispatch between them pass through run(). Reports the
// median of kReps fresh engines; no --check gate reads it.
HotpathPoint bench_ctx_switch() {
  constexpr int kYields = 50000;
  constexpr int kReps = 5;

  std::vector<HotpathPoint> reps;
  for (int r = 0; r < kReps; ++r) {
    HotpathPoint pt;
    pt.label = "ctx_switch";
    sim::Engine engine;
    for (int p = 0; p < 2; ++p) {
      engine.spawn(std::string("p").append(std::to_string(p)), [&engine] {
        for (int k = 0; k < kYields; ++k) {
          engine.advance(1);
          engine.yield();
        }
      });
    }
    const std::uint64_t a0 = util::alloc_count();
    const auto t0 = std::chrono::steady_clock::now();
    const auto out = engine.run();
    pt.host_seconds = seconds_since(t0);
    pt.allocs = util::alloc_count() - a0;
    pt.context_switches = out.context_switches;
    pt.ns_per_switch = pt.host_seconds * 1e9 /
                       static_cast<double>(out.context_switches);
    pt.clean = out.clean();
    reps.push_back(pt);
  }
  std::sort(reps.begin(), reps.end(),
            [](const HotpathPoint& a, const HotpathPoint& b) {
              return a.ns_per_switch < b.ns_per_switch;
            });
  return reps[kReps / 2];
}

// Pattern generator cost: net::fill_pattern writes a 1 MiB block (the size
// of coll_mat_native's bcast root buffer) kFills times per rep, starting
// mid-word so the scalar head and tail run too. Reports the median of
// kReps; no --check gate reads it.
HotpathPoint bench_pattern_fill() {
  constexpr std::size_t kBytes = std::size_t{1} << 20;
  constexpr int kFills = 32;
  constexpr int kReps = 5;

  std::vector<std::byte> buf(kBytes);
  std::vector<HotpathPoint> reps;
  for (int r = 0; r < kReps; ++r) {
    HotpathPoint pt;
    pt.label = "pattern_fill";
    const auto t0 = std::chrono::steady_clock::now();
    for (int f = 0; f < kFills; ++f) {
      net::fill_pattern(static_cast<std::uint64_t>(f), 3, kBytes, buf.data());
    }
    pt.host_seconds = seconds_since(t0);
    pt.ns_per_byte = pt.host_seconds * 1e9 / (double{kFills} * kBytes);
    pt.clean = buf[kBytes - 1] == net::pattern_byte(kFills - 1, kBytes + 2);
    reps.push_back(pt);
  }
  std::sort(reps.begin(), reps.end(),
            [](const HotpathPoint& a, const HotpathPoint& b) {
              return a.ns_per_byte < b.ns_per_byte;
            });
  return reps[kReps / 2];
}

// FNV-1a cost per hashed byte over 1 MiB of random bytes (a large
// collective payload's digest), for the dispatched kernel (util::fnv1a)
// and the scalar baseline; each the median of kReps. The row is clean only
// if both produce the same digest, so --check cross-checks the kernel on
// the host CPU. ns_per_byte is the kernel's, scalar_ns_per_byte the
// baseline's.
HotpathPoint bench_fnv1a() {
  constexpr std::size_t kBytes = std::size_t{1} << 20;
  constexpr int kHashes = 16;
  constexpr int kReps = 5;

  util::Rng rng(0xf4a1ULL);
  std::vector<std::byte> buf(kBytes);
  for (auto& b : buf) b = static_cast<std::byte>(rng());
  HotpathPoint pt;
  pt.label = "fnv1a";
  const auto median_ns = [&](auto&& hash, std::uint64_t& digest) {
    std::vector<double> ns;
    for (int r = 0; r < kReps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      std::uint64_t h = util::kFnvOffset;
      for (int i = 0; i < kHashes; ++i) h = hash(buf, h);
      const double s = seconds_since(t0);
      pt.host_seconds += s;
      ns.push_back(s * 1e9 / (double{kHashes} * kBytes));
      digest = h;
    }
    std::sort(ns.begin(), ns.end());
    return ns[kReps / 2];
  };
  pt.kernel = std::ranges::find_if(util::fnv1a_kernels(),
                                   &util::FnvKernel::runnable)->name;
  std::uint64_t kernel_digest = 0;
  std::uint64_t scalar_digest = 0;
  pt.ns_per_byte = median_ns(util::fnv1a, kernel_digest);
  pt.scalar_ns_per_byte = median_ns(util::fnv1a_scalar, scalar_digest);
  pt.clean = kernel_digest == scalar_digest;
  return pt;
}

// NetPipe ping-pong traffic under the given protocol/replication, measured
// on the host clock. An empty `sizes` runs the fig7b sweep (1 B .. 8 MiB);
// otherwise the given message sizes. `symbolic` switches the workload to
// descriptor sends + sink receives (same virtual-time trace). The run
// repeats kRuns times: host seconds, sends/sec and events/sec are the
// median run's; the allocation and byte counts are the first (cold) run's,
// which kAllocsPerSendBound and kSymBytesCopiedPerSendBound were pinned
// against.
HotpathPoint bench_netpipe(const std::string& label, core::ProtocolKind proto,
                           int replication, int reps,
                           std::vector<std::size_t> sizes = {},
                           bool symbolic = false) {
  constexpr int kRuns = 5;
  HotpathPoint pt;
  pt.label = label;
  pt.symbolic = symbolic;

  wl::NetpipeParams np;
  np.reps = reps;
  np.symbolic = symbolic;
  if (!sizes.empty()) np.sizes = std::move(sizes);

  core::RunConfig cfg;
  cfg.nranks = 2;
  cfg.replication = replication;
  cfg.protocol = proto;

  const std::uint64_t a0 = util::alloc_count();
  const std::uint64_t b0 = util::alloc_bytes();
  auto t0 = std::chrono::steady_clock::now();
  const auto res = core::run(cfg, wl::make_netpipe(np));
  std::vector<double> seconds{seconds_since(t0)};
  pt.allocs = util::alloc_count() - a0;
  pt.alloc_bytes = util::alloc_bytes() - b0;
  for (int r = 1; r < kRuns; ++r) {
    t0 = std::chrono::steady_clock::now();
    pt.clean = core::run(cfg, wl::make_netpipe(np)).clean() && pt.clean;
    seconds.push_back(seconds_since(t0));
  }
  std::sort(seconds.begin(), seconds.end());
  pt.host_seconds = seconds[kRuns / 2];
  pt.bytes_copied = res.bytes_copied;
  pt.bytes_hashed = res.bytes_hashed;

  pt.app_sends = res.app_sends;
  pt.data_frames = res.fabric.frames_sent;
  pt.events_executed = res.events_executed;
  pt.clean = res.clean() && pt.clean;
  pt.sends_per_sec = static_cast<double>(res.app_sends) / pt.host_seconds;
  pt.events_per_sec =
      static_cast<double>(res.events_executed) / pt.host_seconds;
  if (res.app_sends > 0) {
    pt.allocs_per_send =
        static_cast<double>(pt.allocs) / static_cast<double>(res.app_sends);
    pt.bytes_copied_per_send = static_cast<double>(pt.bytes_copied) /
                               static_cast<double>(res.app_sends);
  }
  if (res.fabric.frames_sent > 0) {
    pt.allocs_per_frame = static_cast<double>(pt.allocs) /
                          static_cast<double>(res.fabric.frames_sent);
  }
  return pt;
}

void emit_json(std::ostream& os, const std::string& variant,
               const std::vector<HotpathPoint>& pts) {
  os << "{\n  \"bench\": \"hotpath\",\n"
     << "  \"variant\": \"" << bench::json_escape(variant) << "\",\n"
     << "  \"alloc_counting\": "
     << (util::alloc_counting_enabled() ? "true" : "false") << ",\n"
     << "  \"allocs_per_send_bound\": " << kAllocsPerSendBound << ",\n"
     << "  \"points\": [\n";
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const HotpathPoint& p = pts[i];
    os << "    {\"label\": \"" << bench::json_escape(p.label) << "\""
       << ", \"host_seconds\": " << p.host_seconds
       << ", \"app_sends\": " << p.app_sends
       << ", \"data_frames\": " << p.data_frames
       << ", \"events_executed\": " << p.events_executed
       << ", \"allocs\": " << p.allocs
       << ", \"alloc_bytes\": " << p.alloc_bytes
       << ", \"bytes_copied\": " << p.bytes_copied
       << ", \"bytes_hashed\": " << p.bytes_hashed
       << ", \"sends_per_sec\": " << p.sends_per_sec
       << ", \"events_per_sec\": " << p.events_per_sec
       << ", \"allocs_per_send\": " << p.allocs_per_send
       << ", \"allocs_per_frame\": " << p.allocs_per_frame
       << ", \"bytes_copied_per_send\": " << p.bytes_copied_per_send
       << ", \"context_switches\": " << p.context_switches
       << ", \"ns_per_switch\": " << p.ns_per_switch
       << ", \"ns_per_byte\": " << p.ns_per_byte
       << ", \"scalar_ns_per_byte\": " << p.scalar_ns_per_byte
       << ", \"kernel\": \"" << bench::json_escape(p.kernel) << "\""
       << ", \"symbolic\": " << (p.symbolic ? "true" : "false")
       << ", \"clean\": " << (p.clean ? "true" : "false") << "}"
       << (i + 1 < pts.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

static int bench_main(const sdrmpi::util::Options& opts) {
  using namespace sdrmpi;
  bench::check_options(opts, {"json", "check", "reps", "variant"},
                       /*service_flags=*/false);
  bench::warn_if_not_release();

  const int reps = static_cast<int>(opts.get_int("reps", 10));
  const std::string variant = opts.get_string("variant", "current");

  std::vector<HotpathPoint> pts;
  pts.push_back(bench_events_raw());
  pts.push_back(bench_ctx_switch());
  pts.push_back(bench_pattern_fill());
  pts.push_back(bench_fnv1a());
  pts.push_back(
      bench_netpipe("fig7b_native", core::ProtocolKind::Native, 1, reps));
  pts.back().gate_allocs = true;
  pts.push_back(
      bench_netpipe("fig7b_sdr_r2", core::ProtocolKind::Sdr, 2, reps));
  pts.back().gate_allocs = true;
  // Large-message points, raw vs symbolic: the raw twin moves and hashes
  // every payload byte on the host (PR 3 behaviour); the symbolic twin
  // runs the identical virtual-time trace touching O(1) bytes per send.
  const struct {
    const char* name;
    std::size_t bytes;
  } big[] = {{"1mib", std::size_t{1} << 20}, {"16mib", std::size_t{16} << 20}};
  for (const auto& b : big) {
    pts.push_back(bench_netpipe(std::string("netpipe_") + b.name + "_raw",
                                core::ProtocolKind::Native, 1, reps,
                                {b.bytes}, /*symbolic=*/false));
    pts.push_back(bench_netpipe(std::string("netpipe_") + b.name + "_sym",
                                core::ProtocolKind::Native, 1, reps,
                                {b.bytes}, /*symbolic=*/true));
    pts.push_back(bench_netpipe(std::string("netpipe_") + b.name +
                                    "_sdr_r2_raw",
                                core::ProtocolKind::Sdr, 2, reps, {b.bytes},
                                /*symbolic=*/false));
    pts.push_back(bench_netpipe(std::string("netpipe_") + b.name +
                                    "_sdr_r2_sym",
                                core::ProtocolKind::Sdr, 2, reps, {b.bytes},
                                /*symbolic=*/true));
  }

  if (bench::json_mode(opts)) {
    emit_json(std::cout, variant, pts);
  } else {
    util::Table table({"point", "host sec", "sends/sec", "events/sec",
                       "allocs/send", "bytes-copied/send", "ns/switch",
                       "ns/byte", "scalar ns/byte"});
    for (const HotpathPoint& p : pts) {
      table.add_row({p.label, util::format_double(p.host_seconds, 3),
                     util::format_double(p.sends_per_sec, 0),
                     util::format_double(p.events_per_sec, 0),
                     util::format_double(p.allocs_per_send, 2),
                     util::format_double(p.bytes_copied_per_send, 0),
                     util::format_double(p.ns_per_switch, 1),
                     util::format_double(p.ns_per_byte, 3),
                     util::format_double(p.scalar_ns_per_byte, 3)});
    }
    table.print(std::cout);
    if (!util::alloc_counting_enabled()) {
      std::cout << "(allocation counting disabled in this build)\n";
    }
  }

  for (const HotpathPoint& p : pts) {
    if (!p.clean) {
      std::cerr << "hotpath: point '" << p.label << "' did not run clean\n";
      return 2;
    }
  }
  if (opts.get_bool("check", false)) {
    if (util::alloc_counting_enabled()) {
      for (const HotpathPoint& p : pts) {
        if (p.gate_allocs && p.app_sends > 0 &&
            p.allocs_per_send > kAllocsPerSendBound) {
          std::cerr << "hotpath: allocs/send regression on '" << p.label
                    << "': " << p.allocs_per_send << " > bound "
                    << kAllocsPerSendBound << "\n";
          return 1;
        }
      }
    }
    // Symbolic large-message points copy no host byte, whatever the
    // payload size.
    for (const HotpathPoint& p : pts) {
      if (p.symbolic && p.app_sends > 0 &&
          p.bytes_copied_per_send > kSymBytesCopiedPerSendBound) {
        std::cerr << "hotpath: bytes-copied/send regression on '" << p.label
                  << "': " << p.bytes_copied_per_send << " > bound "
                  << kSymBytesCopiedPerSendBound << "\n";
        return 1;
      }
    }
  }
  return 0;
}

int main(int argc, char** argv) {
  return sdrmpi::bench::run_main(argc, argv, bench_main);
}
