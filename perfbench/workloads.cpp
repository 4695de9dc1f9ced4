#include "workloads.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <span>
#include <stdexcept>
#include <utility>

#include "host.hpp"
#include "sdrmpi/sdrmpi.hpp"
#include "sdrmpi/sweep/result_codec.hpp"
#include "sdrmpi/workloads/registry.hpp"

namespace perfbench {

using namespace sdrmpi;
namespace fs = std::filesystem;
using Counts = std::map<std::string, double>;

// ---- Checker ---------------------------------------------------------------

void Checker::eq(const std::string& name, std::uint64_t observed,
                 std::uint64_t expected) {
  names_.insert(name);
  if (name == perturbed_) expected ^= 1;
  if (observed != expected) {
    fail(name, "observed " + std::to_string(observed) + ", expected " +
                   std::to_string(expected));
  }
}

void Checker::holds(const std::string& name, bool ok,
                    const std::string& detail) {
  names_.insert(name);
  const bool expected = name != perturbed_;
  if (ok != expected) {
    fail(name, ok ? "holds (perturbed)" : "does not hold" + detail);
  }
}

void Checker::fail(const std::string& name, const std::string& what) {
  if (failed_.insert(name).second) failures_.push_back(name + ": " + what);
}

// ---- shared helpers ----------------------------------------------------------

Rep Workload::rep(Tracer& tracer) {
  Rep r = measure(tracer);
  Checker c;
  check(c);
  r.failures = c.failures();
  return r;
}

void Workload::check_pin(Checker& c, std::uint64_t makespan,
                         std::uint64_t fingerprint, const Pin& pin) const {
  if (seed_ != kDefaultSeed) return;
  c.eq("pin.makespan", makespan, pin.makespan);
  c.eq("pin.fingerprint", fingerprint, pin.fingerprint);
}

namespace {

// Workload options carry the seed as a signed integer.
std::string seed_option(std::uint64_t seed) {
  return std::to_string(seed & 0x3fffffffffffffffULL);
}

/// Registry app-spec for the content address: "<name> key=value ...".
std::string spec_of(const std::string& app,
                    const std::vector<std::pair<std::string, std::string>>& kv) {
  std::string spec = app;
  for (const auto& [k, v] : kv) spec += " " + k + "=" + v;
  return spec;
}

util::Options options_of(
    const std::vector<std::pair<std::string, std::string>>& kv) {
  util::Options opts;
  for (const auto& [k, v] : kv) opts.set(k, v);
  return opts;
}

std::uint64_t fingerprint(const core::RunResult& r, std::uint64_t h = 0) {
  h = util::hash_combine(h, static_cast<std::uint64_t>(r.makespan));
  for (const core::SlotResult& s : r.slots) h = util::hash_combine(h, s.checksum);
  return h;
}

void max_into(double& slot, std::uint64_t v) {
  slot = std::max(slot, static_cast<double>(v));
}

void add_run_counts(Counts& c, const std::vector<const core::RunResult*>& runs) {
  double ctl_frames = 0.0;
  double data_frames = 0.0;
  for (const core::RunResult* r : runs) {
    c["core.acks_sent"] += static_cast<double>(r->protocol.acks_sent);
    c["core.resends"] += static_cast<double>(r->protocol.resends);
    c["core.recoveries"] += static_cast<double>(r->protocol.recoveries);
    c["core.sdc_detected"] += static_cast<double>(r->protocol.sdc_detected);
    c["core.restarts"] += static_cast<double>(r->protocol.restarts);
    c["sim.events"] += static_cast<double>(r->events_executed);
    c["sim.context_switches"] += static_cast<double>(r->context_switches);
    c["mpi.app_sends"] += static_cast<double>(r->app_sends);
    c["mpi.unexpected"] += static_cast<double>(r->unexpected);
    c["net.bytes_copied"] += static_cast<double>(r->bytes_copied);
    c["net.bytes_hashed"] += static_cast<double>(r->bytes_hashed);
    c["net.frames"] += static_cast<double>(r->fabric.frames_sent);
    c["net.wire_bytes"] += static_cast<double>(r->fabric.payload_bytes);
    c["net.link_stalls"] += static_cast<double>(r->fabric.link_stalls);
    // Host memory is a per-run high-water mark: the largest run sets it.
    max_into(c["sim.stack_bytes_peak"], r->mem.stack_bytes_peak);
    max_into(c["sim.stack_depth_peak"], r->mem.stack_depth_peak);
    max_into(c["mpi.endpoint_bytes"], r->mem.endpoint_bytes);
    max_into(c["net.fabric_bytes"], r->mem.fabric_bytes);
    max_into(c["net.payload_slab_bytes"], r->mem.payload_slab_bytes);
    ctl_frames += static_cast<double>(r->ctl_frames);
    data_frames += static_cast<double>(r->data_frames);
  }
  const double sends = std::max(1.0, c["mpi.app_sends"]);
  c["core.ctl_frames_per_send"] = ctl_frames / sends;
  c["mpi.data_frames_per_send"] = data_frames / sends;
  c["net.copied_bytes_per_send"] = c["net.bytes_copied"] / sends;
  c["sim.switches_per_event"] =
      c["sim.context_switches"] / std::max(1.0, c["sim.events"]);
}

void add_sweep_counts(Counts& c, std::size_t points, std::size_t unique,
                      std::size_t dispatched, std::size_t cache_hits,
                      std::uintmax_t store_bytes) {
  c["sweep.points"] = static_cast<double>(points);
  c["sweep.unique_points"] = static_cast<double>(unique);
  c["sweep.dispatched"] = static_cast<double>(dispatched);
  c["sweep.cache_hits"] = static_cast<double>(cache_hits);
  c["sweep.dispatched_per_point"] =
      static_cast<double>(dispatched) / static_cast<double>(std::max<std::size_t>(1, points));
  c["sweep.store_bytes"] = static_cast<double>(store_bytes);
}

/// Drives one World to completion under the standard span names.
core::RunResult run_world(Tracer& t, const core::RunConfig& cfg,
                          const core::AppFn& app) {
  auto world = t.span("core.World",
                      [&] { return std::make_unique<core::World>(cfg, app); });
  const sim::RunOutcome outcome =
      t.span("core.World.drive", [&] { return world->drive(); });
  return t.span("core.World.collect", [&] { return world->collect(outcome); });
}

// ---- result round trip (scale_cg_sdr, coll_mat_native) ----------------------

/// A result pushed through every persistence layer and back: the codec,
/// a ResultStore reopened from disk, and a warm SweepService pass that
/// must serve it without simulating.
struct RoundTrip {
  bool codec_equal = false;
  bool store_equal = false;
  bool warm_equal = false;
  std::size_t warm_dispatched = 0;
  std::size_t warm_hits = 0;
  std::uintmax_t store_bytes = 0;
};

RoundTrip round_trip(Tracer& t, const core::RunConfig& cfg,
                     const std::string& spec, const core::AppFn& app,
                     const core::RunResult& r, const std::string& dir) {
  return t.span("oracle.result_roundtrip", [&] {
    RoundTrip out;
    const std::vector<std::byte> bytes =
        t.span("sweep.encode_result", [&] { return sweep::encode_result(r); });
    out.codec_equal =
        t.span("sweep.decode_result",
               [&] { return sweep::decode_result(bytes); }) == r;

    const std::uint64_t key =
        t.span("sweep.config_key", [&] { return sweep::config_key(cfg, spec); });
    const std::string path = dir + "/roundtrip.store";
    fs::remove(path);
    sweep::ResultStore(path).put(key, r);
    {
      const auto store = t.span("sweep.ResultStore.open", [&] {
        return std::make_unique<sweep::ResultStore>(path);
      });
      const auto hit =
          t.span("sweep.ResultStore.lookup", [&] { return store->lookup(key); });
      out.store_equal = hit.has_value() && *hit == r;
    }
    out.store_bytes = fs::file_size(path);

    sweep::ServiceOptions opts;
    opts.workers = 1;
    opts.cache_path = path;
    opts.spec = [&spec](const core::RunConfig&, std::size_t) { return spec; };
    auto service = t.span("sweep.SweepService", [&] {
      return std::make_unique<sweep::SweepService>(opts);
    });
    const auto warm = t.span("sweep.SweepService.run.warm",
                             [&] { return service->run({cfg}, app); });
    out.warm_equal = warm.size() == 1 && warm.front() == r;
    out.warm_dispatched = service->stats().dispatched;
    out.warm_hits = service->stats().cache_hits;
    service.reset();
    fs::remove(path);
    return out;
  });
}

// ---- single-World workloads --------------------------------------------------

/// Drives one World directly (the sweep layer is bypassed on the timed
/// path), then round-trips the result through the persistence layers.
class DirectWorkload : public Workload {
 protected:
  DirectWorkload(std::uint64_t seed, std::string dir, std::string app)
      : Workload(seed, std::move(dir)), app_(std::move(app)) {
    cfg_.seed = seed;
  }

  /// Extra oracle work after the timed phase (outside it).
  virtual void after_run(Tracer&) {}

  Rep measure(Tracer& t) override {
    Rep rep;
    const double t0 = now_s();
    const core::AppFn fn = t.span("workloads.make_workload", [&] {
      return wl::make_workload(app_, options_of(app_kv_));
    });
    auto world = t.span("core.World",
                        [&] { return std::make_unique<core::World>(cfg_, fn); });
    rep.setup_s = now_s() - t0;

    rep.ref_s.push_back(reference_kernel_s());
    const double d0 = now_s();
    const sim::RunOutcome outcome =
        t.span("core.World.drive", [&] { return world->drive(); });
    rep.wall_s = now_s() - d0;
    rep.ref_s.push_back(reference_kernel_s());

    result_ = t.span("core.World.collect",
                     [&] { return world->collect(outcome); });
    t.span("core.World.destroy", [&] { world.reset(); });
    trip_ = round_trip(t, cfg_, spec_of(app_, app_kv_), fn, result_, dir_);
    after_run(t);

    rep.app_sends = static_cast<double>(result_.app_sends);
    rep.fingerprint = fingerprint(result_);
    add_run_counts(rep.counts, {&result_});
    add_sweep_counts(rep.counts, 1, 1, trip_.warm_dispatched, trip_.warm_hits,
                     trip_.store_bytes);
    return rep;
  }

  void check_run(Checker& c, const std::string& prefix) const {
    c.holds(prefix + ".clean", result_.clean());
    std::uint64_t reporting = 0;
    for (const auto& s : result_.slots) reporting += s.reported_checksum ? 1 : 0;
    c.eq(prefix + ".every_slot_reports", reporting,
         static_cast<std::uint64_t>(cfg_.nranks) *
             static_cast<std::uint64_t>(cfg_.replication));
    c.holds("roundtrip.codec", trip_.codec_equal);
    c.holds("roundtrip.store", trip_.store_equal);
    c.holds("roundtrip.warm_equal", trip_.warm_equal);
    c.eq("roundtrip.warm_dispatched", trip_.warm_dispatched, 0);
    c.eq("roundtrip.warm_cache_hits", trip_.warm_hits, 1);
  }

  std::string app_;
  std::vector<std::pair<std::string, std::string>> app_kv_;
  core::RunConfig cfg_;
  core::RunResult result_;
  RoundTrip trip_;
};

// scale_cg_sdr: symbolic CG skeleton at 2048 ranks x SDR r=2 (4096 fibers)
// on flat IB-20G. Per-send host cost grows with the rank count, so a
// scaling fix shows here first.
constexpr int kScaleRanks = 2048;
constexpr int kScaleIters = 1;

class ScaleCgSdr final : public DirectWorkload {
 public:
  ScaleCgSdr(std::uint64_t seed, std::string dir)
      : DirectWorkload(seed, std::move(dir), "cg") {
    app_kv_ = {{"symbolic", "true"},
               {"nrows", std::to_string(64 * kScaleRanks)},
               {"iters", std::to_string(kScaleIters)},
               {"seed", seed_option(seed)}};
    cfg_.nranks = kScaleRanks;
    cfg_.replication = 2;
    cfg_.protocol = core::ProtocolKind::Sdr;
    cfg_.time_limit = timeunits::seconds(36000.0);
  }

  void check(Checker& c) const override {
    check_run(c, "scale");
    c.holds("scale.replicas_consistent", result_.checksums_consistent());
    check_pin(c, static_cast<std::uint64_t>(result_.makespan),
              fingerprint(result_), {kPinMakespan, kPinFingerprint});
  }

 private:
  static constexpr std::uint64_t kPinMakespan = 698860;
  static constexpr std::uint64_t kPinFingerprint = 16775908286871107852ULL;
};

// coll_mat_native: the collective mix with materialized payloads at 16
// ranks, Native r=1, on the fat-tree fabric. Payload copy/digest and
// CollEngine schedules dominate; the protocol layer is bypassed.
class CollMatNative final : public DirectWorkload {
 public:
  CollMatNative(std::uint64_t seed, std::string dir)
      : DirectWorkload(seed, std::move(dir), "coll") {
    app_kv_ = payload_kv("materialize");
    twin_kv_ = payload_kv("symbolic");
    cfg_.nranks = 16;
    cfg_.net.topology = net::TopologySpec::fat_tree();
  }

  void check(Checker& c) const override {
    check_run(c, "coll");
    c.holds("coll.twin_clean", twin_.clean());
    c.eq("coll.twin_makespan", static_cast<std::uint64_t>(twin_.makespan),
         static_cast<std::uint64_t>(result_.makespan));
    c.eq("coll.twin_wire_bytes", twin_.fabric.payload_bytes,
         result_.fabric.payload_bytes);
    c.eq("coll.twin_slots", twin_.slots.size(), result_.slots.size());
    for (std::size_t i = 0;
         i < std::min(twin_.slots.size(), result_.slots.size()); ++i) {
      c.eq("coll.twin_checksums", twin_.slots[i].checksum,
           result_.slots[i].checksum);
    }
    check_pin(c, static_cast<std::uint64_t>(result_.makespan),
              fingerprint(result_), {kPinMakespan, kPinFingerprint});
  }

 protected:
  // The symbolic twin must be bit-identical in virtual time, wire bytes and
  // checksums; it runs after the timed phase.
  void after_run(Tracer& t) override {
    twin_ = t.span("oracle.symbolic_twin", [&] {
      const core::AppFn fn = t.span("workloads.make_workload", [&] {
        return wl::make_workload(app_, options_of(twin_kv_));
      });
      return run_world(t, cfg_, fn);
    });
  }

 private:
  std::vector<std::pair<std::string, std::string>> payload_kv(
      const char* mode) const {
    return {{"bcast-bytes", "1048576"},
            {"block-bytes", "65536"},
            {"reduce-bytes", "262144"},
            {"iters", "10"},
            {mode, "true"},
            {"seed", seed_option(seed_)}};
  }

  static constexpr std::uint64_t kPinMakespan = 130054376;
  static constexpr std::uint64_t kPinFingerprint = 10355568424258846847ULL;

  std::vector<std::pair<std::string, std::string>> twin_kv_;
  core::RunResult twin_;
};

// ---- sweep_grid ------------------------------------------------------------

constexpr int kGridRanks = 8;
constexpr int kGridVariants = 6;  // seed variants per application
constexpr int kRingIters = 30;

enum class PointKind { Native, Clean, Crash, Recover, CkptCrash, Sdc };

struct RingState {
  int iter = 0;
  double value = 0.0;
};

/// A ring exchange that offers a snapshot and declares a safe point every
/// iteration. No registry workload offers snapshots, so this is the one
/// application on which an Sdr run with auto_recover forks a recovered
/// replica. Send-deterministic: each rank's result depends on the seed only.
core::AppFn recovering_ring(std::uint64_t seed) {
  return [seed](mpi::Env& env) {
    auto& world = env.world();
    const int n = world.size();
    const int right = (env.rank() + 1) % n;
    const int left = (env.rank() - 1 + n) % n;
    RingState st{0, static_cast<double>(env.rank() + 1) *
                        static_cast<double>(seed % 997 + 1)};
    if (env.restart_state().has_value()) {
      std::memcpy(&st, env.restart_state()->data(), sizeof(RingState));
    }
    for (; st.iter < kRingIters; ++st.iter) {
      std::vector<std::byte> snap(sizeof(RingState));
      std::memcpy(snap.data(), &st, sizeof(RingState));
      env.offer_snapshot(std::move(snap));
      env.recovery_point();
      env.compute(2e-6);
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

struct GridPoint {
  core::RunConfig cfg;
  std::string spec;
  std::size_t app = 0;     ///< index into Grid::apps
  std::size_t native = 0;  ///< this variant's Native point
  PointKind kind = PointKind::Clean;
};

struct Grid {
  std::vector<core::AppFn> apps;  ///< one per (application, variant)
  std::vector<GridPoint> points;  ///< unique points
  std::vector<core::RunConfig> submissions;  ///< every point, twice
  std::vector<std::size_t> point_of;         ///< submission -> point
};

Grid build_grid(std::uint64_t seed, Tracer& t) {
  using core::ProtocolKind;
  Grid g;
  // The ring is the benchmark's own application, not a registry workload.
  const char* const kApps[] = {"cg", "coll", "perfbench.ring"};
  for (std::size_t a = 0; a < 3; ++a) {
    for (int v = 0; v < kGridVariants; ++v) {
      const std::uint64_t app_seed =
          util::hash_combine(seed, a * kGridVariants + static_cast<std::size_t>(v));
      std::vector<std::pair<std::string, std::string>> kv;
      if (a == 0) {
        kv = {{"nrows", "512"}, {"iters", "6"}};
      } else if (a == 1) {
        kv = {{"iters", "2"}};
      } else {
        kv = {{"iters", std::to_string(kRingIters)}};
      }
      kv.emplace_back("seed", seed_option(app_seed));
      const std::size_t app = g.apps.size();
      if (a == 2) {
        g.apps.push_back(recovering_ring(app_seed));
      } else {
        g.apps.push_back(t.span("workloads.make_workload", [&] {
          return wl::make_workload(kApps[a], options_of(kv));
        }));
      }
      const std::string spec = spec_of(kApps[a], kv);

      core::RunConfig base;
      base.nranks = kGridRanks;
      base.seed = app_seed;
      if (v % 2 == 1) base.net.topology = net::TopologySpec::fat_tree(2, 2, 2.0);
      base.ckpt.checkpoint_cost = timeunits::microseconds(5.0);
      base.ckpt.restart_cost = timeunits::microseconds(20.0);
      util::Rng rng(app_seed);
      const std::size_t native = g.points.size();
      auto add = [&](ProtocolKind p, PointKind kind, auto&& tweak) {
        GridPoint pt;
        pt.cfg = base;
        pt.cfg.protocol = p;
        pt.cfg.replication =
            p == ProtocolKind::Native || p == ProtocolKind::Ckpt ? 1 : 2;
        tweak(pt.cfg);
        pt.spec = spec;
        pt.app = app;
        pt.native = native;
        pt.kind = kind;
        g.points.push_back(std::move(pt));
      };
      const auto none = [](core::RunConfig&) {};
      // A fail-stop crash of a world-1 replica right before one of its
      // first application sends; redMPI variants deadlock under crashes by
      // design, so they get silent data corruption instead.
      const auto crash = [&](bool recover) {
        return [&rng, recover](core::RunConfig& c) {
          c.faults.push_back(
              {.slot = kGridRanks + static_cast<int>(rng.below(kGridRanks)),
               .at_time = -1,
               .at_send = static_cast<std::int64_t>(1 + rng.below(6))});
          c.auto_recover = recover;
        };
      };
      const auto flip = [&rng](core::RunConfig& c) {
        c.sdc.push_back({.slot = static_cast<int>(rng.below(2 * kGridRanks)),
                         .at_send = static_cast<std::int64_t>(rng.below(4))});
      };

      add(ProtocolKind::Native, PointKind::Native, none);
      if (a == 2) {
        // Crashed replicas forked back from a surviving replica's snapshot.
        add(ProtocolKind::Sdr, PointKind::Clean, none);
        add(ProtocolKind::Sdr, PointKind::Recover, crash(true));
        add(ProtocolKind::Sdr, PointKind::Recover, [&](core::RunConfig& c) {
          crash(true)(c);
          c.faults.back().at_send += 6;  // never the same point as above
        });
        continue;
      }
      for (ProtocolKind p :
           {ProtocolKind::Sdr, ProtocolKind::Mirror, ProtocolKind::Leader,
            ProtocolKind::RedMpiLeader, ProtocolKind::RedMpiSd}) {
        add(p, PointKind::Clean, none);
      }
      add(ProtocolKind::Ckpt, PointKind::Clean, [](core::RunConfig& c) {
        c.ckpt.interval = timeunits::microseconds(20.0);
      });
      add(ProtocolKind::Ckpt, PointKind::CkptCrash, [&rng](core::RunConfig& c) {
        c.ckpt.interval = timeunits::microseconds(50.0);
        c.faults.push_back(
            {.slot = static_cast<int>(rng.below(kGridRanks)),
             .at_time = timeunits::microseconds(
                 5.0 + static_cast<double>(rng.below(20)))});
      });
      // A fail-stop crash in the middle of the collective mix can deadlock
      // the replicated run for some seeds (Sdr, Mirror and Leader alike),
      // so crashes are placed on the CG points only.
      if (a == 0) {
        add(ProtocolKind::Sdr, PointKind::Crash, crash(false));
        add(ProtocolKind::Sdr, PointKind::Crash, crash(true));
        add(ProtocolKind::Mirror, PointKind::Crash, crash(false));
        add(ProtocolKind::Leader, PointKind::Crash, crash(false));
      }
      add(ProtocolKind::RedMpiLeader, PointKind::Sdc, flip);
      add(ProtocolKind::RedMpiSd, PointKind::Sdc, flip);
    }
  }
  // Every point is submitted twice; the second copy must dedupe.
  for (int copy = 0; copy < 2; ++copy) {
    for (std::size_t i = 0; i < g.points.size(); ++i) {
      g.submissions.push_back(g.points[i].cfg);
      g.point_of.push_back(i);
    }
  }
  return g;
}

// sweep_grid: small 8-rank CG, collective and ring points over every
// protocol, fail-stop faults, recovery and SDC, submitted through SweepService with
// one in-process worker and a persistent store: a cold pass, then a store
// reopen and a warm pass.
class SweepGrid final : public Workload {
 public:
  using Workload::Workload;

  [[nodiscard]] bool stack_probe() const override { return false; }

  void check(Checker& c) const override;

 protected:
  Rep measure(Tracer& t) override;

 private:
  static sweep::ServiceOptions options(const std::string& path,
                                       const Grid& grid) {
    sweep::ServiceOptions opts;
    opts.workers = 1;
    opts.cache_path = path;
    opts.spec = [&grid](const core::RunConfig&, std::size_t i) {
      return grid.points[grid.point_of[i]].spec;
    };
    return opts;
  }

  [[nodiscard]] core::AppFactory factory() const {
    return [this](const core::RunConfig&, std::size_t i) {
      return grid_.apps[grid_.points[grid_.point_of[i]].app];
    };
  }

  static constexpr std::uint64_t kPinMakespan = 94205502;
  static constexpr std::uint64_t kPinFingerprint = 7644543854915815907ULL;

  Grid grid_;
  std::vector<core::RunResult> cold_;  ///< per unique point
  sweep::ServiceStats cold_stats_;
  sweep::ServiceStats warm_stats_;
  bool duplicates_equal_ = false;
  bool warm_equal_ = false;
  bool lookups_equal_ = false;
  bool codec_equal_ = false;
  std::size_t reopened_size_ = 0;
  std::uintmax_t store_bytes_ = 0;
  std::vector<std::uint64_t> digests_;
  std::vector<std::pair<std::size_t, core::RunResult>> references_;
};

Rep SweepGrid::measure(Tracer& t) {
  Rep rep;
  const std::string path = dir_ + "/grid.store";
  fs::remove(path);
  const double t0 = now_s();
  grid_ = build_grid(seed_, t);
  auto service = t.span("sweep.SweepService", [&] {
    return std::make_unique<sweep::SweepService>(options(path, grid_));
  });
  rep.setup_s = now_s() - t0;

  rep.ref_s.push_back(reference_kernel_s());
  const double d0 = now_s();
  const std::vector<core::RunResult> cold = t.span(
      "sweep.SweepService.run.cold",
      [&] { return service->run(grid_.submissions, factory()); });
  rep.wall_s = now_s() - d0;
  rep.ref_s.push_back(reference_kernel_s());
  cold_stats_ = service->stats();
  service.reset();

  const std::size_t n = grid_.points.size();
  cold_.assign(cold.begin(), cold.begin() + static_cast<std::ptrdiff_t>(n));
  duplicates_equal_ = cold.size() == 2 * n &&
                      std::equal(cold.begin() + static_cast<std::ptrdiff_t>(n),
                                 cold.end(), cold.begin());
  store_bytes_ = fs::file_size(path);

  // The bench's own content addresses, then a reopen of the store that
  // must hold every one of them.
  digests_.clear();
  for (const GridPoint& p : grid_.points) {
    digests_.push_back(t.span("sweep.config_key",
                              [&] { return sweep::config_key(p.cfg, p.spec); }));
  }
  {
    const auto store = t.span("sweep.ResultStore.open", [&] {
      return std::make_unique<sweep::ResultStore>(path);
    });
    reopened_size_ = store->size();
    lookups_equal_ = true;
    for (std::size_t i = 0; i < n; ++i) {
      const auto hit = t.span("sweep.ResultStore.lookup",
                              [&] { return store->lookup(digests_[i]); });
      lookups_equal_ = lookups_equal_ && hit.has_value() && *hit == cold_[i];
    }
  }

  auto warm_service = t.span("sweep.SweepService", [&] {
    return std::make_unique<sweep::SweepService>(options(path, grid_));
  });
  const std::vector<core::RunResult> warm = t.span(
      "sweep.SweepService.run.warm",
      [&] { return warm_service->run(grid_.submissions, factory()); });
  warm_stats_ = warm_service->stats();
  warm_equal_ = warm == cold;
  warm_service.reset();
  fs::remove(path);

  codec_equal_ = t.span("oracle.codec", [&] {
    bool ok = true;
    for (const core::RunResult& r : cold_) {
      const auto bytes =
          t.span("sweep.encode_result", [&] { return sweep::encode_result(r); });
      ok = ok && t.span("sweep.decode_result", [&] {
                   return sweep::decode_result(bytes);
                 }) == r;
    }
    return ok;
  });

  // Independent references: every Native point driven directly, outside
  // the service, must equal what the service stored for it.
  references_.clear();
  t.span("oracle.native_reference", [&] {
    for (std::size_t i = 0; i < n; ++i) {
      if (grid_.points[i].kind != PointKind::Native) continue;
      references_.emplace_back(
          i, run_world(t, grid_.points[i].cfg, grid_.apps[grid_.points[i].app]));
    }
  });

  std::vector<const core::RunResult*> runs;
  for (const core::RunResult& r : cold_) {
    runs.push_back(&r);
    rep.app_sends += static_cast<double>(r.app_sends);
    rep.fingerprint = fingerprint(r, rep.fingerprint);
  }
  add_run_counts(rep.counts, runs);
  add_sweep_counts(rep.counts, cold_stats_.points, cold_stats_.unique_points,
                   cold_stats_.dispatched, warm_stats_.cache_hits, store_bytes_);
  return rep;
}

void SweepGrid::check(Checker& c) const {
  const std::size_t n = grid_.points.size();
  c.eq("grid.results", cold_.size(), n);
  if (cold_.size() != n) return;
  std::string unclean;
  for (std::size_t i = 0; i < n && unclean.empty(); ++i) {
    if (!cold_[i].clean()) {
      unclean = " (point " + std::to_string(i) + ": " +
                core::to_string(grid_.points[i].cfg.protocol) + ", " +
                grid_.points[i].spec + ")";
    }
  }
  c.holds("grid.clean", unclean.empty(), unclean);

  c.eq("grid.unique_points", cold_stats_.unique_points, n);
  c.eq("grid.cold_dispatched", cold_stats_.dispatched, n);
  c.eq("grid.max_dispatches_per_digest", cold_stats_.max_dispatches_per_digest,
       1);
  c.holds("grid.duplicates_share_result", duplicates_equal_);
  c.eq("grid.distinct_bench_digests",
       std::set<std::uint64_t>(digests_.begin(), digests_.end()).size(), n);
  c.eq("grid.store_records", reopened_size_, n);
  c.holds("grid.store_lookup", lookups_equal_);
  c.eq("grid.warm_dispatched", warm_stats_.dispatched, 0);
  c.eq("grid.warm_cache_hits", warm_stats_.cache_hits, n);
  c.holds("grid.warm_equals_cold", warm_equal_);
  c.holds("grid.codec_roundtrip", codec_equal_);
  for (const auto& [i, ref] : references_) {
    c.holds("grid.native_reference", ref == cold_[i]);
  }

  std::uint64_t makespans = 0;
  std::uint64_t print = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const GridPoint& p = grid_.points[i];
    const core::RunResult& r = cold_[i];
    makespans += static_cast<std::uint64_t>(r.makespan);
    print = fingerprint(r, print);
    if (p.kind == PointKind::Sdc) {
      c.holds("grid.sdc_detected", r.protocol.sdc_detected >= 1);
      continue;
    }
    // Send-deterministic apps: every protocol, crashed or not, delivers
    // the native result on every surviving process.
    const core::RunResult& native = cold_[p.native];
    std::vector<bool> rank_reported(static_cast<std::size_t>(p.cfg.nranks));
    for (const core::SlotResult& s : r.slots) {
      if (!s.reported_checksum) continue;
      rank_reported[static_cast<std::size_t>(s.rank)] = true;
      c.eq("grid.checksums_match_native", s.checksum,
           native.checksum_of(s.rank, 0));
    }
    c.eq("grid.every_rank_reports",
         static_cast<std::uint64_t>(
             std::count(rank_reported.begin(), rank_reported.end(), true)),
         static_cast<std::uint64_t>(p.cfg.nranks));
    if (p.kind == PointKind::Crash || p.kind == PointKind::Recover) {
      c.holds("grid.crash_observed", r.protocol.failures_observed >= 1);
    }
    if (p.kind == PointKind::Recover) {
      c.holds("grid.recovered", r.protocol.recoveries >= 1);
    }
    if (p.kind == PointKind::CkptCrash) {
      c.holds("grid.ckpt_restarted", r.protocol.restarts >= 1);
    }
  }
  check_pin(c, makespans, print, {kPinMakespan, kPinFingerprint});
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "scale_cg_sdr", "coll_mat_native", "sweep_grid"};
  return kNames;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& work_dir) {
  if (name == "scale_cg_sdr") return std::make_unique<ScaleCgSdr>(seed, work_dir);
  if (name == "coll_mat_native") {
    return std::make_unique<CollMatNative>(seed, work_dir);
  }
  if (name == "sweep_grid") return std::make_unique<SweepGrid>(seed, work_dir);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
