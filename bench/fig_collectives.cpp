// Collectives engine sweep: bcast/allreduce/allgather/alltoall over
// sizes x algorithms x protocols, with host-byte counters.
//
// Every point runs the same traffic twice — symbolic descriptors and
// materialized pattern bytes — through the identical CollEngine schedule.
// The pair is the engine's contract in bench form: virtual time and
// per-slot checksums must match exactly (symbolic payloads are
// timing-transparent), while bytes_copied shows the host-side cost gap
// that makes class C/D collective phases runnable.
//
//   --json      machine-readable output (BENCH_collectives.json)
//   --check     exit non-zero if (a) a symbolic/materialized pair diverges
//               in makespan or checksums, (b) a large-message point,
//               symbolic or materialized, copies more than 1/20 of its
//               wire bytes on the host: materialized blocks are generated
//               into their payload slabs and reductions write op(a, b)
//               into fresh ones, so neither mode copies a block,
//               (c) a materialized scatter-allgather bcast hashes more than
//               2 x bytes x iters: its segments re-join to the root's
//               buffer, so each call hashes one buffer per root replica,
//               or (d) a materialized packing algorithm hashes more than
//               it must: Bruck joins are ropes whose slices hand back the
//               senders' own block headers, so an allgather or alltoall
//               hashes at most replication x nranks x bytes x iters, and a
//               Rabenseifner allreduce result is one rope over the same
//               segment chain on every rank, hashed once per replica:
//               replication x bytes x iters, or (e) a materialized point
//               hashes bytes an equal live buffer or a zero fold already
//               accounts for: the ranks' equal allgather/alltoall blocks
//               (every algorithm) reuse one live digest, so a point hashes
//               at most replication x bytes x iters, and an allreduce over
//               zero operands (every algorithm) hashes 0 bytes
//               (CI bench-smoke gate)
//   --nranks=N  communicator size (default 8)
//   --iters=N   collective calls per point (default 2)
#include <iostream>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "sdrmpi/workloads/symbolic.hpp"

namespace {

using namespace sdrmpi;

enum class CollKind { Bcast, Allreduce, Allgather, Alltoall };

const char* to_string(CollKind k) {
  switch (k) {
    case CollKind::Bcast: return "bcast";
    case CollKind::Allreduce: return "allreduce";
    case CollKind::Allgather: return "allgather";
    case CollKind::Alltoall: return "alltoall";
  }
  return "?";
}

core::AppFn coll_app(CollKind kind, std::size_t bytes, wl::PayloadMode mode,
                     int iters) {
  return [kind, bytes, mode, iters](mpi::Env& env) {
    wl::SymColl c(env.world(), mode, /*seed=*/0xbe7cULL);
    util::Checksum cs;
    for (int it = 0; it < iters; ++it) {
      switch (kind) {
        case CollKind::Bcast:
          c.bcast(bytes, /*root=*/0, /*tag=*/4, cs);
          break;
        case CollKind::Allreduce:
          c.allreduce_zeros(bytes, cs);
          break;
        case CollKind::Allgather:
          c.allgather(bytes, /*tag=*/5, cs);
          break;
        case CollKind::Alltoall:
          c.alltoall(bytes, /*tag=*/6, cs);
          break;
      }
    }
    env.report_checksum(cs.digest());
  };
}

struct AlgPoint {
  CollKind kind;
  const char* alg;     // label
  mpi::CollTuning tuning;
  bool packing;        // joins blocks into ropes: gate (d)
};

std::vector<AlgPoint> algorithm_points() {
  std::vector<AlgPoint> out;
  auto add = [&out](CollKind k, const char* alg, bool packing, auto set) {
    mpi::CollTuning t;
    set(t);
    out.push_back({k, alg, t, packing});
  };
  add(CollKind::Bcast, "binomial", false,
      [](mpi::CollTuning& t) { t.bcast = mpi::BcastAlg::Binomial; });
  add(CollKind::Bcast, "scatter-allgather", false, [](mpi::CollTuning& t) {
    t.bcast = mpi::BcastAlg::ScatterAllgather;
  });
  add(CollKind::Allreduce, "reduce-bcast", false, [](mpi::CollTuning& t) {
    t.allreduce = mpi::AllreduceAlg::ReduceBcast;
  });
  add(CollKind::Allreduce, "recursive-doubling", false,
      [](mpi::CollTuning& t) {
        t.allreduce = mpi::AllreduceAlg::RecursiveDoubling;
      });
  add(CollKind::Allreduce, "rabenseifner", true, [](mpi::CollTuning& t) {
    t.allreduce = mpi::AllreduceAlg::Rabenseifner;
  });
  add(CollKind::Allgather, "ring", false,
      [](mpi::CollTuning& t) { t.allgather = mpi::AllgatherAlg::Ring; });
  add(CollKind::Allgather, "bruck", true,
      [](mpi::CollTuning& t) { t.allgather = mpi::AllgatherAlg::Bruck; });
  add(CollKind::Alltoall, "pairwise", false,
      [](mpi::CollTuning& t) { t.alltoall = mpi::AlltoallAlg::Pairwise; });
  add(CollKind::Alltoall, "bruck", true,
      [](mpi::CollTuning& t) { t.alltoall = mpi::AlltoallAlg::Bruck; });
  return out;
}

struct Meta {
  bool symbolic;
  bool packing;    // Bruck / Rabenseifner: gate (d)
  bool sag_bcast;  // scatter-allgather bcast: gate (c)
  CollKind kind;
  int replication;
  std::size_t bytes;
};

}  // namespace

static int bench_main(const sdrmpi::util::Options& opts) {
  using namespace sdrmpi;
  bench::check_options(opts, {"nranks", "iters", "check"});
  bench::banner(opts, "Collectives engine sweep (algorithms x sizes x protocols)",
                "MPICH-style tuned collective selection as a controlled axis");

  const int nranks = static_cast<int>(opts.get_int("nranks", 8));
  const int iters = static_cast<int>(opts.get_int("iters", 2));
  const std::size_t sizes[] = {4096, std::size_t{1} << 20};
  const struct {
    core::ProtocolKind proto;
    int r;
    const char* name;
  } protos[] = {{core::ProtocolKind::Native, 1, "native"},
                {core::ProtocolKind::Sdr, 2, "sdr-r2"}};

  std::vector<bench::Point> points;
  std::vector<Meta> metas;
  for (const AlgPoint& ap : algorithm_points()) {
    for (const std::size_t bytes : sizes) {
      for (const auto& pr : protos) {
        for (const bool symbolic : {true, false}) {
          core::RunConfig cfg;
          cfg.nranks = nranks;
          cfg.replication = pr.r;
          cfg.protocol = pr.proto;
          cfg.coll = ap.tuning;
          const auto mode = symbolic ? wl::PayloadMode::Symbolic
                                     : wl::PayloadMode::Materialized;
          std::string label = std::string(to_string(ap.kind)) + "/" + ap.alg +
                              "/" + std::to_string(bytes) + "B/" + pr.name +
                              (symbolic ? "/sym" : "/mat");
          // Bytes and payload mode live only in the app, so they must
          // salt the content address: without a spec, each algorithm's
          // four (size x mode) points share one config and the service
          // would serve one simulation for all of them — making the
          // sym/mat equality check below vacuously true. Not a registry
          // name (coll_app is local), so this bench cannot run --listen.
          std::string spec = std::string("coll:") + to_string(ap.kind) +
                             " bytes=" + std::to_string(bytes) +
                             " mode=" + (symbolic ? "sym" : "mat") +
                             " iters=" + std::to_string(iters);
          points.push_back({std::move(label), cfg,
                            coll_app(ap.kind, bytes, mode, iters),
                            std::move(spec)});
          metas.push_back({symbolic, ap.packing,
                           ap.tuning.bcast == mpi::BcastAlg::ScatterAllgather,
                           ap.kind, pr.r, bytes});
        }
      }
    }
  }

  const auto results = bench::run_points(points, opts);
  if (bench::json_mode(opts)) {
    bench::emit_json(std::cout, "fig_collectives", points, results);
  } else {
    util::Table table({"Point", "Time (ms)", "Wire MB", "Host-copied MB",
                       "Host-hashed MB"});
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto& r = results[i].run;
      table.add_row(
          {points[i].label, util::format_double(results[i].mean_sec * 1e3, 3),
           util::format_double(
               static_cast<double>(r.fabric.payload_bytes) / 1e6, 2),
           util::format_double(static_cast<double>(r.bytes_copied) / 1e6, 2),
           util::format_double(static_cast<double>(r.bytes_hashed) / 1e6,
                               2)});
    }
    table.print(std::cout);
  }

  if (opts.get_bool("check", false)) {
    int rc = 0;
    // Points come in sym/mat pairs: timing transparency + identical
    // checksums are the engine's contract.
    for (std::size_t i = 0; i + 1 < points.size(); i += 2) {
      const auto& sym = results[i].run;
      const auto& mat = results[i + 1].run;
      if (sym.makespan != mat.makespan) {
        std::cerr << "fig_collectives: symbolic/materialized makespan "
                  << "diverged on '" << points[i].label << "': "
                  << sym.makespan << " vs " << mat.makespan << "\n";
        rc = 1;
      }
      for (std::size_t s = 0; s < sym.slots.size(); ++s) {
        if (sym.slots[s].checksum != mat.slots[s].checksum) {
          std::cerr << "fig_collectives: checksum diverged on '"
                    << points[i].label << "' slot " << s << "\n";
          rc = 1;
          break;
        }
      }
    }
    // Large-message points copy no payload block in either mode: symbolic
    // contents never exist as bytes, materialized ones are written in place
    // into their slabs. Only headers and control frames are copied.
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Meta& m = metas[i];
      if (m.bytes < 65536) continue;
      const auto& r = results[i].run;
      if (r.bytes_copied * 20 > r.fabric.payload_bytes) {
        std::cerr << "fig_collectives: point '" << points[i].label
                  << "' copied " << r.bytes_copied << " host bytes against "
                  << r.fabric.payload_bytes << " wire bytes\n";
        rc = 1;
      }
    }
    // A materialized scatter-allgather bcast re-joins every rank's segments
    // into the root's own buffer, so the digest is computed once per call
    // per root replica, not once per rank.
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Meta& m = metas[i];
      if (m.symbolic || !m.sag_bcast) continue;
      const auto& r = results[i].run;
      const std::uint64_t bound =
          2 * m.bytes * static_cast<std::uint64_t>(iters);
      if (r.bytes_hashed > bound) {
        std::cerr << "fig_collectives: materialized bcast '"
                  << points[i].label << "' hashed " << r.bytes_hashed
                  << " host bytes, bound " << bound << "\n";
        rc = 1;
      }
    }
    // Packing algorithms join into ropes, so a materialized point hashes
    // each distinct block (Bruck) or the one result chain (Rabenseifner)
    // once per replica, not once per rank that holds it.
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Meta& m = metas[i];
      if (m.symbolic || !m.packing) continue;
      const auto& r = results[i].run;
      const std::uint64_t per_call =
          m.kind == CollKind::Allreduce
              ? m.bytes
              : static_cast<std::uint64_t>(nranks) * m.bytes;
      const std::uint64_t bound = static_cast<std::uint64_t>(m.replication) *
                                  per_call * static_cast<std::uint64_t>(iters);
      if (r.bytes_hashed > bound) {
        std::cerr << "fig_collectives: materialized packing point '"
                  << points[i].label << "' hashed " << r.bytes_hashed
                  << " host bytes, bound " << bound << "\n";
        rc = 1;
      }
    }
    // Every rank contributes an equal block, so its digest is served from
    // the live-digest table while one copy lives; the allreduce operands and
    // result are zeros, whose 64-byte blocks all fold in closed form.
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Meta& m = metas[i];
      if (m.symbolic || m.kind == CollKind::Bcast) continue;
      const auto& r = results[i].run;
      const std::uint64_t bound =
          m.kind == CollKind::Allreduce
              ? 0
              : static_cast<std::uint64_t>(m.replication) * m.bytes *
                    static_cast<std::uint64_t>(iters);
      if (r.bytes_hashed > bound) {
        std::cerr << "fig_collectives: materialized point '"
                  << points[i].label << "' hashed " << r.bytes_hashed
                  << " host bytes, bound " << bound << "\n";
        rc = 1;
      }
    }
    if (rc != 0) return rc;
  }
  return 0;
}

int main(int argc, char** argv) {
  return sdrmpi::bench::run_main(argc, argv, bench_main);
}
