// NAS class tables and the class C/D communication skeletons.
//
// A skeleton reproduces its kernel's message pattern — sizes, tags,
// ordering, collectives for the scalar reductions — and charges the same
// modeled flops, but moves payload contents per PayloadMode (symbolic
// descriptors or materialized pattern bytes; see symbolic.hpp) instead of
// computing on field arrays. That removes the O(problem size) host memory
// and byte traffic, which is what makes class C (and D) runnable: a class D
// FT field is ~128 GB across ranks, but its skeleton peaks at a few MB of
// host RSS because every alltoall block is a content descriptor.
//
// Checksums fold the digest of every received message plus the scalar
// reduction results, so replicas (and the Symbolic/Materialized oracle
// pair) must agree bit-for-bit — the same correctness contract as the real
// kernels.
#include <array>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "sdrmpi/util/hash.hpp"
#include "sdrmpi/workloads/cm1.hpp"
#include "sdrmpi/workloads/grid.hpp"
#include "sdrmpi/workloads/hpccg.hpp"
#include "sdrmpi/workloads/nas.hpp"

namespace sdrmpi::wl {

const char* to_string(NasClass c) noexcept {
  switch (c) {
    case NasClass::S: return "S";
    case NasClass::W: return "W";
    case NasClass::A: return "A";
    case NasClass::B: return "B";
    case NasClass::C: return "C";
    case NasClass::D: return "D";
  }
  return "?";
}

NasClass parse_nas_class(const std::string& s) {
  if (s.size() == 1) {
    switch (s[0]) {
      case 'S': case 's': return NasClass::S;
      case 'W': case 'w': return NasClass::W;
      case 'A': case 'a': return NasClass::A;
      case 'B': case 'b': return NasClass::B;
      case 'C': case 'c': return NasClass::C;
      case 'D': case 'd': return NasClass::D;
      default: break;
    }
  }
  throw std::invalid_argument("unknown NAS class: " + s);
}

// ---- class tables (NAS convention, grid sizes rounded to divide 8 ranks) --

void apply_class(CgParams& p, NasClass c) {
  switch (c) {
    case NasClass::S: p.nrows = 1400; p.iters = 15; break;
    case NasClass::W: p.nrows = 7000; p.iters = 15; break;
    case NasClass::A: p.nrows = 14000; p.iters = 15; break;
    case NasClass::B: p.nrows = 75000; p.iters = 75; break;
    case NasClass::C: p.nrows = 150000; p.iters = 75; break;
    case NasClass::D: p.nrows = 1500000; p.iters = 100; break;
  }
}

void apply_class(MgParams& p, NasClass c) {
  switch (c) {
    case NasClass::S: p.nx = p.ny = p.nz = 32; p.iters = 4; break;
    case NasClass::W: p.nx = p.ny = p.nz = 128; p.iters = 4; break;
    case NasClass::A: p.nx = p.ny = p.nz = 256; p.iters = 4; break;
    case NasClass::B: p.nx = p.ny = p.nz = 256; p.iters = 20; break;
    case NasClass::C: p.nx = p.ny = p.nz = 512; p.iters = 20; break;
    case NasClass::D: p.nx = p.ny = p.nz = 1024; p.iters = 50; break;
  }
}

void apply_class(FtParams& p, NasClass c) {
  switch (c) {
    case NasClass::S: p.nx = p.ny = p.nz = 64; p.iters = 6; break;
    case NasClass::W: p.nx = 128; p.ny = 128; p.nz = 32; p.iters = 6; break;
    case NasClass::A: p.nx = 256; p.ny = 256; p.nz = 128; p.iters = 6; break;
    case NasClass::B: p.nx = 512; p.ny = 256; p.nz = 256; p.iters = 20; break;
    case NasClass::C: p.nx = p.ny = p.nz = 512; p.iters = 20; break;
    case NasClass::D: p.nx = 2048; p.ny = 1024; p.nz = 1024; p.iters = 25;
      break;
  }
}

void apply_class(AdiParams& p, NasClass c) {
  switch (c) {
    case NasClass::S: p.nx = 16; p.ny = 12; p.nz = 12; p.iters = 10; break;
    case NasClass::W: p.nx = 24; p.ny = 24; p.nz = 24; p.iters = 20; break;
    case NasClass::A: p.nx = 64; p.ny = 64; p.nz = 64; p.iters = 40; break;
    case NasClass::B: p.nx = 104; p.ny = 102; p.nz = 102; p.iters = 40; break;
    case NasClass::C: p.nx = 160; p.ny = 162; p.nz = 162; p.iters = 40; break;
    case NasClass::D: p.nx = 408; p.ny = 408; p.nz = 408; p.iters = 50; break;
  }
}

namespace detail {
namespace {

constexpr std::size_t kDouble = sizeof(double);

}  // namespace

// ---- CG: ring allgather of the search direction + scalar dot products ----

core::AppFn make_cg_skeleton(CgParams p) {
  return [p](mpi::Env& env) {
    auto& world = env.world();
    const int np = world.size();
    const int rank = env.rank();
    const int local = p.nrows / np;
    const std::size_t block = static_cast<std::size_t>(local) * kDouble;
    SymColl coll(world, p.payload, p.seed);
    util::Checksum cs;

    double rr = 1.0 + rank;
    for (int it = 0; it < p.iters; ++it) {
      // Allgather of the full search direction through the collective
      // engine (ring or Bruck per the run's CollTuning; symbolic blocks
      // stay descriptors end to end).
      coll.allgather(block, /*tag=*/500, cs);
      // Matvec over the gathered vector (same flops as the real kernel).
      charge_flops(env, 18.0 * static_cast<double>(local), p.compute_scale);
      // Three scalar allreduces per iteration (p·q, two r·r), each paired
      // with a local dot product — CG's latency-bound signature.
      for (int d = 0; d < 3; ++d) {
        charge_flops(env, 2.0 * static_cast<double>(local), p.compute_scale);
        rr = world.allreduce_value(rr / np + d, mpi::Op::Sum);
      }
      // axpy updates.
      charge_flops(env, 6.0 * static_cast<double>(local), p.compute_scale);
    }

    cs.add_double(rr);
    env.report_checksum(cs.digest());
    env.report_value("residual", rr);
  };
}

// ---- MG: per-level 6-neighbour halo exchanges through the V-cycle ----

namespace {

struct MgLevelDims {
  int nx, ny, nz;
};

/// One skeleton halo exchange: both directions of all three axes,
/// kProcNull at domain boundaries exactly like HaloExchanger.
void skeleton_halo(mpi::Env& env, SymXfer& x, const std::array<int, 3>& pg,
                   const std::array<int, 3>& coords, const MgLevelDims& d,
                   int tag_base, util::Checksum& cs) {
  (void)env;
  const std::size_t plane[3] = {
      static_cast<std::size_t>(d.ny) * d.nz * kDouble,
      static_cast<std::size_t>(d.nx) * d.nz * kDouble,
      static_cast<std::size_t>(d.nx) * d.ny * kDouble,
  };
  auto neighbor = [&](int axis, int dir) {
    std::array<int, 3> c = coords;
    c[static_cast<std::size_t>(axis)] += dir;
    if (c[static_cast<std::size_t>(axis)] < 0 ||
        c[static_cast<std::size_t>(axis)] >=
            pg[static_cast<std::size_t>(axis)]) {
      return mpi::kProcNull;
    }
    return (c[2] * pg[1] + c[1]) * pg[0] + c[0];
  };
  for (int axis = 0; axis < 3; ++axis) {
    const std::size_t bytes = plane[static_cast<std::size_t>(axis)];
    for (int dir = -1; dir <= 1; dir += 2) {
      const int tag = tag_base + axis * 2 + (dir + 1) / 2;
      x.sendrecv(bytes, neighbor(axis, dir), bytes, neighbor(axis, -dir),
                 tag, cs);
    }
  }
}

}  // namespace

core::AppFn make_mg_skeleton(MgParams p) {
  return [p](mpi::Env& env) {
    auto& world = env.world();
    const auto pg = decompose_3d(world.size());
    const int rank = env.rank();
    const std::array<int, 3> coords{rank % pg[0], (rank / pg[0]) % pg[1],
                                    rank / (pg[0] * pg[1])};
    SymXfer x(world, p.payload, p.seed);
    util::Checksum cs;

    // Level hierarchy: halve local dims while everything stays even.
    std::vector<MgLevelDims> levels;
    int nx = p.nx / pg[0], ny = p.ny / pg[1], nz = p.nz / pg[2];
    for (;;) {
      levels.push_back({nx, ny, nz});
      if (nx % 2 != 0 || ny % 2 != 0 || nz % 2 != 0 || nx < 4 || ny < 4 ||
          nz < 4) {
        break;
      }
      nx /= 2;
      ny /= 2;
      nz /= 2;
    }

    auto cells = [](const MgLevelDims& d) {
      return static_cast<double>(d.nx) * d.ny * d.nz;
    };
    auto smooth = [&](std::size_t l, int tag_base) {
      skeleton_halo(env, x, pg, coords, levels[l], tag_base, cs);
      charge_flops(env, 9.0 * cells(levels[l]), p.compute_scale);
    };

    for (int it = 0; it < p.iters; ++it) {
      for (std::size_t l = 0; l + 1 < levels.size(); ++l) {
        smooth(l, 200 + static_cast<int>(l) * 8);
        // restrict: one more halo on the fine level + averaging flops.
        skeleton_halo(env, x, pg, coords, levels[l],
                      204 + static_cast<int>(l) * 8, cs);
        charge_flops(env, 80.0 * cells(levels[l + 1]), p.compute_scale);
      }
      for (int s = 0; s < 4; ++s) {
        smooth(levels.size() - 1,
               200 + static_cast<int>(levels.size() - 1) * 8);
      }
      for (std::size_t l = levels.size() - 1; l > 0; --l) {
        charge_flops(env, 8.0 * cells(levels[l]), p.compute_scale);  // prolong
        smooth(l - 1, 200 + static_cast<int>(l - 1) * 8);
      }
    }

    const double norm = world.allreduce_value(
        static_cast<double>(cs.digest() >> 32), mpi::Op::Sum);
    cs.add_double(norm);
    env.report_checksum(cs.digest());
    env.report_value("norm", norm);
  };
}

// ---- FT: pairwise-exchange alltoall transpose between FFT phases ----

core::AppFn make_ft_skeleton(FtParams p) {
  return [p](mpi::Env& env) {
    auto& world = env.world();
    const int np = world.size();
    const int nzl = p.nz / np;
    const int nxl = p.nx / np;
    // Complex per-pair transpose block, exactly the real kernel's sendbuf
    // slice: (nx/np) * ny * (nz/np) elements of 16 bytes.
    const std::size_t block = static_cast<std::size_t>(nxl) * p.ny * nzl * 16;
    SymColl coll(world, p.payload, p.seed);
    util::Checksum cs;

    auto fft_xy_flops = [&] {
      charge_flops(env,
                   5.0 * p.nx * static_cast<double>(p.ny) * nzl *
                       (std::log2(static_cast<double>(p.nx)) +
                        std::log2(static_cast<double>(p.ny))),
                   p.compute_scale);
    };
    auto fft_z_flops = [&] {
      charge_flops(env,
                   5.0 * nxl * static_cast<double>(p.ny) * p.nz *
                       std::log2(static_cast<double>(p.nz)),
                   p.compute_scale);
    };
    auto alltoall = [&](int tag_base) {
      // Transpose through the collective engine (pairwise or Bruck per the
      // run's CollTuning); the self-block stays a local handle alias.
      coll.alltoall(block, tag_base, cs);
    };

    for (int it = 1; it <= p.iters; ++it) {
      fft_xy_flops();
      alltoall(700);
      fft_z_flops();
      charge_flops(env, 4.0 * nxl * static_cast<double>(p.ny) * p.nz,
                   p.compute_scale);  // spectral evolution
      fft_z_flops();
      alltoall(700 + np);
      fft_xy_flops();
    }

    const double energy = world.allreduce_value(
        static_cast<double>(cs.digest() & 0xffffffff), mpi::Op::Sum);
    cs.add_double(energy);
    env.report_checksum(cs.digest());
    env.report_value("energy", energy);
  };
}

// ---- BT/SP: pipelined line sweeps along the decomposed axis ----

core::AppFn make_adi_skeleton(AdiParams p, bool bt) {
  return [p, bt](mpi::Env& env) {
    auto& world = env.world();
    const int np = world.size();
    const int rank = env.rank();
    const int lx = p.nx / np;
    // BT carries 3x3 block interface data per line cell, SP scalar
    // pentadiagonal carry — 5 vs 3 doubles per (y, z) line.
    const std::size_t plane = static_cast<std::size_t>(p.ny) * p.nz *
                              (bt ? 5 : 3) * kDouble;
    const double line_flops = (bt ? 60.0 : 30.0) * lx *
                              static_cast<double>(p.ny) * p.nz;
    SymXfer x(world, p.payload, p.seed);
    util::Checksum cs;

    for (int it = 0; it < p.iters; ++it) {
      // Forward sweep: wait for the upstream interface plane, eliminate
      // local lines, pass the interface downstream.
      if (rank > 0) {
        auto r = x.irecv(plane, rank - 1, 900);
        world.wait(r);
        cs.add_u64(x.take_digest(r));
      }
      charge_flops(env, line_flops, p.compute_scale);
      if (rank + 1 < np) {
        auto s = x.isend(plane, rank + 1, 900);
        world.wait(s);
      }
      // Backward substitution sweep.
      if (rank + 1 < np) {
        auto r = x.irecv(plane, rank + 1, 901);
        world.wait(r);
        cs.add_u64(x.take_digest(r));
      }
      charge_flops(env, line_flops * 0.5, p.compute_scale);
      if (rank > 0) {
        auto s = x.isend(plane, rank - 1, 901);
        world.wait(s);
      }
    }

    const double norm =
        world.allreduce_value(static_cast<double>(cs.digest() >> 40),
                              mpi::Op::Sum);
    cs.add_double(norm);
    env.report_checksum(cs.digest());
    env.report_value("norm", norm);
  };
}

// ---- HPCCG: z-stacked 27-point CG with ANY_SOURCE halo receives ----

core::AppFn make_hpccg_skeleton(HpccgParams p) {
  return [p](mpi::Env& env) {
    auto& world = env.world();
    const int np = world.size();
    const int rank = env.rank();
    const std::size_t plane = static_cast<std::size_t>(p.nx) * p.ny * kDouble;
    const double cells = static_cast<double>(p.nx) * p.ny * p.nz;
    SymXfer x(world, p.payload, p.seed);
    util::Checksum cs;
    double rr = 1.0 + rank;

    for (int it = 0; it < p.iters; ++it) {
      // Halo exchange with the z neighbours; the miniapp posts its
      // receives as MPI_ANY_SOURCE identified by direction tags (domain
      // boundaries keep kProcNull so no phantom wildcard recv is posted).
      const int below = rank > 0 ? rank - 1 : mpi::kProcNull;
      const int above = rank + 1 < np ? rank + 1 : mpi::kProcNull;
      auto src = [](int peer) {
        return peer == mpi::kProcNull ? mpi::kProcNull : mpi::kAnySource;
      };
      mpi::Request recvs[2] = {x.irecv(plane, src(below), 300),
                               x.irecv(plane, src(above), 301)};
      mpi::Request sends[2] = {x.isend(plane, below, 301),
                               x.isend(plane, above, 300)};
      world.waitall(recvs);
      world.waitall(sends);
      for (auto& r : recvs) cs.add_u64(x.take_digest(r));

      charge_flops(env, 27.0 * 2.0 * cells, p.compute_scale);  // matvec
      for (int d = 0; d < 2; ++d) {
        charge_flops(env, 2.0 * cells, p.compute_scale);  // dot
        rr = world.allreduce_value(rr / np + d, mpi::Op::Sum);
      }
      charge_flops(env, 4.0 * cells, p.compute_scale);  // axpys
    }

    cs.add_double(rr);
    env.report_checksum(cs.digest());
    env.report_value("residual", rr);
  };
}

// ---- CM1: 2D-decomposed advection step with ANY_SOURCE halos ----

core::AppFn make_cm1_skeleton(Cm1Params p) {
  return [p](mpi::Env& env) {
    auto& world = env.world();
    const auto pg = decompose_2d(world.size());
    const int rank = env.rank();
    const std::array<int, 2> coords{rank % pg[0], rank / pg[0]};
    const int lx = p.nx / pg[0];
    const int ly = p.ny / pg[1];
    const std::size_t xplane = static_cast<std::size_t>(ly) * p.nz * kDouble;
    const std::size_t yplane = static_cast<std::size_t>(lx) * p.nz * kDouble;
    SymXfer x(world, p.payload, p.seed);
    util::Checksum cs;

    auto neighbor = [&](int axis, int dir) {
      std::array<int, 2> c = coords;
      c[static_cast<std::size_t>(axis)] += dir;
      if (c[static_cast<std::size_t>(axis)] < 0 ||
          c[static_cast<std::size_t>(axis)] >=
              pg[static_cast<std::size_t>(axis)]) {
        return mpi::kProcNull;
      }
      return c[1] * pg[0] + c[0];
    };

    double cfl = 0.5 + rank;
    for (int it = 0; it < p.iters; ++it) {
      for (int axis = 0; axis < 2; ++axis) {
        const std::size_t bytes = axis == 0 ? xplane : yplane;
        for (int dir = -1; dir <= 1; dir += 2) {
          const int tag = 400 + axis * 2 + (dir + 1) / 2;
          const int from = neighbor(axis, -dir);
          mpi::Request r = x.irecv(
              bytes, from == mpi::kProcNull ? mpi::kProcNull : mpi::kAnySource,
              tag);
          mpi::Request s = x.isend(bytes, neighbor(axis, dir), tag);
          world.wait(r);
          world.wait(s);
          cs.add_u64(x.take_digest(r));
        }
      }
      charge_flops(env, 50.0 * lx * static_cast<double>(ly) * p.nz,
                   p.compute_scale);
      cfl = world.allreduce_value(cfl / world.size(), mpi::Op::Max);
    }

    cs.add_double(cfl);
    env.report_checksum(cs.digest());
    env.report_value("cfl", cfl);
  };
}

}  // namespace detail
}  // namespace sdrmpi::wl
