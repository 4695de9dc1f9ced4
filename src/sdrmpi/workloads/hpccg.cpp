#include "sdrmpi/workloads/hpccg.hpp"

#include <cmath>
#include <vector>

#include "sdrmpi/util/hash.hpp"
#include "sdrmpi/util/rng.hpp"
#include "sdrmpi/workloads/grid.hpp"

namespace sdrmpi::wl {
namespace {

/// 27-point stencil matvec: y = A x, A = 27*I - sum(neighbours), applied to
/// a Field3D whose ghost layers have been exchanged along z.
void matvec27(const Field3D& x, Field3D& y) {
  for (int k = 1; k <= x.nz(); ++k) {
    for (int j = 1; j <= x.ny(); ++j) {
      for (int i = 1; i <= x.nx(); ++i) {
        double acc = 0.0;
        for (int dk = -1; dk <= 1; ++dk)
          for (int dj = -1; dj <= 1; ++dj)
            for (int di = -1; di <= 1; ++di)
              acc += x.at(i + di, j + dj, k + dk);
        y.at(i, j, k) = 27.0 * x.at(i, j, k) - (acc - x.at(i, j, k));
      }
    }
  }
}

}  // namespace

core::AppFn make_hpccg(HpccgParams p) {
  if (p.payload != PayloadMode::Real) return detail::make_hpccg_skeleton(p);
  return [p](mpi::Env& env) {
    auto& world = env.world();
    const int np = world.size();
    const int rank = env.rank();
    const double points =
        static_cast<double>(p.nx) * p.ny * p.nz;

    // z-decomposed chimney: my block is nx x ny x nz; ghosts only matter
    // along z (x/y boundaries are domain edges, ghost stays 0).
    HaloExchanger halo{world, {1, 1, np}, {0, 0, rank},
                       /*any_source=*/true, 400};

    Field3D pfield(p.nx, p.ny, p.nz);
    Field3D q(p.nx, p.ny, p.nz);
    Field3D xsol(p.nx, p.ny, p.nz);
    Field3D r(p.nx, p.ny, p.nz);

    util::Rng rng(p.seed ^ (static_cast<std::uint64_t>(rank) << 10));
    for (int k = 1; k <= p.nz; ++k)
      for (int j = 1; j <= p.ny; ++j)
        for (int i = 1; i <= p.nx; ++i) {
          r.at(i, j, k) = rng.uniform(0.0, 1.0);  // b with x0 = 0
          pfield.at(i, j, k) = r.at(i, j, k);
        }

    auto dot = [&](const Field3D& a, const Field3D& b) {
      double s = 0.0;
      for (int k = 1; k <= p.nz; ++k)
        for (int j = 1; j <= p.ny; ++j)
          for (int i = 1; i <= p.nx; ++i) s += a.at(i, j, k) * b.at(i, j, k);
      charge_flops(env, 2.0 * points, p.compute_scale);
      return world.allreduce_value(s, mpi::Op::Sum);
    };

    double rr = dot(r, r);
    for (int it = 0; it < p.iters; ++it) {
      halo.exchange(env, pfield);
      matvec27(pfield, q);
      charge_flops(env, 54.0 * points, p.compute_scale);

      const double alpha = rr / dot(pfield, q);
      for (int k = 1; k <= p.nz; ++k)
        for (int j = 1; j <= p.ny; ++j)
          for (int i = 1; i <= p.nx; ++i) {
            xsol.at(i, j, k) += alpha * pfield.at(i, j, k);
            r.at(i, j, k) -= alpha * q.at(i, j, k);
          }
      charge_flops(env, 4.0 * points, p.compute_scale);

      const double rr_new = dot(r, r);
      const double beta = rr_new / rr;
      rr = rr_new;
      for (int k = 1; k <= p.nz; ++k)
        for (int j = 1; j <= p.ny; ++j)
          for (int i = 1; i <= p.nx; ++i)
            pfield.at(i, j, k) = r.at(i, j, k) + beta * pfield.at(i, j, k);
      charge_flops(env, 2.0 * points, p.compute_scale);
    }

    util::Checksum cs;
    cs.add_double(rr);
    cs.add_range(xsol.raw());
    env.report_checksum(cs.digest());
    env.report_value("residual", std::sqrt(rr));
  };
}

}  // namespace sdrmpi::wl
