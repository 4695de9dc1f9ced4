#include "sdrmpi/workloads/cm1.hpp"

#include <vector>

#include "sdrmpi/util/hash.hpp"
#include "sdrmpi/util/rng.hpp"
#include "sdrmpi/workloads/grid.hpp"

namespace sdrmpi::wl {

core::AppFn make_cm1(Cm1Params p) {
  if (p.payload != PayloadMode::Real) return detail::make_cm1_skeleton(p);
  return [p](mpi::Env& env) {
    auto& world = env.world();
    const auto pg = decompose_2d(world.size());
    const int rank = env.rank();
    const std::array<int, 3> coords{rank % pg[0], rank / pg[0], 0};
    const int lx = p.nx / pg[0];
    const int ly = p.ny / pg[1];
    const double points = static_cast<double>(lx) * ly * p.nz;

    HaloExchanger halo{world, {pg[0], pg[1], 1}, coords,
                       /*any_source=*/true, 500};

    // Two prognostic fields: a scalar (theta) and a tracer.
    Field3D theta(lx, ly, p.nz);
    Field3D tracer(lx, ly, p.nz);
    util::Rng rng(p.seed ^ (static_cast<std::uint64_t>(rank) << 14));
    for (int k = 1; k <= p.nz; ++k)
      for (int j = 1; j <= ly; ++j)
        for (int i = 1; i <= lx; ++i) {
          theta.at(i, j, k) = 300.0 + rng.uniform(-1.0, 1.0);
          tracer.at(i, j, k) = rng.uniform(0.0, 1.0);
        }

    const double uwind = 0.8, vwind = -0.5;  // constant advecting wind
    const double dt = 0.1, dx = 1.0, nu = 0.05;

    auto step_field = [&](Field3D& f) {
      halo.exchange(env, f);
      Field3D next = f;
      for (int k = 1; k <= p.nz; ++k) {
        for (int j = 1; j <= ly; ++j) {
          for (int i = 1; i <= lx; ++i) {
            // First-order upwind advection + horizontal diffusion +
            // implicit-free vertical mixing.
            const double ddx = uwind > 0
                                   ? f.at(i, j, k) - f.at(i - 1, j, k)
                                   : f.at(i + 1, j, k) - f.at(i, j, k);
            const double ddy = vwind > 0
                                   ? f.at(i, j, k) - f.at(i, j - 1, k)
                                   : f.at(i, j + 1, k) - f.at(i, j, k);
            const double lap = f.at(i - 1, j, k) + f.at(i + 1, j, k) +
                               f.at(i, j - 1, k) + f.at(i, j + 1, k) -
                               4.0 * f.at(i, j, k);
            double vert = 0.0;
            if (k > 1) vert += f.at(i, j, k - 1) - f.at(i, j, k);
            if (k < p.nz) vert += f.at(i, j, k + 1) - f.at(i, j, k);
            next.at(i, j, k) =
                f.at(i, j, k) +
                dt * (-uwind * ddx / dx - vwind * ddy / dx +
                      nu * (lap + 0.5 * vert) / (dx * dx));
          }
        }
      }
      f = std::move(next);
      charge_flops(env, 20.0 * points, p.compute_scale);
    };

    for (int it = 0; it < p.iters; ++it) {
      step_field(theta);
      step_field(tracer);
      // Domain-wide diagnostics every few steps (CM1 prints maxima).
      if (it % 5 == 4) {
        double local_max = 0.0;
        for (int k = 1; k <= p.nz; ++k)
          for (int j = 1; j <= ly; ++j)
            for (int i = 1; i <= lx; ++i)
              local_max = std::max(local_max, tracer.at(i, j, k));
        (void)world.allreduce_value(local_max, mpi::Op::Max);
      }
    }

    double local_sum = 0.0;
    for (int k = 1; k <= p.nz; ++k)
      for (int j = 1; j <= ly; ++j)
        for (int i = 1; i <= lx; ++i)
          local_sum += theta.at(i, j, k) + tracer.at(i, j, k);
    const double total = world.allreduce_value(local_sum, mpi::Op::Sum);
    util::Checksum cs;
    cs.add_double(total);
    cs.add_range(theta.raw());
    cs.add_range(tracer.raw());
    env.report_checksum(cs.digest());
    env.report_value("mass", total);
  };
}

}  // namespace sdrmpi::wl
