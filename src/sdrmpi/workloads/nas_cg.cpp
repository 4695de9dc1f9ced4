// CG: conjugate gradient on a synthetic sparse SPD matrix.
//
// Row-block distribution; the matvec gathers the full vector with an
// allgather ring (standing in for NAS CG's transpose exchanges) and the dot
// products are scalar allreduces — the latency-bound pattern that makes CG
// the most replication-sensitive NAS kernel in the paper's Table 1 (4.92%).
#include "sdrmpi/workloads/nas.hpp"

#include <cmath>
#include <iterator>
#include <span>
#include <vector>

#include "sdrmpi/util/hash.hpp"
#include "sdrmpi/util/rng.hpp"
#include "sdrmpi/workloads/grid.hpp"

namespace sdrmpi::wl {
namespace {

/// Symmetric banded matrix: 1D Laplacian plus fixed off-diagonal bands with
/// pair-symmetric weights. Diagonally dominant, hence SPD. The band weights
/// are constants of the run, so a rank draws the weights of its own rows
/// [row0, row0 + count) once, not on every matvec.
class BandedMatrix {
 public:
  static constexpr int kBands[3] = {16, 64, 256};

  BandedMatrix(int nrows, std::uint64_t seed, int row0, int count)
      : nrows_(nrows), row0_(row0), count_(count) {
    // Per row and band, the weight below the diagonal, then the one above;
    // a slot whose neighbour lies outside the matrix is never read.
    weights_.resize(static_cast<std::size_t>(count) * 2 * std::size(kBands));
    double* w = weights_.data();
    for (int i = row0; i < row0 + count; ++i) {
      for (int band : kBands) {
        *w++ = i - band >= 0 ? band_weight(seed, i - band, band) : 0.0;
        *w++ = i + band < nrows ? band_weight(seed, i, band) : 0.0;
      }
    }
  }

  /// y[li] = sum_j A(row0 + li, j) x[j] over this rank's rows.
  void matvec(std::span<const double> x, std::span<double> y) const {
    const double* w = weights_.data();
    for (int li = 0; li < count_; ++li) {
      const int i = row0_ + li;
      double diag = 2.0 + 1.0;  // Laplacian diagonal + dominance margin
      double acc = 0.0;
      if (i > 0) acc -= x[static_cast<std::size_t>(i - 1)];
      if (i + 1 < nrows_) acc -= x[static_cast<std::size_t>(i + 1)];
      for (int band : kBands) {
        const double below = *w++;
        const double above = *w++;
        if (i - band >= 0) {
          acc -= below * x[static_cast<std::size_t>(i - band)];
          diag += below;
        }
        if (i + band < nrows_) {
          acc -= above * x[static_cast<std::size_t>(i + band)];
          diag += above;
        }
      }
      y[static_cast<std::size_t>(li)] = diag * x[static_cast<std::size_t>(i)] + acc;
    }
  }

 private:
  [[nodiscard]] static double band_weight(std::uint64_t seed, int lo,
                                          int band) {
    std::uint64_t s = seed ^ (static_cast<std::uint64_t>(lo) << 20) ^
                      static_cast<std::uint64_t>(band);
    return 0.1 + 0.4 * (static_cast<double>(util::splitmix64(s) >> 11) *
                        0x1.0p-53);
  }

  int nrows_;
  int row0_;
  int count_;
  std::vector<double> weights_;
};

}  // namespace

core::AppFn make_nas_cg(CgParams p) {
  if (p.payload != PayloadMode::Real) return detail::make_cg_skeleton(p);
  return [p](mpi::Env& env) {
    auto& world = env.world();
    const int np = world.size();
    const int rank = env.rank();
    const int local = p.nrows / np;
    const int row0 = rank * local;
    const BandedMatrix A(p.nrows, p.seed, row0, local);

    // b: deterministic pseudo-random right-hand side.
    std::vector<double> x(static_cast<std::size_t>(p.nrows), 0.0);
    std::vector<double> r(static_cast<std::size_t>(local));
    util::Rng rng(p.seed ^ 0xb00bULL);
    std::vector<double> b_full(static_cast<std::size_t>(p.nrows));
    for (auto& v : b_full) v = rng.uniform(-1.0, 1.0);
    for (int i = 0; i < local; ++i) {
      r[static_cast<std::size_t>(i)] = b_full[static_cast<std::size_t>(row0 + i)];
    }

    std::vector<double> p_full(static_cast<std::size_t>(p.nrows), 0.0);
    std::vector<double> p_local(r.begin(), r.end());
    std::vector<double> q(static_cast<std::size_t>(local));

    auto dot_local = [&](std::span<const double> a, std::span<const double> b) {
      double s = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
      charge_flops(env, 2.0 * static_cast<double>(a.size()), p.compute_scale);
      return s;
    };

    double rr = world.allreduce_value(dot_local(r, r), mpi::Op::Sum);
    for (int it = 0; it < p.iters; ++it) {
      // Gather the full search direction for the matvec.
      world.allgather(std::span<const double>(p_local),
                      std::span<double>(p_full));
      A.matvec(p_full, q);
      charge_flops(env, 18.0 * static_cast<double>(local), p.compute_scale);

      const double pq =
          world.allreduce_value(dot_local(p_local, q), mpi::Op::Sum);
      const double alpha = rr / pq;
      for (int i = 0; i < local; ++i) {
        x[static_cast<std::size_t>(row0 + i)] +=
            alpha * p_local[static_cast<std::size_t>(i)];
        r[static_cast<std::size_t>(i)] -= alpha * q[static_cast<std::size_t>(i)];
      }
      charge_flops(env, 4.0 * static_cast<double>(local), p.compute_scale);

      const double rr_new = world.allreduce_value(dot_local(r, r), mpi::Op::Sum);
      const double beta = rr_new / rr;
      rr = rr_new;
      for (int i = 0; i < local; ++i) {
        p_local[static_cast<std::size_t>(i)] =
            r[static_cast<std::size_t>(i)] +
            beta * p_local[static_cast<std::size_t>(i)];
      }
      charge_flops(env, 2.0 * static_cast<double>(local), p.compute_scale);
    }

    util::Checksum cs;
    cs.add_double(rr);
    cs.add_range(std::span<const double>(r));
    env.report_checksum(cs.digest());
    env.report_value("residual", std::sqrt(rr));
  };
}

}  // namespace sdrmpi::wl
