// HPCCG: conjugate gradient for a 27-point stencil on a 3D "chimney"
// domain (Mantevo miniapp; paper Table 2).
//
// The domain is nx x ny x (nz * nranks), decomposed along z like the real
// miniapp, and — the property the paper selected it for — the halo exchange
// posts MPI_ANY_SOURCE receives. Under SDR-MPI these anonymous receptions
// cost nothing extra; leader-based protocols pay a decision round-trip.
#pragma once

#include <cstdint>

#include "sdrmpi/core/launcher.hpp"
#include "sdrmpi/workloads/symbolic.hpp"

namespace sdrmpi::wl {

struct HpccgParams {
  int nx = 32, ny = 32, nz = 16;  ///< local block per rank (z stacks ranks)
  int iters = 30;
  std::uint64_t seed = 0x5eedccULL;
  double compute_scale = 1.0;
  PayloadMode payload = PayloadMode::Real;  ///< non-Real: skeleton kernel
};

[[nodiscard]] core::AppFn make_hpccg(HpccgParams p = {});

namespace detail {
[[nodiscard]] core::AppFn make_hpccg_skeleton(HpccgParams p);
}  // namespace detail

}  // namespace sdrmpi::wl
