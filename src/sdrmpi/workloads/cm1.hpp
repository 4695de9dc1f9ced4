// CM1-like kernel: small-scale atmospheric modelling (paper Table 2).
//
// A 3D advection-diffusion step over a 2D (x,y) process decomposition with
// full vertical columns per rank — the structure of CM1's dynamical core —
// using ANY_SOURCE halo receives like the real application.
#pragma once

#include <cstdint>

#include "sdrmpi/core/launcher.hpp"
#include "sdrmpi/workloads/symbolic.hpp"

namespace sdrmpi::wl {

struct Cm1Params {
  int nx = 48, ny = 48;  ///< global horizontal grid (divisible by proc grid)
  int nz = 8;            ///< vertical column, local everywhere
  int iters = 15;        ///< timesteps
  std::uint64_t seed = 0x5eed31ULL;
  double compute_scale = 1.0;
  PayloadMode payload = PayloadMode::Real;  ///< non-Real: skeleton kernel
};

[[nodiscard]] core::AppFn make_cm1(Cm1Params p = {});

namespace detail {
[[nodiscard]] core::AppFn make_cm1_skeleton(Cm1Params p);
}  // namespace detail

}  // namespace sdrmpi::wl
