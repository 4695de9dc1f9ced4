#include "sdrmpi/workloads/registry.hpp"

#include <stdexcept>

#include "sdrmpi/workloads/cm1.hpp"
#include "sdrmpi/workloads/coll_mix.hpp"
#include "sdrmpi/workloads/hpccg.hpp"
#include "sdrmpi/workloads/nas.hpp"
#include "sdrmpi/workloads/netpipe.hpp"

namespace sdrmpi::wl {

namespace {

// HPCCG and CM1 are not NAS-classed upstream; these tables scale them into
// the same size ballpark so `--class C/D` means "GB-scale messages" across
// the whole registry. HPCCG sizes are the local block per rank (the
// chimney domain stacks ranks along z), CM1 sizes the global grid.
void apply_hpccg_class(HpccgParams& p, NasClass c) {
  switch (c) {
    case NasClass::S: p.nx = p.ny = 16; p.nz = 8; p.iters = 10; break;
    case NasClass::W: p.nx = p.ny = 32; p.nz = 16; p.iters = 20; break;
    case NasClass::A: p.nx = p.ny = 64; p.nz = 32; p.iters = 30; break;
    case NasClass::B: p.nx = p.ny = 96; p.nz = 48; p.iters = 30; break;
    case NasClass::C: p.nx = p.ny = 128; p.nz = 64; p.iters = 30; break;
    case NasClass::D: p.nx = p.ny = 256; p.nz = 128; p.iters = 40; break;
  }
}

void apply_cm1_class(Cm1Params& p, NasClass c) {
  switch (c) {
    case NasClass::S: p.nx = p.ny = 32; p.nz = 8; p.iters = 10; break;
    case NasClass::W: p.nx = p.ny = 64; p.nz = 16; p.iters = 10; break;
    case NasClass::A: p.nx = p.ny = 128; p.nz = 32; p.iters = 15; break;
    case NasClass::B: p.nx = p.ny = 256; p.nz = 48; p.iters = 15; break;
    case NasClass::C: p.nx = p.ny = 512; p.nz = 64; p.iters = 15; break;
    case NasClass::D: p.nx = p.ny = 1024; p.nz = 64; p.iters = 20; break;
  }
}

}  // namespace

const std::vector<WorkloadInfo>& workloads() {
  static const std::vector<WorkloadInfo> kAll = {
      {"netpipe", "ping-pong latency/throughput sweep", false, 2},
      {"coll", "synthetic collective mix (bcast/allgather/alltoall/allreduce)",
       false, 8},
      {"bt", "NAS-like BT: block-tridiagonal ADI sweeps", false, 8},
      {"cg", "NAS-like CG: conjugate gradient", false, 8},
      {"ft", "NAS-like FT: 3D FFT with alltoall transpose", false, 8},
      {"mg", "NAS-like MG: multigrid V-cycles", false, 8},
      {"sp", "NAS-like SP: scalar-pentadiagonal ADI sweeps", false, 8},
      {"hpccg", "HPCCG miniapp: 27-pt CG with ANY_SOURCE halos", true, 8},
      {"cm1", "CM1-like atmosphere stencil with ANY_SOURCE halos", true, 4},
  };
  return kAll;
}

core::AppFn make_workload(const std::string& name, const util::Options& opts) {
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 0x5eedULL));
  const double scale = opts.get_double("compute-scale", 1.0);
  const int iters = static_cast<int>(opts.get_int("iters", -1));

  // Problem class (--class S..D) and payload mode (--symbolic /
  // --materialize). Classes C and D are skeleton-only: their field arrays
  // are GBs per rank, so selecting them implies symbolic payloads unless
  // --materialize forces the oracle twin.
  const std::string cls_str = opts.get_string("class", "");
  const bool has_class = !cls_str.empty();
  const NasClass cls = has_class ? parse_nas_class(cls_str) : NasClass::S;
  const bool big_class =
      has_class && (cls == NasClass::C || cls == NasClass::D);
  PayloadMode mode = PayloadMode::Real;
  if (opts.get_bool("materialize", false)) {
    mode = PayloadMode::Materialized;
  } else if (opts.get_bool("symbolic", false) || big_class) {
    mode = PayloadMode::Symbolic;
  }

  if (name == "netpipe") {
    NetpipeParams p;
    p.reps = static_cast<int>(opts.get_int("reps", p.reps));
    p.symbolic = mode == PayloadMode::Symbolic;
    const auto sizes = opts.get_int_list("sizes", {});
    if (!sizes.empty()) {
      p.sizes.clear();
      for (auto s : sizes) p.sizes.push_back(static_cast<std::size_t>(s));
    }
    return make_netpipe(p);
  }
  if (name == "coll") {
    CollMixParams p;
    p.payload = mode;
    p.bcast_bytes = static_cast<std::size_t>(opts.get_int(
        "bcast-bytes", static_cast<std::int64_t>(p.bcast_bytes)));
    p.block_bytes = static_cast<std::size_t>(opts.get_int(
        "block-bytes", static_cast<std::int64_t>(p.block_bytes)));
    p.reduce_bytes = static_cast<std::size_t>(opts.get_int(
        "reduce-bytes", static_cast<std::int64_t>(p.reduce_bytes)));
    if (iters > 0) p.iters = iters;
    p.seed ^= seed;
    return make_coll_mix(p);
  }
  if (name == "cg") {
    CgParams p;
    if (has_class) apply_class(p, cls);
    p.payload = mode;
    p.nrows = static_cast<int>(opts.get_int("nrows", p.nrows));
    if (iters > 0) p.iters = iters;
    p.seed ^= seed;
    p.compute_scale = scale;
    return make_nas_cg(p);
  }
  if (name == "mg") {
    MgParams p;
    if (has_class) apply_class(p, cls);
    p.payload = mode;
    p.nx = static_cast<int>(opts.get_int("nx", p.nx));
    p.ny = static_cast<int>(opts.get_int("ny", p.ny));
    p.nz = static_cast<int>(opts.get_int("nz", p.nz));
    if (iters > 0) p.iters = iters;
    p.seed ^= seed;
    p.compute_scale = scale;
    return make_nas_mg(p);
  }
  if (name == "ft") {
    FtParams p;
    if (has_class) apply_class(p, cls);
    p.payload = mode;
    p.nx = static_cast<int>(opts.get_int("nx", p.nx));
    p.ny = static_cast<int>(opts.get_int("ny", p.ny));
    p.nz = static_cast<int>(opts.get_int("nz", p.nz));
    if (iters > 0) p.iters = iters;
    p.seed ^= seed;
    p.compute_scale = scale;
    return make_nas_ft(p);
  }
  if (name == "bt" || name == "sp") {
    AdiParams p;
    if (has_class) apply_class(p, cls);
    p.payload = mode;
    p.nx = static_cast<int>(opts.get_int("nx", p.nx));
    p.ny = static_cast<int>(opts.get_int("ny", p.ny));
    p.nz = static_cast<int>(opts.get_int("nz", p.nz));
    if (iters > 0) p.iters = iters;
    p.seed ^= seed;
    p.compute_scale = scale;
    return name == "bt" ? make_nas_bt(p) : make_nas_sp(p);
  }
  if (name == "hpccg") {
    HpccgParams p;
    if (has_class) apply_hpccg_class(p, cls);
    p.payload = mode;
    p.nx = static_cast<int>(opts.get_int("nx", p.nx));
    p.ny = static_cast<int>(opts.get_int("ny", p.ny));
    p.nz = static_cast<int>(opts.get_int("nz", p.nz));
    if (iters > 0) p.iters = iters;
    p.seed ^= seed;
    p.compute_scale = scale;
    return make_hpccg(p);
  }
  if (name == "cm1") {
    Cm1Params p;
    if (has_class) apply_cm1_class(p, cls);
    p.payload = mode;
    p.nx = static_cast<int>(opts.get_int("nx", p.nx));
    p.ny = static_cast<int>(opts.get_int("ny", p.ny));
    p.nz = static_cast<int>(opts.get_int("nz", p.nz));
    if (iters > 0) p.iters = iters;
    p.seed ^= seed;
    p.compute_scale = scale;
    return make_cm1(p);
  }
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace sdrmpi::wl
