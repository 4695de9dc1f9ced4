// CollTuning: which algorithm each collective runs, and the deterministic
// Auto-selection thresholds (MPICH-style tuned selection).
//
// Algorithm choice changes message counts/sizes and therefore virtual time,
// so tuning is configuration, not an implementation detail: it lives in
// core::RunConfig, is a core::Sweep axis, and every non-default point has
// its own golden-trace variant. Auto selection is a pure function of
// (message bytes, communicator size) — bit-deterministic by construction:
// communicators below kMinTreeComm ranks get a fixed shape per collective,
// larger ones compare the message size with CollTuning's byte thresholds.
//
// This header is dependency-light on purpose (enums + a POD struct): it is
// included by core::RunConfig, while the schedules themselves live in
// coll/engine.{hpp,cpp}.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace sdrmpi::mpi {

enum class BcastAlg : std::uint8_t {
  Auto,              ///< binomial, scatter+allgather past bcast_long_bytes
  Binomial,          ///< classic binomial tree (latency-optimal)
  ScatterAllgather,  ///< van de Geijn: binomial scatter + ring allgather
};

enum class AllreduceAlg : std::uint8_t {
  Auto,               ///< recursive doubling, Rabenseifner for long vectors
  ReduceBcast,        ///< the seed's naive shape: binomial reduce + bcast
  RecursiveDoubling,  ///< log p exchange rounds of the whole vector
  Rabenseifner,       ///< reduce-scatter (recursive halving) + allgather
};

enum class AllgatherAlg : std::uint8_t {
  Auto,  ///< Bruck below allgather_bruck_bytes, ring above
  Ring,  ///< n-1 neighbour steps, one block each (bandwidth-optimal)
  Bruck, ///< ceil(log n) rounds of doubling block counts (latency-optimal)
};

enum class AlltoallAlg : std::uint8_t {
  Auto,      ///< Bruck below alltoall_bruck_bytes, pairwise above
  Pairwise,  ///< n-1 exchange steps with (rank +/- k) partners
  Bruck,     ///< ceil(log n) rounds of packed block forwarding
};

[[nodiscard]] constexpr const char* to_string(BcastAlg a) noexcept {
  switch (a) {
    case BcastAlg::Auto: return "auto";
    case BcastAlg::Binomial: return "binomial";
    case BcastAlg::ScatterAllgather: return "scatter-allgather";
  }
  return "?";
}
[[nodiscard]] constexpr const char* to_string(AllreduceAlg a) noexcept {
  switch (a) {
    case AllreduceAlg::Auto: return "auto";
    case AllreduceAlg::ReduceBcast: return "reduce-bcast";
    case AllreduceAlg::RecursiveDoubling: return "recursive-doubling";
    case AllreduceAlg::Rabenseifner: return "rabenseifner";
  }
  return "?";
}
[[nodiscard]] constexpr const char* to_string(AllgatherAlg a) noexcept {
  switch (a) {
    case AllgatherAlg::Auto: return "auto";
    case AllgatherAlg::Ring: return "ring";
    case AllgatherAlg::Bruck: return "bruck";
  }
  return "?";
}
[[nodiscard]] constexpr const char* to_string(AlltoallAlg a) noexcept {
  switch (a) {
    case AlltoallAlg::Auto: return "auto";
    case AlltoallAlg::Pairwise: return "pairwise";
    case AlltoallAlg::Bruck: return "bruck";
  }
  return "?";
}

/// Auto picks binomial bcast, recursive-doubling allreduce, ring allgather
/// and pairwise alltoall on communicators smaller than this, whatever the
/// message size.
inline constexpr int kMinTreeComm = 4;

/// Per-run collective algorithm selection. Default-constructed = all Auto
/// with MPICH-flavoured thresholds; field-wise comparable so sweeps and
/// tests can detect the default point.
struct CollTuning {
  BcastAlg bcast = BcastAlg::Auto;
  AllreduceAlg allreduce = AllreduceAlg::Auto;
  AllgatherAlg allgather = AllgatherAlg::Auto;
  AlltoallAlg alltoall = AlltoallAlg::Auto;

  // Auto thresholds (message bytes at the collective's granularity:
  // full vector for bcast/allreduce, per-rank block for allgather/alltoall).
  std::size_t bcast_long_bytes = 65536;      ///< above: scatter+allgather
  std::size_t allreduce_long_bytes = 8192;   ///< above: Rabenseifner
  std::size_t allgather_bruck_bytes = 4096;  ///< at/below: Bruck
  std::size_t alltoall_bruck_bytes = 2048;   ///< at/below: Bruck

  [[nodiscard]] bool operator==(const CollTuning&) const = default;

  // ---- deterministic Auto resolution (size x comm-size thresholds) ----

  [[nodiscard]] BcastAlg resolve_bcast(std::size_t bytes, int n) const {
    if (bcast != BcastAlg::Auto) return bcast;
    if (n < kMinTreeComm || bytes <= bcast_long_bytes) {
      return BcastAlg::Binomial;
    }
    return BcastAlg::ScatterAllgather;
  }
  [[nodiscard]] AllreduceAlg resolve_allreduce(std::size_t bytes,
                                               int n) const {
    if (allreduce != AllreduceAlg::Auto) return allreduce;
    if (n < kMinTreeComm || bytes <= allreduce_long_bytes) {
      return AllreduceAlg::RecursiveDoubling;
    }
    return AllreduceAlg::Rabenseifner;
  }
  [[nodiscard]] AllgatherAlg resolve_allgather(std::size_t block,
                                               int n) const {
    if (allgather != AllgatherAlg::Auto) return allgather;
    if (n >= kMinTreeComm && block <= allgather_bruck_bytes) {
      return AllgatherAlg::Bruck;
    }
    return AllgatherAlg::Ring;
  }
  [[nodiscard]] AlltoallAlg resolve_alltoall(std::size_t block, int n) const {
    if (alltoall != AlltoallAlg::Auto) return alltoall;
    if (n >= kMinTreeComm && block <= alltoall_bruck_bytes) {
      return AlltoallAlg::Bruck;
    }
    return AlltoallAlg::Pairwise;
  }

  /// Short label for sweep points / golden-trace case names: "auto" for the
  /// default, else every deviation from the default joined by '+', e.g.
  /// "bcast=scatter-allgather+alltoall=bruck" or "allreduce-long=512".
  /// Thresholds are part of the label — two points differing only in an
  /// Auto threshold run different algorithms and must not collide.
  [[nodiscard]] std::string name() const {
    const CollTuning def;
    std::string out;
    auto add = [&out](const std::string& key, const std::string& val) {
      if (!out.empty()) out += '+';
      out += key;
      out += '=';
      out += val;
    };
    if (bcast != BcastAlg::Auto) add("bcast", to_string(bcast));
    if (allreduce != AllreduceAlg::Auto) {
      add("allreduce", to_string(allreduce));
    }
    if (allgather != AllgatherAlg::Auto) {
      add("allgather", to_string(allgather));
    }
    if (alltoall != AlltoallAlg::Auto) add("alltoall", to_string(alltoall));
    if (bcast_long_bytes != def.bcast_long_bytes) {
      add("bcast-long", std::to_string(bcast_long_bytes));
    }
    if (allreduce_long_bytes != def.allreduce_long_bytes) {
      add("allreduce-long", std::to_string(allreduce_long_bytes));
    }
    if (allgather_bruck_bytes != def.allgather_bruck_bytes) {
      add("allgather-bruck", std::to_string(allgather_bruck_bytes));
    }
    if (alltoall_bruck_bytes != def.alltoall_bruck_bytes) {
      add("alltoall-bruck", std::to_string(alltoall_bruck_bytes));
    }
    return out.empty() ? "auto" : out;
  }
};

}  // namespace sdrmpi::mpi
