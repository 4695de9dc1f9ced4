// The benchmark's workloads and their correctness oracles.
//
// Every workload is single-process and single-thread. A repetition is its
// set-up, its timed phase, then the oracle; sdrbench.cpp repeats it and
// reports medians. BENCHMARK.md records why each workload was chosen, which
// layers it stresses and which it bypasses.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// The seed whose outcomes are pinned (makespan and checksum fingerprint).
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Collects named correctness checks. Constructed with the name of one
/// check, it alters that check's expected value before comparing, so the
/// check must fail: the self-test proves every oracle can fail this way.
class Checker {
 public:
  explicit Checker(std::string perturbed = {})
      : perturbed_(std::move(perturbed)) {}

  void eq(const std::string& name, std::uint64_t observed,
          std::uint64_t expected);
  void holds(const std::string& name, bool ok, const std::string& detail = {});

  [[nodiscard]] bool failed(const std::string& name) const {
    return failed_.count(name) > 0;
  }
  [[nodiscard]] const std::set<std::string>& names() const noexcept {
    return names_;
  }
  /// One message per failed check.
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  void fail(const std::string& name, const std::string& what);

  std::string perturbed_;
  std::set<std::string> names_;
  std::set<std::string> failed_;
  std::vector<std::string> failures_;
};

/// What one repetition measured.
struct Rep {
  double setup_s = 0.0;  ///< everything before the timed phase
  double wall_s = 0.0;   ///< the timed phase
  double app_sends = 0.0;  ///< simulated application sends in the timed phase
  std::vector<double> ref_s;  ///< reference kernel before/after the timed phase
  std::uint64_t fingerprint = 0;  ///< digest of makespans and checksums
  std::map<std::string, double> counts;  ///< deterministic per-layer counts
  std::vector<std::string> failures;     ///< failed oracle checks
};

class Workload {
 public:
  Workload(std::uint64_t seed, std::string work_dir)
      : seed_(seed), dir_(std::move(work_dir)) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// One repetition: set-up, timed phase, oracle.
  Rep rep(Tracer& tracer);

  /// Runs the oracle over the last repetition's outputs.
  virtual void check(Checker& c) const = 0;

  /// True when one extra run with the fiber-stack watermark is cheap enough
  /// to take in a traced run (it commits every stack page).
  [[nodiscard]] virtual bool stack_probe() const { return true; }

 protected:
  virtual Rep measure(Tracer& tracer) = 0;

  /// Pinned outcome of the default seed.
  struct Pin {
    std::uint64_t makespan = 0;
    std::uint64_t fingerprint = 0;
  };
  void check_pin(Checker& c, std::uint64_t makespan, std::uint64_t fingerprint,
                 const Pin& pin) const;

  std::uint64_t seed_;
  std::string dir_;
};

/// Every workload name. BENCHMARK.json gates all but scale_cg_sdr
/// (BENCHMARK.md says why); the self-test runs them all.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown name. `work_dir` holds the
/// workload's working files (result stores).
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      const std::string& work_dir);

}  // namespace perfbench
