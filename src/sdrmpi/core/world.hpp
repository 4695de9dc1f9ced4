// World: the fully-constructed universe of one replicated run — engine,
// fabric, endpoints, protocols, failure detector and per-slot bodies —
// separated from the drive loop so that construction, execution and result
// collection are independent steps. core::run() composes all three;
// core::run_many() runs many Worlds concurrently, one per pool thread
// (a World is single-thread-confined, like the fiber engine it owns).
//
// Following the paper (§4.1, Figure 6): r*n physical processes are started;
// the launch-time world communicator is kept internal to the protocol layer
// (acks and cross-world control traffic), and is split into r application
// worlds. The application only ever sees its own world as MPI_COMM_WORLD,
// which makes replication — including all collectives and communicator
// operations — transparent.
#pragma once

#include <functional>
#include <memory>

#include "sdrmpi/core/failure.hpp"
#include "sdrmpi/core/job.hpp"
#include "sdrmpi/core/run_config.hpp"
#include "sdrmpi/mpi/env.hpp"
#include "sdrmpi/net/fabric.hpp"
#include "sdrmpi/sim/engine.hpp"
#include "sdrmpi/util/byte_counter.hpp"

namespace sdrmpi::core {

/// An application: an SPMD function every physical process executes.
using AppFn = std::function<void(mpi::Env&)>;

class World {
 public:
  /// Builds endpoints, communicators and protocol instances for `config`.
  /// Throws std::invalid_argument on an inconsistent configuration.
  World(RunConfig config, AppFn app);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Spawns the application processes and drives the engine until
  /// completion, deadlock, or the time limit. Call once per World.
  sim::RunOutcome drive();

  /// Gathers per-slot outcomes and traffic totals after drive().
  [[nodiscard]] RunResult collect(const sim::RunOutcome& outcome);

  /// Convenience: drive() + collect().
  [[nodiscard]] RunResult run_to_completion() { return collect(drive()); }

  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] JobContext& job() noexcept { return job_; }

 private:
  void build_endpoints();
  void install_recovery();
  /// The per-slot application body (runs on the slot's fiber).
  void slot_body(int slot);

  AppFn app_;
  sim::Engine engine_;
  std::unique_ptr<net::Fabric> fabric_;  // backend per config.net.topology
  JobContext job_;
  FailureDetector detector_;
  std::unique_ptr<CkptController> ckpt_;  // protocol == Ckpt only
  /// Thread-local byte-counter snapshot at drive() start; collect()
  /// reports the delta (a run stays on one host thread for its lifetime).
  util::ByteCounters bytes_at_start_{};
};

}  // namespace sdrmpi::core
