// CkptController: coordinated checkpoint/restart as a protocol axis — the
// rival the paper's replication protocol is measured against (§1, §5: at
// high failure rates the checkpoint/restart machine spends most of its time
// rolling back and re-executing; replication keeps going).
//
// The wire behaviour of a Ckpt run is native (unreplicated); this
// controller layers the checkpoint/restart *cost model* on top via engine
// events, using the "charge-forward" scheme documented on CkptConfig:
//
//   * every `interval` of virtual time, a boundary event charges
//     `checkpoint_cost` to all live process clocks (the coordinated
//     blocking checkpoint) and records the boundary time;
//   * a fail-stop fault at Tf does NOT kill the rank — at detection time
//     every process is charged `restart_cost + (Tf - last_checkpoint)`:
//     restart plus the rolled-back interval, re-executed identically. This
//     is exact for send-deterministic applications, which is precisely the
//     paper's premise — re-execution from a checkpoint replays the same
//     sends, so the rework costs exactly the virtual time it first took.
//
// Because no process is ever unwound, a Ckpt run with faults still
// completes clean() and stays bit-deterministic: boundaries and restart
// charges are ordinary engine events with fixed control-lane tie-breaks.
#pragma once

#include <cstdint>

#include "sdrmpi/core/job.hpp"

namespace sdrmpi::core {

class CkptController {
 public:
  explicit CkptController(JobContext& job) : job_(&job) {}

  /// Schedules the first checkpoint boundary (no-op when interval <= 0).
  /// Called once by World::drive() after processes are spawned.
  void arm();

  /// A fail-stop fault fired at `when` (FailureDetector routes here for
  /// Ckpt runs instead of crashing the slot): schedules the restart +
  /// rework charge at detection time.
  void on_failure(int slot, Time when);

  /// Virtual time of the most recent completed checkpoint (0 = job start).
  [[nodiscard]] Time last_checkpoint() const noexcept { return last_ckpt_; }

 private:
  void schedule_boundary(Time t);
  void boundary(Time t);

  JobContext* job_;
  Time last_ckpt_ = 0;
  /// Control lane for boundary/restart events: fixed tie-break positions
  /// so charges ordered identically whether armed cold or mid-run (warm
  /// fork). Starts above the fault lanes (= fault indices, a handful).
  std::uint64_t next_lane_ = std::uint64_t{1} << 16;
};

}  // namespace sdrmpi::core
