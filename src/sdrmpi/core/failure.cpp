#include "sdrmpi/core/failure.hpp"

#include "sdrmpi/core/ckpt.hpp"
#include "sdrmpi/mpi/wire.hpp"
#include "sdrmpi/util/log.hpp"

namespace sdrmpi::core {

void FailureDetector::arm_time_faults() {
  for (std::size_t fi = 0; fi < job_->config.faults.size(); ++fi) {
    const FaultSpec& f = job_->config.faults[fi];
    if (f.at_time < 0) continue;
    const int slot = f.slot;
    // Control lane = fault index: a fixed (t, seq) tie-break position
    // that wins ties against ordinary events, like the checkpoint events
    // armed mid-run on the lanes above; the golden corpus pins the order.
    job_->engine->schedule_ctl(f.at_time, fi, [this, slot] {
      do_crash(slot, job_->engine->now());
    });
  }
}

void FailureDetector::crash_now(int slot) {
  do_crash(slot, job_->engine->now());
}

void FailureDetector::do_crash(int slot, Time when) {
  if (job_->ckpt != nullptr) {
    // Checkpoint/restart runs absorb the fault: no process dies; the
    // controller charges restart + rework at detection time instead.
    job_->ckpt->on_failure(slot, when);
    return;
  }
  if (!job_->fabric->alive(slot)) return;  // already dead
  SDR_LOG(Info, "fault") << "slot " << slot << " fail-stops at t=" << when;
  job_->fabric->set_alive(slot, false);
  const int pid = job_->pids[static_cast<std::size_t>(slot)];
  if (pid >= 0) job_->engine->request_crash(pid);

  // The detection service notifies every alive process after its latency;
  // notifications are processed at each process's next MPI call.
  const Time notify_at = when + kDetectionDelay;
  for (int s = 0; s < job_->topo.nslots(); ++s) {
    if (s == slot || !job_->fabric->alive(s)) continue;
    mpi::FrameHeader h;
    h.kind = mpi::FrameKind::Failure;
    h.value = static_cast<std::uint64_t>(slot);
    job_->fabric->inject_oob(s, h, notify_at);
  }
}

}  // namespace sdrmpi::core
