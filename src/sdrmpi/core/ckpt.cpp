#include "sdrmpi/core/ckpt.hpp"

#include "sdrmpi/util/log.hpp"

namespace sdrmpi::core {

void CkptController::arm() {
  const Time interval = job_->config.ckpt.interval;
  if (interval <= 0) return;
  schedule_boundary(interval);
}

void CkptController::schedule_boundary(Time t) {
  job_->engine->schedule_ctl(t, next_lane_++, [this, t] { boundary(t); });
}

void CkptController::boundary(Time t) {
  // Once every process has terminated the boundary chain stops re-arming;
  // otherwise the pending event would keep run() alive forever.
  bool all_done = true;
  for (int pid : job_->pids) {
    if (pid >= 0 && !job_->engine->process(pid).terminated()) {
      all_done = false;
      break;
    }
  }
  if (all_done) return;

  job_->engine->charge_all(job_->config.ckpt.checkpoint_cost);
  last_ckpt_ = t;
  ++job_->pstats.checkpoints_taken;
  SDR_LOG(Debug, "ckpt") << "boundary at t=" << t << " (#"
                         << job_->pstats.checkpoints_taken << ")";
  schedule_boundary(t + job_->config.ckpt.interval);
}

void CkptController::on_failure(int slot, Time when) {
  ++job_->pstats.failures_observed;
  ++job_->pstats.restarts;
  const Time rework = when - last_ckpt_;
  job_->pstats.rework_ns += static_cast<std::uint64_t>(rework);
  const Time cost = job_->config.ckpt.restart_cost + rework;
  SDR_LOG(Info, "ckpt") << "slot " << slot << " fails at t=" << when
                        << ": restart + " << rework << "ns rework";
  job_->engine->schedule_ctl(when + job_->config.detection_delay,
                             next_lane_++,
                             [this, cost] { job_->engine->charge_all(cost); });
}

}  // namespace sdrmpi::core
