#include "sdrmpi/sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "sdrmpi/sim/asan_fiber.hpp"
#include "sdrmpi/util/log.hpp"

namespace sdrmpi::sim {

namespace {

// Default fiber stack size. Workload state lives on the heap (vectors), so
// the stack only holds call frames; 256 KiB leaves generous headroom for
// deep protocol/collective recursion. Overridable via SDRMPI_FIBER_STACK_KB
// for unusually stack-hungry apps, or per-engine via set_fiber_stack_bytes().
std::size_t default_fiber_stack_bytes() {
  static const std::size_t bytes = [] {
    if (const char* env = std::getenv("SDRMPI_FIBER_STACK_KB")) {
      const long kb = std::atol(env);
      if (kb >= 64) return static_cast<std::size_t>(kb) * 1024;
    }
    return std::size_t{256 * 1024};
  }();
  return bytes;
}

// Byte the watermark fill paints the stack with; anything else after a
// fiber ran marks a frame that reached that depth.
constexpr std::byte kWatermarkByte{0xa5};

}  // namespace

Engine::Engine() {
  stack_watermark_ = std::getenv("SDRMPI_STACK_WATERMARK") != nullptr;
}

Engine::~Engine() {
  // Unwind any still-live fibers so their stacks unwind (RAII) before the
  // Process objects and the stack cache are destroyed. A process whose
  // fiber never ran (lazy stacks) has no frames to unwind.
  for (auto& p : procs_) {
    if (p->terminated()) continue;
    if (!p->stack_.valid()) {
      p->state_ = ProcState::Crashed;
      continue;
    }
    p->crash_req_ = true;
    resume(*p);  // CrashUnwind runs the fiber to termination
  }
}

void Engine::set_fiber_stack_bytes(std::size_t bytes) {
  if (bytes == stack_bytes_) return;
  stack_bytes_ = bytes;
  // Cached stacks were sized for the old setting; drop them.
  for (auto& s : stack_cache_) {
    stack_stats_.bytes_mapped -= s.mapped_bytes();
    ++stack_stats_.stacks_dropped;
  }
  stack_cache_.clear();
}

std::size_t Engine::fiber_stack_bytes() const noexcept {
  return stack_bytes_ != 0 ? stack_bytes_ : default_fiber_stack_bytes();
}

int Engine::spawn(std::string name, std::function<void()> body, Time start_at) {
  const int pid = static_cast<int>(procs_.size());
  auto proc = std::make_unique<Process>(*this, pid, std::move(name),
                                        std::move(body));
  proc->clock_ = start_at >= 0 ? start_at : now();
  proc->state_ = ProcState::Runnable;
  // No fiber yet: the stack is allocated lazily at first dispatch
  // (resume()), so a spawned-but-never-run process maps no stack at all.
  procs_.push_back(std::move(proc));
  push_runnable(*procs_.back());
  SDR_LOG(Debug, "sim") << "spawned pid=" << pid << " '"
                        << procs_.back()->name() << "' at t="
                        << procs_.back()->clock();
  return pid;
}

void Engine::schedule(Time t, InlineFn action) {
  events_.push(std::max(t, now()), event_seq_++, std::move(action));
}

void Engine::schedule_ctl(Time t, std::uint64_t lane, InlineFn action) {
  assert(lane < kCtlLanes);
  events_.push(std::max(t, now()), lane, std::move(action));
}

void Engine::charge_all(Time dt) {
  assert(dt >= 0);
  for (auto& p : procs_) {
    if (!p->terminated()) p->clock_ += dt;
  }
  // Every stored heap key is now behind the clocks it mirrors.
  rebuild_runnable_heap();
}

Time Engine::executed_frontier() const noexcept {
  Time t = event_now_;
  for (const auto& p : procs_) t = std::max(t, p->clock());
  return t;
}

RunOutcome Engine::run() {
  RunOutcome out;
  for (;;) {
    Process* p = peek_runnable();
    const bool have_event = !events_.empty();
    const Time pt = p != nullptr ? p->clock() : 0;
    const Time et = have_event ? events_.top_time() : 0;

    if (p == nullptr && !have_event) break;  // all quiet

    const bool run_event = have_event && (p == nullptr || et <= pt);
    const Time next_t = run_event ? et : pt;
    if (time_limit_ > 0 && next_t > time_limit_) {
      out.time_limit_hit = true;
      break;
    }
    // Pause is checked only here, between dispatches — never inside the
    // inline drains — so pausing cannot perturb the total order (see
    // set_pause_time). Calling run() again resumes exactly here.
    if (pause_at_ > 0 && next_t > pause_at_) {
      out.paused = true;
      break;
    }

    if (run_event) {
      // Move the event out of the queue before executing: the action may
      // schedule new events or spawn processes.
      InlineFn fn = events_.pop();
      event_now_ = et;
      ++events_executed_;
      fn();
    } else {
      pop_runnable();  // p's own entry — peek_runnable() left it on top
      resume(*p);
    }
  }

  Time end = event_now_;
  bool any_blocked = false;
  for (const auto& p : procs_) {
    end = std::max(end, p->clock());
    if (p->state() == ProcState::Blocked) {
      any_blocked = true;
      out.blocked_pids.push_back(p->pid());
    }
    if (p->state() == ProcState::Failed) out.failed_pids.push_back(p->pid());
  }
  out.deadlock = any_blocked && !out.time_limit_hit && !out.paused;
  out.end_time = end;
  out.events_executed = events_executed_;
  out.context_switches = context_switches_;
  if (out.deadlock) {
    for (int pid : out.blocked_pids) {
      SDR_LOG(Warn, "sim") << "deadlock: pid=" << pid << " '"
                           << procs_[static_cast<std::size_t>(pid)]->name()
                           << "' blocked on '"
                           << procs_[static_cast<std::size_t>(pid)]->block_reason()
                           << "'";
    }
  }
  return out;
}

Process* Engine::peek_runnable() noexcept {
  while (!runnable_heap_.empty()) {
    const RunnableRef top = runnable_heap_.front();
    Process& p = *procs_[static_cast<std::size_t>(top.pid)];
    if (p.runnable() && p.clock() == top.clock) return &p;
    // Stale: the process ran, blocked, terminated, or moved its clock
    // since this entry was pushed.
    std::pop_heap(runnable_heap_.begin(), runnable_heap_.end(),
                  RunnableAfter{});
    runnable_heap_.pop_back();
  }
  return nullptr;
}

void Engine::pop_runnable() noexcept {
  std::pop_heap(runnable_heap_.begin(), runnable_heap_.end(), RunnableAfter{});
  runnable_heap_.pop_back();
}

void Engine::push_runnable(const Process& p) {
  runnable_heap_.push_back({p.clock(), p.pid()});
  std::push_heap(runnable_heap_.begin(), runnable_heap_.end(),
                 RunnableAfter{});
}

void Engine::rebuild_runnable_heap() {
  runnable_heap_.clear();
  for (const auto& p : procs_) {
    if (p->runnable()) runnable_heap_.push_back({p->clock(), p->pid()});
  }
  // make_heap's internal layout differs from incremental pushes, but the
  // dispatch order is the strict (clock, pid) total order either way.
  std::make_heap(runnable_heap_.begin(), runnable_heap_.end(),
                 RunnableAfter{});
}

void Engine::resume(Process& p) {
  // Lazy first dispatch: the fiber context and its stack come into
  // existence here, on the cold path, never on the warm send/deliver path.
  if (!p.stack_.valid()) p.make_fiber(acquire_stack());
  running_ = &p;
  p.state_ = ProcState::Running;
  ++context_switches_;
  asan::start_switch(&asan_sched_fake_, p.stack_.sp(), p.stack_.size());
  tsan_sched_fiber_ = tsan::current_fiber();
  tsan::switch_to(p.tsan_fiber_);
  swapcontext(&sched_ctx_, &p.ctx_);
  asan::finish_switch(asan_sched_fake_, nullptr, nullptr);
  running_ = nullptr;
  if (p.terminated()) {
    // Safe from the scheduler context only — never destroy a running
    // fiber's TSan handle.
    tsan::destroy_fiber(p.tsan_fiber_);
    p.tsan_fiber_ = nullptr;
    if (p.stack_.valid()) release_stack(std::move(p.stack_));
  }
}

void Engine::return_control_to_engine() {
  Process& self = *running_;
  // A terminating fiber hands its fake stack back to ASan (nullptr save).
  asan::start_switch(self.terminated() ? nullptr : &self.asan_fake_stack_,
                     asan_sched_bottom_, asan_sched_size_);
  tsan::switch_to(tsan_sched_fiber_);
  swapcontext(&self.ctx_, &sched_ctx_);
  asan::finish_switch(self.asan_fake_stack_, nullptr, nullptr);
}

FiberStack Engine::acquire_stack() {
  FiberStack s;
  if (!stack_cache_.empty()) {
    s = std::move(stack_cache_.back());
    stack_cache_.pop_back();
    ++stack_stats_.stacks_recycled;
  } else {
    s = FiberStack(fiber_stack_bytes());
    ++stack_stats_.stacks_created;
    stack_stats_.bytes_mapped += s.mapped_bytes();
    stack_stats_.bytes_mapped_peak =
        std::max(stack_stats_.bytes_mapped_peak, stack_stats_.bytes_mapped);
  }
  if (stack_watermark_) {
    // Paint the usable range so release_stack can report how deep the
    // fiber's frames reached. The fill commits every stack page, so this
    // is a right-sizing diagnostic, not an RSS-realistic mode.
    std::memset(s.sp(), static_cast<int>(kWatermarkByte), s.size());
  }
  return s;
}

void Engine::release_stack(FiberStack stack) {
  if (stack_watermark_) {
    // Stacks grow downward: the deepest frame is the lowest non-painted
    // byte above the guard page.
    const std::byte* lo = stack.sp();
    std::size_t i = 0;
    while (i < stack.size() && lo[i] == kWatermarkByte) ++i;
    stack_stats_.stack_depth_peak = std::max(
        stack_stats_.stack_depth_peak,
        static_cast<std::uint64_t>(stack.size() - i));
  }
  if (stack_cache_.size() >= stack_cache_cap_) {
    stack_stats_.bytes_mapped -= stack.mapped_bytes();
    ++stack_stats_.stacks_dropped;
    return;  // FiberStack dtor unmaps
  }
  stack_cache_.push_back(std::move(stack));
}

Process& Engine::current() {
  if (running_ == nullptr) {
    throw std::logic_error("Engine::current() outside process context");
  }
  return *running_;
}

bool Engine::in_process_context() const noexcept { return running_ != nullptr; }

Time Engine::now() const noexcept {
  return running_ != nullptr ? running_->clock() : event_now_;
}

void Engine::advance(Time dt) {
  assert(running_ != nullptr && dt >= 0);
  running_->clock_ += dt;
}

void Engine::advance_to(Time t) {
  assert(running_ != nullptr);
  running_->clock_ = std::max(running_->clock_, t);
}

void Engine::maybe_yield() {
  Process& self = *running_;
  if (self.crash_req_) throw CrashUnwind{};
  // Single-writer safety: while this process runs, no other thread mutates
  // the event queue or process states, so peeking is race-free.
  //
  // Due events are executed INLINE from this fiber instead of yielding to
  // the scheduler: the global action order is exactly what the scheduler
  // would produce (events win ties, and we stop as soon as a runnable
  // process precedes the next event), but the yield→event→resume round
  // trip — two swapcontext calls per consumed frame, the dominant
  // fiber-switch churn on ping-pong traffic — disappears. Virtual time is
  // untouched by construction; only the host-side context_switches counter
  // shrinks.
  bool drained = false;
  while (!events_.empty()) {
    const Time et = events_.top_time();
    if (et > self.clock_) break;
    // run() stops the whole simulation when the next item crosses the
    // virtual-time cap; a real yield reproduces that.
    if (time_limit_ > 0 && et > time_limit_) break;
    // self is Running, never in the runnable heap, so the peek is exactly
    // "the oldest *other* runnable process" the old full scan found.
    Process* q = peek_runnable();
    if (q != nullptr && q->clock() < et) {
      break;  // the scheduler would resume that process first
    }
    run_event_inline(self);
    drained = true;
    if (self.crash_req_) throw CrashUnwind{};
  }
  bool older_item = !events_.empty() && events_.top_time() <= self.clock_;
  if (!older_item) {
    // Strictly-older processes always force a yield. An equal-clock
    // process with a smaller pid forces one only when events ran here:
    // had we yielded for those events instead, the scheduler's pid
    // tie-break would have resumed that process before us, and the
    // deterministic order must not depend on which path was taken. The
    // heap top is the (clock, pid) minimum, so checking it alone is
    // equivalent to scanning every process.
    Process* q = peek_runnable();
    older_item =
        q != nullptr &&
        (q->clock() < self.clock_ ||
         (drained && q->clock() == self.clock_ && q->pid() < self.pid()));
  }
  if (older_item) yield();
}

void Engine::yield() {
  Process& self = *running_;
  if (self.crash_req_) throw CrashUnwind{};
  self.state_ = ProcState::Runnable;
  push_runnable(self);
  return_control_to_engine();
  if (self.crash_req_) throw CrashUnwind{};
}

void Engine::run_event_inline(Process& self) {
  const Time et = events_.top_time();
  InlineFn fn = events_.pop();
  event_now_ = et;
  ++events_executed_;
  // Event context, exactly as in the run() loop. The guard restores
  // process context even if the event throws: the exception then unwinds
  // this fiber with the engine's bookkeeping intact (and is attributed to
  // it), instead of leaving running_ null for return_control_to_engine.
  struct ContextGuard {
    Engine* eng;
    Process* proc;
    ~ContextGuard() { eng->running_ = proc; }
  } guard{this, &self};
  running_ = nullptr;
  fn();
}

void Engine::block(std::string reason) {
  Process& self = *running_;
  if (self.crash_req_) throw CrashUnwind{};
  self.state_ = ProcState::Blocked;
  self.block_reason_ = std::move(reason);
  // In-fiber wait: replay the scheduler's own decision loop without leaving
  // this fiber. Due events execute inline (they run in engine context and
  // never switch stacks); when one of them wakes this process AND the
  // scheduler's next pick would be this process, we simply return — the
  // block→wake→resume round trip (two swapcontext calls per consumed
  // frame, the dominant fiber-switch churn on request/response traffic)
  // never happens. The moment the scheduler would do anything else — resume
  // another process, stop on the time limit, or report a deadlock — we swap
  // back to it for real. Action order, and therefore virtual time, is
  // identical to the swapping implementation by construction.
  for (;;) {
    Process* p = peek_runnable();  // includes self once an event woke it
    const bool have_event = !events_.empty();
    if (p == nullptr && !have_event) break;  // deadlock: let run() see it

    const Time et = have_event ? events_.top_time() : 0;
    const bool run_event = have_event && (p == nullptr || et <= p->clock());
    const Time next_t = run_event ? et : p->clock();
    if (time_limit_ > 0 && next_t > time_limit_) break;  // run() stops

    if (run_event) {
      run_event_inline(self);
      continue;
    }
    if (p == &self) {
      // The scheduler would resume us next: keep running, no switch. This
      // IS the dispatch, so consume the wake()'s heap entry like run()
      // would — leaving it behind would grow the heap by one stale entry
      // per request/response round trip.
      pop_runnable();
      self.state_ = ProcState::Running;
      if (self.crash_req_) throw CrashUnwind{};
      return;
    }
    break;  // another process is due first: really yield the host stack
  }
  return_control_to_engine();
  if (self.crash_req_) throw CrashUnwind{};
}

void Engine::wake(int pid, Time t) {
  Process& p = process(pid);
  if (p.state() != ProcState::Blocked) return;
  p.clock_ = std::max(p.clock_, t);
  p.state_ = ProcState::Runnable;
  push_runnable(p);
}

void Engine::request_crash(int pid) {
  Process& p = process(pid);
  if (p.terminated()) return;
  p.crash_req_ = true;
  if (p.state() == ProcState::Blocked) {
    // Unwind it at the next scheduling opportunity.
    p.clock_ = std::max(p.clock_, now());
    p.state_ = ProcState::Runnable;
    push_runnable(p);
  }
}

const Process& Engine::process(int pid) const {
  return *procs_.at(static_cast<std::size_t>(pid));
}

Process& Engine::process(int pid) {
  return *procs_.at(static_cast<std::size_t>(pid));
}

bool Engine::crashed(int pid) const {
  return process(pid).state() == ProcState::Crashed;
}

}  // namespace sdrmpi::sim
