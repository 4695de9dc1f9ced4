#include "sdrmpi/sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "sdrmpi/sim/asan_fiber.hpp"
#include "sdrmpi/util/log.hpp"

namespace sdrmpi::sim {

namespace {

// Fiber stack size. Workload state lives on the heap (vectors), so the
// stack only holds call frames; 256 KiB leaves generous headroom for deep
// protocol/collective recursion.
constexpr std::size_t kFiberStackBytes = 256 * 1024;

// Byte the watermark fill paints the stack with; anything else after a
// fiber ran marks a frame that reached that depth.
constexpr std::byte kWatermarkByte{0xa5};

// Stacks outlive the Engine that mapped them: one pool per host thread,
// shared by every Engine that runs there. A sweep of many small Worlds
// then pays mmap + guard-page mprotect + first-touch faults + munmap once
// per stack instead of once per fiber per World. Only the pages a fiber
// touched count toward RSS. Past the cap a released stack is unmapped; 64
// stacks hold every fiber of a 32-slot World.
constexpr std::size_t kStackPoolCap = 64;

[[nodiscard]] std::vector<FiberStack>& stack_pool() {
  thread_local std::vector<FiberStack> pool;
  return pool;
}

}  // namespace

Engine::Engine() {
  stack_watermark_ = std::getenv("SDRMPI_STACK_WATERMARK") != nullptr;
}

Engine::~Engine() {
  // Unwind any still-live fibers so their stacks unwind (RAII) before the
  // Process objects are destroyed; resume() hands each stack back to the
  // thread's pool. A process whose fiber never ran (lazy stacks) has no
  // frames to unwind.
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
  if (lane >= kCtlLanes) {
    throw std::out_of_range("Engine::schedule_ctl: control lane " +
                            std::to_string(lane) + " >= kCtlLanes (" +
                            std::to_string(kCtlLanes) + ")");
  }
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

// Inline: executed once per event, from run() and from fibers alike.
inline void Engine::run_event() {
  const Time et = events_.top_time();
  InlineFn fn = events_.pop();
  event_now_ = et;
  ++events_executed_;
  // Event context. The guard restores the caller's context (none in run(),
  // the host process when drained inline from a fiber) even if the event
  // throws: the exception then unwinds that fiber with the engine's
  // bookkeeping intact (and is attributed to it), instead of leaving
  // running_ null for return_control_to_engine.
  struct ContextGuard {
    Engine* eng;
    Process* proc;
    ~ContextGuard() { eng->running_ = proc; }
  } guard{this, running_};
  running_ = nullptr;
  fn();
}

RunOutcome Engine::run() {
  RunOutcome out;
  for (;;) {
    Process* p = nullptr;
    const Next next = next_item(p);
    if (next == Next::Event) {
      run_event();
    } else if (next == Next::Process) {
      pop_runnable();  // p's own entry — peek_runnable() left it on top
      // Returns once a fiber switches back: at a process exit, or when the
      // fibers' own scheduling (block()/yield()) reaches a deadlock or the
      // time limit. Every other dispatch is a fiber-to-fiber hand-off.
      resume(*p);
    } else {
      out.time_limit_hit = next == Next::TimeLimit;
      break;
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
  out.deadlock = any_blocked && !out.time_limit_hit;
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

Engine::Next Engine::next_item(Process*& p) noexcept {
  p = peek_runnable();
  const bool have_event = !events_.empty();
  if (p == nullptr && !have_event) return Next::Quiet;
  const bool event =
      have_event && (p == nullptr || events_.top_time() <= p->clock());
  const Time t = event ? events_.top_time() : p->clock();
  if (time_limit_ > 0 && t > time_limit_) return Next::TimeLimit;
  return event ? Next::Event : Next::Process;
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

void Engine::dispatch(Process& p) {
  // Lazy first dispatch: the fiber context and its stack come into
  // existence here, on the cold path, never on the warm send/deliver path.
  if (!p.stack_.valid()) p.make_fiber(acquire_stack());
  running_ = &p;
  p.state_ = ProcState::Running;
  ++context_switches_;
}

void Engine::resume(Process& p) {
  dispatch(p);
  entered_from_sched_ = true;
  asan::start_switch(&asan_sched_fake_, p.stack_.sp(), p.stack_.size());
  tsan_sched_fiber_ = tsan::current_fiber();
  tsan::switch_to(p.tsan_fiber_);
  sdrmpi_fiber_switch(&sched_sp_, p.sp_);
  asan::finish_switch(asan_sched_fake_, nullptr, nullptr);
  // Hand-offs may have carried the host stack through any number of fibers
  // since p; the one that switched back is the running one.
  Process& back = *running_;
  running_ = nullptr;
  if (back.terminated()) {
    // Safe from the scheduler context only — never destroy a running
    // fiber's TSan handle.
    tsan::destroy_fiber(back.tsan_fiber_);
    back.tsan_fiber_ = nullptr;
    if (back.stack_.valid()) release_stack(std::move(back.stack_));
  }
}

void Engine::hand_off(Process& self, Process& next) {
  dispatch(next);
  entered_from_sched_ = false;
  leave_fiber(self, next.sp_, next.stack_.sp(), next.stack_.size(),
              next.tsan_fiber_);
}

void Engine::return_control_to_engine() {
  leave_fiber(*running_, sched_sp_, asan_sched_bottom_, asan_sched_size_,
              tsan_sched_fiber_);
}

void Engine::leave_fiber(Process& self, void* load_sp, const void* bottom,
                         std::size_t size, void* tsan_fiber) {
  // A terminating fiber hands its fake stack back to ASan (nullptr save).
  asan::start_switch(self.terminated() ? nullptr : &self.asan_fake_stack_,
                     bottom, size);
  tsan::switch_to(tsan_fiber);
  sdrmpi_fiber_switch(&self.sp_, load_sp);
  asan::finish_switch(self.asan_fake_stack_, nullptr, nullptr);
}

FiberStack Engine::acquire_stack() {
  auto& pool = stack_pool();
  FiberStack s;
  if (!pool.empty()) {
    s = std::move(pool.back());
    pool.pop_back();
    ++stack_stats_.stacks_recycled;
  } else {
    s = FiberStack(kFiberStackBytes);
    ++stack_stats_.stacks_created;
  }
  stack_stats_.bytes_mapped += s.mapped_bytes();
  stack_stats_.bytes_mapped_peak =
      std::max(stack_stats_.bytes_mapped_peak, stack_stats_.bytes_mapped);
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
  stack_stats_.bytes_mapped -= stack.mapped_bytes();
  auto& pool = stack_pool();
  if (pool.size() < kStackPoolCap) pool.push_back(std::move(stack));
  // Otherwise the FiberStack dtor unmaps it.
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
  // Due events are executed INLINE from this fiber instead of yielding:
  // the global action order is exactly what the scheduler would produce
  // (next_item() is its rule; self is Running, never in the runnable heap,
  // so it weighs the events against the oldest *other* process, and we
  // stop as soon as that process precedes the next event), but no stack
  // switch happens per consumed frame. Virtual time is untouched by
  // construction; only the host-side context_switches counter shrinks.
  bool drained = false;
  Process* q = nullptr;
  while (!events_.empty() && events_.top_time() <= self.clock_ &&
         next_item(q) == Next::Event) {
    run_event();
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
    q = peek_runnable();
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
  // A yield gives up the processor, so being picked straight back is a
  // dispatch like any other; a block() whose wake is the next item never
  // gave it up and counts none.
  if (!schedule_from(self)) ++context_switches_;
  if (self.crash_req_) throw CrashUnwind{};
}

void Engine::block(const char* reason) {
  Process& self = *running_;
  if (self.crash_req_) throw CrashUnwind{};
  self.state_ = ProcState::Blocked;
  self.block_reason_ = reason;
  schedule_from(self);
  if (self.crash_req_) throw CrashUnwind{};
}

bool Engine::schedule_from(Process& self) {
  // The scheduler, run on the fiber that gave up the processor. Due events
  // execute inline (in engine context, no stack switch); when the next
  // pick is self (an event woke it, or it yielded with nothing older
  // pending) it keeps running without any switch; when it is another
  // process, the host stack goes straight to that fiber. Only a stop —
  // the time limit, or no event and no runnable process left — goes back
  // to run(), which sees the same state and ends the run. Every decision
  // is next_item()'s, so the action order is run()'s by construction.
  for (;;) {
    Process* p = nullptr;
    switch (next_item(p)) {
      case Next::Event:
        try {
          run_event();
        } catch (...) {
          // The event's exception unwinds self: it is running again.
          self.state_ = ProcState::Running;
          throw;
        }
        continue;
      case Next::Process:
        pop_runnable();  // this dispatch consumes p's entry, as in run()
        if (p == &self) {
          self.state_ = ProcState::Running;
          return false;
        }
        hand_off(self, *p);
        return true;
      case Next::TimeLimit:
      case Next::Quiet:
        return_control_to_engine();
        return true;
    }
  }
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
