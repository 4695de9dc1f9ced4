// Deterministic discrete-event engine with cooperative simulated processes.
//
// Scheduling rule (total order, bit-reproducible):
//   * the executable item with the smallest timestamp goes first;
//   * pending events win ties against runnable processes;
//   * events tie-break by insertion sequence, processes by pid.
//
// A running process may proceed without yielding as long as no pending event
// or other runnable process has a timestamp <= its own clock (checked via
// maybe_yield()); this is safe because simulated processes exchange state
// only through timestamped events and only consume them at MPI-call points.
//
// The rule is applied wherever the processor is free, not only in run():
// a process that blocks or yields runs the scheduler on its own fiber. Due
// events execute there inline, and the next process gets the host stack in
// one fiber → fiber switch (a hand-off). run() starts a run and takes
// control back only at a process exit (which must release the exiting
// fiber's stack from another stack), a deadlock or the time limit. The
// decisions, and with them the action order and virtual time, are the same
// wherever they are made; RunOutcome::context_switches counts dispatches,
// whichever stack they start from.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sdrmpi/sim/event_queue.hpp"
#include "sdrmpi/sim/inline_fn.hpp"
#include "sdrmpi/sim/process.hpp"
#include "sdrmpi/sim/time.hpp"
#include "sdrmpi/util/buffer_pool.hpp"

namespace sdrmpi::sim {

/// Outcome of Engine::run().
struct RunOutcome {
  bool deadlock = false;          // blocked processes with empty event queue
  bool time_limit_hit = false;    // virtual-time cap exceeded
  Time end_time = 0;              // max clock over all processes at the end
  std::vector<int> blocked_pids;  // populated on deadlock
  std::vector<int> failed_pids;   // processes that threw unexpectedly
  std::uint64_t events_executed = 0;
  std::uint64_t context_switches = 0;

  [[nodiscard]] bool clean() const noexcept {
    return !deadlock && !time_limit_hit && failed_pids.empty();
  }
};

/// Fiber-stack accounting (see Engine::stack_stats()). Stacks are allocated
/// lazily at first dispatch, so a spawned-but-never-run process maps no
/// stack at all. Default-size stacks come from, and go back to, a pool per
/// host thread that every Engine on that thread shares (engine.cpp), so a
/// sweep of many small Worlds maps its stacks once, not once per World.
/// `bytes_mapped` counts the stacks this Engine holds, i.e. its live
/// fibers', so it and `bytes_mapped_peak` (the high-water address-space
/// cost; RSS only counts touched pages) are pure functions of the run. The
/// stack counts are host-side: how many were mapped fresh or taken from
/// the pool depends on what earlier Engines left on the thread.
/// `stack_depth_peak` is populated only when the SDRMPI_STACK_WATERMARK
/// fill is enabled — the fill itself touches every stack page, so it is a
/// right-sizing tool, not a production mode.
struct StackStats {
  std::uint64_t bytes_mapped = 0;       ///< held by live fibers
  std::uint64_t bytes_mapped_peak = 0;  ///< high-water of bytes_mapped
  std::uint64_t stacks_created = 0;     ///< fresh mmap'd stacks
  std::uint64_t stacks_recycled = 0;    ///< taken from the thread's pool
  std::uint64_t stack_depth_peak = 0;   ///< watermark: deepest frame bytes
};

class Engine {
 public:
  Engine();
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // ---- setup / control (engine or process context) ----

  /// Spawns a process whose body starts executing at virtual time
  /// `start_at` (default: now). Returns its pid.
  int spawn(std::string name, std::function<void()> body, Time start_at = -1);

  /// Schedules an action at absolute virtual time t (>= now). The action is
  /// an InlineFn: captures up to 64 bytes schedule without heap traffic.
  void schedule(Time t, InlineFn action);

  /// First insertion sequence handed out by schedule(). Sequences below it
  /// form the *control lanes* used by schedule_ctl(): events whose tie-break
  /// position is fixed by the caller instead of by arrival order. Fault and
  /// checkpoint events armed mid-run (restart charges, re-armed boundaries)
  /// thus keep fixed tie-break positions however many ordinary events were
  /// scheduled before them; the golden corpus pins the resulting order.
  static constexpr std::uint64_t kCtlLanes = std::uint64_t{1} << 20;

  /// Schedules an action on control lane `lane` (< kCtlLanes): the event
  /// tie-breaks at timestamp t as if it had been the lane-th insertion
  /// overall. Two events on one lane must never share a timestamp — the
  /// (t, seq) order would be ambiguous. Control events always win ties
  /// against normally scheduled events. Throws std::out_of_range for a
  /// lane >= kCtlLanes, whose keys ordinary events already use.
  void schedule_ctl(Time t, std::uint64_t lane, InlineFn action);

  /// Adds dt to every non-terminated process clock (engine or event
  /// context). The coordinated-checkpoint cost model: a boundary or a
  /// restart charges the whole job without touching any process's stack.
  void charge_all(Time dt);

  /// The engine-lifetime byte-buffer recycler (frames/payloads draw their
  /// slabs here). Declared before all event/fiber state so outstanding
  /// buffers drain back before the pool dies.
  [[nodiscard]] util::BufferPool& buffer_pool() noexcept { return pool_; }

  /// Caps virtual time; run() stops with time_limit_hit when exceeded.
  void set_time_limit(Time t) noexcept { time_limit_ = t; }

  [[nodiscard]] const StackStats& stack_stats() const noexcept {
    return stack_stats_;
  }

  /// Drives the simulation until all processes terminate, deadlock, or the
  /// time limit. The whole simulation executes on the calling host thread
  /// (processes are fibers), so independent Engines may run concurrently on
  /// different threads; a single Engine must not be shared across threads.
  RunOutcome run();

  // ---- process-context API ----

  /// The currently running process; must be called from process context.
  [[nodiscard]] Process& current();
  [[nodiscard]] bool in_process_context() const noexcept;

  /// Virtual now: current process clock in process context, else the
  /// timestamp of the event being executed (or last executed).
  [[nodiscard]] Time now() const noexcept;

  /// Adds dt (>= 0) to the current process clock.
  void advance(Time dt);

  /// Moves the current process clock forward to at least t (no-op if the
  /// clock is already past t). Used when consuming a frame that arrived
  /// while the process was computing.
  void advance_to(Time t);

  /// Cooperative scheduling point; cheap no-op unless an older item exists.
  void maybe_yield();

  /// Unconditional yield (process stays runnable). Events due before the
  /// next dispatch run inline on this fiber, so one that throws unwinds
  /// this process, as it does from block() and maybe_yield().
  void yield();

  /// Parks the current process until wake(). `reason`, a string that
  /// outlives the wait (callers pass literals), shows up in deadlock
  /// reports. Checks for injected crash before and after parking.
  void block(const char* reason);

  // ---- cross-context API ----

  /// Makes a blocked process runnable with clock >= t. No-op for processes
  /// that are not blocked (their inbox processing will pick the data up).
  void wake(int pid, Time t);

  /// Requests a fail-stop crash; takes effect at the target's next
  /// scheduling point (MPI-call granularity). Blocked targets are unwound
  /// immediately at max(clock, now).
  void request_crash(int pid);

  [[nodiscard]] const Process& process(int pid) const;
  [[nodiscard]] Process& process(int pid);
  [[nodiscard]] std::size_t process_count() const noexcept {
    return procs_.size();
  }

  /// True when the process terminated by injected crash.
  [[nodiscard]] bool crashed(int pid) const;

 private:
  friend class Process;

  /// What the scheduler does next.
  enum class Next {
    Event,      ///< execute the earliest pending event
    Process,    ///< dispatch the process next_item() returned
    TimeLimit,  ///< the next item lies past the time limit: stop
    Quiet,      ///< no event, no runnable process: stop (done or deadlock)
  };
  /// The scheduling rule at the top of this file, the one copy that run(),
  /// block(), yield() and maybe_yield() all decide with. Sets `p` to the
  /// oldest runnable process (nullptr if none) and leaves its heap entry on
  /// top for pop_runnable().
  [[nodiscard]] Next next_item(Process*& p) noexcept;

  /// Smallest-clock runnable process, pid tie-break; nullptr if none.
  /// Served from runnable_heap_ (lazy deletion), so the per-dispatch cost
  /// is O(log runnable) instead of a scan over every process — the scan
  /// was O(procs × events) aggregate, the dominant host cost at 4k ranks.
  [[nodiscard]] Process* peek_runnable() noexcept;
  /// Removes peek_runnable()'s entry; call exactly once per dispatch.
  void pop_runnable() noexcept;
  /// Records a transition into Runnable. Every site that sets
  /// ProcState::Runnable must push, or the process is never scheduled.
  void push_runnable(const Process& p);
  /// Re-inserts every runnable process after a bulk clock rewrite
  /// (charge_all) invalidates the stored keys.
  void rebuild_runnable_heap();
  /// Pops and executes the earliest event in engine context (event_now_,
  /// running_ == nullptr), then restores the caller's context: none in
  /// run(), the host process when drained inline from its fiber.
  void run_event();
  /// The scheduler loop, run on the fiber of `self`, which just blocked or
  /// yielded: executes due events inline, then keeps running self (returns
  /// false), hands the host stack straight to the next process, or on a
  /// stop switches back to run() (both return true, once self has been
  /// dispatched again).
  bool schedule_from(Process& self);
  /// Makes `p` the running process and counts the dispatch; a process's
  /// fiber and stack are created at its first dispatch.
  void dispatch(Process& p);
  /// Switches from the scheduler's stack onto `p`'s fiber
  /// (sdrmpi_fiber_switch, no syscall); returns when some fiber switches
  /// back — at a process exit, a deadlock or the time limit — and gives a
  /// terminated fiber's stack back to the pool. That fiber may not be `p`.
  void resume(Process& p);
  /// Fiber → fiber dispatch: switches from `self`'s stack straight onto
  /// `next`'s, with no pass through run(); returns when self is dispatched
  /// again.
  void hand_off(Process& self, Process& next);
  /// Switches from the running fiber straight back to the scheduler's
  /// stack, with the same user-space switch.
  void return_control_to_engine();
  /// The fiber side of every switch: the sanitizer announcements around
  /// sdrmpi_fiber_switch (asan_fiber.hpp) from `self` to the context saved
  /// at `load_sp`, whose stack is [bottom, bottom + size).
  void leave_fiber(Process& self, void* load_sp, const void* bottom,
                   std::size_t size, void* tsan_fiber);

  [[nodiscard]] FiberStack acquire_stack();
  void release_stack(FiberStack stack);

  // Destroyed LAST: pending events and unwinding fibers may still hold
  // pool-backed buffers (net::Payload) that return their slabs on
  // destruction.
  util::BufferPool pool_;

  std::vector<std::unique_ptr<Process>> procs_;
  // Min-heap of (clock, pid) over runnable processes, lazily deleted: an
  // entry is live iff its process is still runnable at exactly the stored
  // clock; anything else is skipped on peek. Duplicates are harmless (the
  // validity check makes them interchangeable), and every dispatch pops
  // one entry, so the heap stays bounded by the push count between
  // dispatches. Ordering is the scheduling rule above — (clock, pid)
  // lexicographic — so replacing the linear scan is bit-invisible.
  struct RunnableRef {
    Time clock;
    int pid;
  };
  // std heap algorithms build max-heaps; invert to get (clock, pid) min.
  struct RunnableAfter {
    bool operator()(const RunnableRef& a, const RunnableRef& b) const noexcept {
      return a.clock > b.clock || (a.clock == b.clock && a.pid > b.pid);
    }
  };
  std::vector<RunnableRef> runnable_heap_;
  EventQueue events_;
  std::uint64_t event_seq_ = kCtlLanes;  // below: control lanes
  std::uint64_t events_executed_ = 0;
  std::uint64_t context_switches_ = 0;

  Time event_now_ = 0;     // timestamp of the event being executed
  Time time_limit_ = 0;    // 0 = unlimited
  Process* running_ = nullptr;

  void* sched_sp_ = nullptr;  // scheduler stack pointer fibers switch back to
  StackStats stack_stats_;
  bool stack_watermark_ = false;  // SDRMPI_STACK_WATERMARK fill enabled

  // ASan fiber bookkeeping (no-ops without ASan, see asan_fiber.hpp): the
  // scheduler context's fake-stack handle and its stack bounds as reported
  // by a fiber's first entry from resume(). A first entry by hand-off
  // reports the handing fiber's stack instead, so it must not record them;
  // entered_from_sched_ tells the two apart.
  void* asan_sched_fake_ = nullptr;
  const void* asan_sched_bottom_ = nullptr;
  std::size_t asan_sched_size_ = 0;
  bool entered_from_sched_ = false;  // last switch onto a fiber was resume()'s

  // TSan fiber bookkeeping (no-op without TSan): the scheduler thread's
  // implicit fiber handle, captured on each resume so the returning fiber
  // can announce the switch back.
  void* tsan_sched_fiber_ = nullptr;
};

}  // namespace sdrmpi::sim
