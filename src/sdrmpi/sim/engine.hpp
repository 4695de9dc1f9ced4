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
#pragma once

#include <ucontext.h>

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
  bool paused = false;            // stopped at set_pause_time(), resumable
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
/// stack at all; `bytes_mapped_peak` is the high-water address-space cost
/// (RSS only counts touched pages). `stack_depth_peak` is populated only
/// when the SDRMPI_STACK_WATERMARK fill is enabled — the fill itself
/// touches every stack page, so it is a right-sizing tool, not a
/// production mode.
struct StackStats {
  std::uint64_t bytes_mapped = 0;       ///< currently mapped (live + cached)
  std::uint64_t bytes_mapped_peak = 0;  ///< high-water of bytes_mapped
  std::uint64_t stacks_created = 0;     ///< fresh mmap'd stacks
  std::uint64_t stacks_recycled = 0;    ///< served from the free list
  std::uint64_t stacks_dropped = 0;     ///< unmapped at the free-list cap
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
  /// position is fixed by the caller instead of by arrival order, so late
  /// arming (a forked warm-prefix child injecting fault events mid-run)
  /// lands in exactly the slot a cold run's early arming would have used.
  static constexpr std::uint64_t kCtlLanes = std::uint64_t{1} << 20;

  /// Schedules an action on control lane `lane` (< kCtlLanes): the event
  /// tie-breaks at timestamp t as if it had been the lane-th insertion
  /// overall. Two events on one lane must never share a timestamp — the
  /// (t, seq) order would be ambiguous. Control events always win ties
  /// against normally scheduled events.
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

  /// Usable fiber-stack bytes for stacks allocated from now on (0 restores
  /// the SDRMPI_FIBER_STACK_KB / 256 KiB default). Takes effect at the next
  /// lazy stack allocation; cached stacks of a different size are dropped.
  void set_fiber_stack_bytes(std::size_t bytes);
  [[nodiscard]] std::size_t fiber_stack_bytes() const noexcept;

  /// Free-list high-water cap: terminated fibers' stacks beyond this many
  /// are unmapped instead of cached (default kDefaultStackCacheCap).
  void set_stack_cache_cap(std::size_t cap) noexcept {
    stack_cache_cap_ = cap;
  }
  static constexpr std::size_t kDefaultStackCacheCap = 16;

  [[nodiscard]] const StackStats& stack_stats() const noexcept {
    return stack_stats_;
  }

  /// Makes run() stop (outcome.paused, resumable by calling run() again)
  /// before dispatching any item with timestamp > t. Checked ONLY between
  /// scheduler dispatches — never inside the inline event drains of
  /// maybe_yield()/block() — so a paused run's state is bit-identical to a
  /// cold run's state at the same dispatch point and resuming continues
  /// the exact same total order. 0 disables (clear_pause()).
  void set_pause_time(Time t) noexcept { pause_at_ = t; }
  void clear_pause() noexcept { pause_at_ = 0; }

  /// Largest virtual time any work has reached: executed events and all
  /// process clocks. After a paused run() this is the earliest time at
  /// which new events (e.g. fault injections armed post-fork) may be
  /// scheduled without rewriting history.
  [[nodiscard]] Time executed_frontier() const noexcept;

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

  /// Unconditional yield (process stays runnable).
  void yield();

  /// Parks the current process until wake(). `reason` shows up in deadlock
  /// reports. Checks for injected crash before and after parking.
  void block(std::string reason);

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
  /// Pops and executes the due event from within a process fiber, in exact
  /// engine-context semantics (event_now_, running_ == nullptr). Used by
  /// maybe_yield()/block() to consume events without two fiber switches
  /// per event; action order matches the run() loop by construction.
  void run_event_inline(Process& self);
  /// Direct swapcontext into the process fiber; returns when the process
  /// yields, blocks, or terminates (terminated fibers give their stack back
  /// to the cache here).
  void resume(Process& p);
  /// Direct swapcontext from the running fiber back to the scheduler.
  void return_control_to_engine();

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
  Time pause_at_ = 0;      // 0 = no pause point
  Process* running_ = nullptr;

  ucontext_t sched_ctx_{};          // where fibers switch back to
  std::vector<FiberStack> stack_cache_;
  std::size_t stack_bytes_ = 0;  // 0 = env/default (see set_fiber_stack_bytes)
  std::size_t stack_cache_cap_ = kDefaultStackCacheCap;
  StackStats stack_stats_;
  bool stack_watermark_ = false;  // SDRMPI_STACK_WATERMARK fill enabled

  // ASan fiber bookkeeping (no-ops without ASan, see asan_fiber.hpp): the
  // scheduler context's fake-stack handle and its stack bounds as reported
  // by the first fiber entry.
  void* asan_sched_fake_ = nullptr;
  const void* asan_sched_bottom_ = nullptr;
  std::size_t asan_sched_size_ = 0;

  // TSan fiber bookkeeping (no-op without TSan): the scheduler thread's
  // implicit fiber handle, captured on each resume so the returning fiber
  // can announce the switch back.
  void* tsan_sched_fiber_ = nullptr;
};

}  // namespace sdrmpi::sim
