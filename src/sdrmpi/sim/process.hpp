// A simulated process: a stackful fiber cooperatively scheduled by
// sim::Engine.
//
// Exactly one entity (the engine loop or a single process) executes at any
// host instant; control moves via a user-space stack switch on the engine's
// host thread (sdrmpi_fiber_switch, process.cpp) — no syscall, no locks.
// A process that blocks or yields hands the host stack straight to the next
// process's fiber; the engine loop gets it back only at a process exit, a
// deadlock or the time limit (engine.hpp).
// The switch keeps only what the SysV ABI makes callee-saved: six integer
// registers, the MXCSR and the x87 control word. It leaves the signal mask
// alone, so a switch makes no syscall: the mask is the host thread's, and
// fibers never change it.
// Each process carries a virtual clock that only moves forward. Processes
// interact with each other exclusively through timestamped events, which
// is what makes the sequential scheduling sound. Because a whole
// simulation occupies exactly one host thread, independent Engine instances
// can run concurrently on a thread pool (see core::run_many).
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "sdrmpi/sim/time.hpp"

namespace sdrmpi::sim {

class Engine;

/// Saves the calling context's callee-saved state on its own stack, stores
/// that stack pointer in *save_sp, and resumes the context saved at
/// load_sp; returns when some later switch names *save_sp again. x86-64
/// SysV only (CMakeLists.txt rejects other targets).
extern "C" void sdrmpi_fiber_switch(void** save_sp, void* load_sp);

enum class ProcState : int {
  Created,   // spawned, fiber not yet entered
  Runnable,  // can be scheduled
  Running,   // currently executing on its fiber
  Blocked,   // parked in Engine::block(), waiting for wake()
  Finished,  // body returned normally
  Crashed,   // fail-stop injected (or engine shutdown unwound the stack)
  Failed,    // body threw an unexpected exception
};

[[nodiscard]] const char* to_string(ProcState s) noexcept;

/// Thrown inside a process to unwind its stack on injected crash/shutdown.
/// Deliberately not derived from std::exception so that workload code using
/// catch (const std::exception&) cannot accidentally swallow a crash.
struct CrashUnwind {};

/// A fiber stack: an mmap'd region with a PROT_NONE guard page below the
/// usable range, so overflow faults immediately (as OS thread stacks did)
/// instead of silently corrupting the heap. Default-size stacks are
/// recycled through a pool per host thread (Engine::acquire_stack), so
/// respawn-heavy runs and sweeps of many small Worlds do not churn mmap.
class FiberStack {
 public:
  FiberStack() = default;
  /// Maps guard page + `usable` bytes (rounded up to page size); throws
  /// std::bad_alloc on mmap failure.
  explicit FiberStack(std::size_t usable);
  ~FiberStack();

  FiberStack(FiberStack&& o) noexcept;
  FiberStack& operator=(FiberStack&& o) noexcept;
  FiberStack(const FiberStack&) = delete;
  FiberStack& operator=(const FiberStack&) = delete;

  [[nodiscard]] bool valid() const noexcept { return base_ != nullptr; }
  /// Start of the usable range (just above the guard page).
  [[nodiscard]] std::byte* sp() const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return usable_; }
  /// Mapped bytes including the guard page (the address-space cost; RSS
  /// only counts pages actually touched).
  [[nodiscard]] std::size_t mapped_bytes() const noexcept { return total_; }

 private:
  std::byte* base_ = nullptr;  // mapped region, guard page first
  std::size_t total_ = 0;      // mapped bytes incl. guard page
  std::size_t usable_ = 0;
};

class Process {
 public:
  Process(Engine& engine, int pid, std::string name,
          std::function<void()> body);
  ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] int pid() const noexcept { return pid_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] Time clock() const noexcept { return clock_; }
  [[nodiscard]] ProcState state() const noexcept { return state_; }
  [[nodiscard]] bool runnable() const noexcept {
    return state_ == ProcState::Runnable || state_ == ProcState::Created;
  }
  [[nodiscard]] bool terminated() const noexcept {
    return state_ == ProcState::Finished || state_ == ProcState::Crashed ||
           state_ == ProcState::Failed;
  }
  /// Pending crash injection that takes effect at the next scheduling point.
  [[nodiscard]] bool crash_requested() const noexcept { return crash_req_; }
  [[nodiscard]] std::exception_ptr error() const noexcept { return error_; }

  /// Reason recorded when the process blocks (for deadlock reports).
  [[nodiscard]] std::string_view block_reason() const noexcept {
    return block_reason_;
  }

 private:
  friend class Engine;

  /// Lays out a first switch frame on `stack`; the body starts running at
  /// the process's first dispatch (Engine::resume() or a hand-off).
  void make_fiber(FiberStack stack);
  /// First function on a fiber, called by the entry stub in process.cpp.
  [[noreturn]] static void trampoline(Process* self);
  /// Runs the body with crash/exception bookkeeping; executes on the fiber.
  void run_body();

  Engine& engine_;
  const int pid_;
  const std::string name_;
  std::function<void()> body_;

  Time clock_ = 0;
  ProcState state_ = ProcState::Created;
  bool crash_req_ = false;
  const char* block_reason_ = "";
  std::exception_ptr error_;

  void* sp_ = nullptr;  // saved stack pointer while switched out
  FiberStack stack_;
  void* asan_fake_stack_ = nullptr;  // ASan fake-stack handle (asan_fiber.hpp)
  void* tsan_fiber_ = nullptr;       // TSan fiber handle (asan_fiber.hpp)
};

}  // namespace sdrmpi::sim
