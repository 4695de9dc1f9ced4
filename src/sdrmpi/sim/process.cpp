#include "sdrmpi/sim/process.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>

#include "sdrmpi/sim/asan_fiber.hpp"
#include "sdrmpi/sim/engine.hpp"
#include "sdrmpi/util/log.hpp"

namespace sdrmpi::sim {

namespace {

std::size_t page_size() noexcept {
  static const auto ps = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return ps;
}

}  // namespace

FiberStack::FiberStack(std::size_t usable) {
  const std::size_t ps = page_size();
  usable_ = (usable + ps - 1) / ps * ps;
  total_ = usable_ + ps;  // one guard page below the stack
  void* mem = ::mmap(nullptr, total_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) throw std::bad_alloc{};
  base_ = static_cast<std::byte*>(mem);
  // Stacks grow downward: the lowest page faults on overflow.
  ::mprotect(base_, ps, PROT_NONE);
}

FiberStack::~FiberStack() {
  if (base_ != nullptr) ::munmap(base_, total_);
}

FiberStack::FiberStack(FiberStack&& o) noexcept
    : base_(std::exchange(o.base_, nullptr)),
      total_(std::exchange(o.total_, 0)),
      usable_(std::exchange(o.usable_, 0)) {}

FiberStack& FiberStack::operator=(FiberStack&& o) noexcept {
  if (this != &o) {
    if (base_ != nullptr) ::munmap(base_, total_);
    base_ = std::exchange(o.base_, nullptr);
    total_ = std::exchange(o.total_, 0);
    usable_ = std::exchange(o.usable_, 0);
  }
  return *this;
}

std::byte* FiberStack::sp() const noexcept { return base_ + page_size(); }

const char* to_string(ProcState s) noexcept {
  switch (s) {
    case ProcState::Created: return "Created";
    case ProcState::Runnable: return "Runnable";
    case ProcState::Running: return "Running";
    case ProcState::Blocked: return "Blocked";
    case ProcState::Finished: return "Finished";
    case ProcState::Crashed: return "Crashed";
    case ProcState::Failed: return "Failed";
  }
  return "?";
}

Process::Process(Engine& engine, int pid, std::string name,
                 std::function<void()> body)
    : engine_(engine), pid_(pid), name_(std::move(name)), body_(std::move(body)) {}

Process::~Process() {
  // Normally destroyed by the engine right after termination; this covers
  // fibers torn down without ever terminating (engine destruction paths).
  // The handle can never be the running fiber here — a Process is only
  // destructed from engine/host context.
  tsan::destroy_fiber(tsan_fiber_);
  tsan_fiber_ = nullptr;
}

void Process::make_fiber(FiberStack stack) {
  stack_ = std::move(stack);
  tsan_fiber_ = tsan::create_fiber();
  getcontext(&ctx_);
  ctx_.uc_stack.ss_sp = stack_.sp();
  ctx_.uc_stack.ss_size = stack_.size();
  ctx_.uc_link = nullptr;  // termination is an explicit switch, never a return
  // makecontext only passes ints; split the pointer across two of them
  // (widened through u64 so the shift is defined on 32-bit pointers too).
  const auto self =
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(this));
  makecontext(&ctx_, reinterpret_cast<void (*)()>(&Process::trampoline), 2,
              static_cast<unsigned int>(self >> 32),
              static_cast<unsigned int>(self & 0xffffffffu));
}

void Process::trampoline(unsigned int hi, unsigned int lo) {
  auto* self = reinterpret_cast<Process*>(static_cast<std::uintptr_t>(
      (static_cast<std::uint64_t>(hi) << 32) | lo));
  // First landing on this fiber: complete the switch and learn the
  // scheduler's stack bounds for the way back (ASan only; no-op otherwise).
  asan::finish_switch(nullptr, &self->engine_.asan_sched_bottom_,
                      &self->engine_.asan_sched_size_);
  self->run_body();
  // Final switch back to the scheduler; this context must never be resumed
  // again (the engine releases the stack once the process terminated).
  self->engine_.return_control_to_engine();
  std::abort();  // resumed a terminated fiber: engine bug
}

void Process::run_body() {
  try {
    if (crash_req_) throw CrashUnwind{};
    body_();
    state_ = ProcState::Finished;
  } catch (const CrashUnwind&) {
    state_ = ProcState::Crashed;
  } catch (...) {
    state_ = ProcState::Failed;
    error_ = std::current_exception();
  }
  SDR_LOG(Debug, "sim") << "process " << name_ << " exits as "
                        << to_string(state_) << " at t=" << clock_;
}

}  // namespace sdrmpi::sim
