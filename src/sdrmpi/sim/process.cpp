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

// The fiber switch and the fiber entry stub (x86-64 SysV ABI, ELF).
//
// sdrmpi_fiber_switch(save_sp, load_sp) pushes the callee-saved registers
// and the FP control state, stores rsp in *save_sp, loads load_sp and pops
// the same layout from the target stack. Every saved context, a fresh
// fiber's first frame included (SwitchFrame below), has this layout:
//
//   [rsp +  0]  MXCSR (4 bytes), x87 control word (2), padding (2)
//   [rsp +  8]  r15, r14, r13, r12, rbx, rbp
//   [rsp + 56]  return address
//
// The CFA offset is the same on both sides of the rsp load, so the CFI
// notes hold at every instruction. A fresh fiber "returns" into
// sdrmpi_fiber_entry, which calls rbx(r12), i.e. Process::trampoline(this);
// the stub marks rip undefined so unwinders and debuggers stop there. The
// `ret` lands on another stack's return address, so a process that turns
// on CET shadow stacks cannot run fibers.
asm(R"(
    .text
    .globl sdrmpi_fiber_switch
    .hidden sdrmpi_fiber_switch
    .type sdrmpi_fiber_switch, @function
    .p2align 4
sdrmpi_fiber_switch:
    .cfi_startproc
    pushq %rbp
    .cfi_adjust_cfa_offset 8
    pushq %rbx
    .cfi_adjust_cfa_offset 8
    pushq %r12
    .cfi_adjust_cfa_offset 8
    pushq %r13
    .cfi_adjust_cfa_offset 8
    pushq %r14
    .cfi_adjust_cfa_offset 8
    pushq %r15
    .cfi_adjust_cfa_offset 8
    subq $8, %rsp
    .cfi_adjust_cfa_offset 8
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    .cfi_adjust_cfa_offset -8
    popq %r15
    .cfi_adjust_cfa_offset -8
    popq %r14
    .cfi_adjust_cfa_offset -8
    popq %r13
    .cfi_adjust_cfa_offset -8
    popq %r12
    .cfi_adjust_cfa_offset -8
    popq %rbx
    .cfi_adjust_cfa_offset -8
    popq %rbp
    .cfi_adjust_cfa_offset -8
    ret
    .cfi_endproc
    .size sdrmpi_fiber_switch, .-sdrmpi_fiber_switch

    .globl sdrmpi_fiber_entry
    .hidden sdrmpi_fiber_entry
    .type sdrmpi_fiber_entry, @function
    .p2align 4
sdrmpi_fiber_entry:
    .cfi_startproc
    .cfi_undefined rip
    movq %r12, %rdi
    callq *%rbx
    ud2
    .cfi_endproc
    .size sdrmpi_fiber_entry, .-sdrmpi_fiber_entry
)");

extern "C" void sdrmpi_fiber_entry();

namespace sdrmpi::sim {

namespace {

// A fiber's first frame, as sdrmpi_fiber_switch pops it (low to high).
struct SwitchFrame {
  std::uint32_t mxcsr = 0;
  std::uint16_t x87_cw = 0;
  std::uint16_t pad = 0;
  void* r15 = nullptr;
  void* r14 = nullptr;
  void* r13 = nullptr;
  Process* r12 = nullptr;              // the stub's argument
  void (*rbx)(Process*) = nullptr;     // the stub's callee
  void* rbp = nullptr;                 // null ends frame-pointer chains
  void (*ret)() = nullptr;             // "returns" into the entry stub
};
static_assert(sizeof(SwitchFrame) == 64);

// Power-on FP control state (SysV ABI): all exceptions masked, round to
// nearest; the x87 unit at double-extended precision.
constexpr std::uint32_t kMxcsrDefault = 0x1f80;
constexpr std::uint16_t kX87CwDefault = 0x037f;

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
  // The frame sits at the page-aligned stack top, so the stub's call runs
  // with rsp 16-byte aligned, as the ABI requires at every call.
  std::byte* top = stack_.sp() + stack_.size();
  sp_ = new (top - sizeof(SwitchFrame)) SwitchFrame{
      .mxcsr = kMxcsrDefault,
      .x87_cw = kX87CwDefault,
      .r12 = this,
      .rbx = &Process::trampoline,
      .ret = &sdrmpi_fiber_entry,
  };
}

void Process::trampoline(Process* self) {
  // First landing on this fiber: complete the switch and, when the
  // scheduler made it, learn the scheduler's stack bounds for the way back
  // (ASan only; no-op otherwise). A hand-off would report the handing
  // fiber's stack, which must not overwrite them. No address-taken local
  // here: this frame never returns, so ASan would never unpoison its
  // redzones, and they would stay poisoned on the pooled stack.
  Engine& eng = self->engine_;
  if (eng.entered_from_sched_) {
    asan::finish_switch(nullptr, &eng.asan_sched_bottom_,
                        &eng.asan_sched_size_);
  } else {
    asan::finish_switch(nullptr, nullptr, nullptr);
  }
  self->run_body();
  // Final switch back to the scheduler; this context must never be resumed
  // again (the engine releases the stack once the process terminated).
  eng.return_control_to_engine();
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
