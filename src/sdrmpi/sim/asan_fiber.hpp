// Sanitizer annotations for the fiber engine's stack switch
// (sdrmpi_fiber_switch, process.cpp).
//
// ASan tracks one stack per thread; switching onto a fiber stack without
// telling it corrupts its shadow bookkeeping — most visibly when an
// exception unwinds a fiber (__asan_handle_no_return walks the wrong
// stack, e.g. the CrashUnwind path). The fix is the documented protocol:
// __sanitizer_start_switch_fiber before every switch (saving the leaving
// context's fake stack, or dropping it when the fiber is dying) and
// __sanitizer_finish_switch_fiber right after control lands on the target
// stack. Compiled to no-ops without ASan.
//
// ThreadSanitizer has the same blind spot with a different API: each
// fiber needs an explicit __tsan_create_fiber handle, and every stack
// switch must be announced with __tsan_switch_to_fiber immediately
// before the switch — otherwise TSan attributes fiber stack accesses to
// whatever context last ran on the thread and drowns the run in false
// races. The tsan:: wrappers below compile to no-ops without TSan, so
// the engine carries both protocols unconditionally (the CI TSan job —
// CMake option SDRMPI_SANITIZE_THREAD — runs sim_test and pins the remote
// sweep coordinator's acceptor/reader/scheduler threads race-free).
#pragma once

#include <cstddef>

#if defined(__SANITIZE_ADDRESS__)
#define SDRMPI_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SDRMPI_ASAN_FIBERS 1
#endif
#endif

#if defined(__SANITIZE_THREAD__)
#define SDRMPI_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SDRMPI_TSAN_FIBERS 1
#endif
#endif

#if defined(SDRMPI_ASAN_FIBERS)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(SDRMPI_TSAN_FIBERS)
#include <sanitizer/tsan_interface.h>
#endif

namespace sdrmpi::sim::asan {

#if defined(SDRMPI_ASAN_FIBERS)

/// Announce a switch to the stack [bottom, bottom+size). `fake_save`
/// receives the leaving context's fake-stack handle; pass nullptr when the
/// leaving fiber terminates (its fake stack is destroyed).
inline void start_switch(void** fake_save, const void* bottom,
                         std::size_t size) {
  __sanitizer_start_switch_fiber(fake_save, bottom, size);
}

/// Complete a switch after landing on the target stack. `fake` is the
/// handle saved when this context last left (nullptr on first entry);
/// old_bottom/old_size receive the stack we came from.
inline void finish_switch(void* fake, const void** old_bottom,
                          std::size_t* old_size) {
  __sanitizer_finish_switch_fiber(fake, old_bottom, old_size);
}

#else

inline void start_switch(void**, const void*, std::size_t) {}
inline void finish_switch(void*, const void**, std::size_t*) {}

#endif

}  // namespace sdrmpi::sim::asan

namespace sdrmpi::sim::tsan {

#if defined(SDRMPI_TSAN_FIBERS)

/// Allocates a TSan fiber context (one per Process, created with the
/// fiber, destroyed from the scheduler after the fiber terminated).
inline void* create_fiber() { return __tsan_create_fiber(0); }

/// Destroys a fiber context. Must never target the running fiber — the
/// engine destroys only from the scheduler context, post-termination.
inline void destroy_fiber(void* fiber) {
  if (fiber != nullptr) __tsan_destroy_fiber(fiber);
}

/// The calling context's fiber handle (the thread's implicit fiber when
/// called from the scheduler loop).
inline void* current_fiber() { return __tsan_get_current_fiber(); }

/// Announce the switch; call immediately before sdrmpi_fiber_switch.
/// Exactly one announcement per switch, made by the leaving side — the
/// landing side does nothing.
inline void switch_to(void* fiber) {
  if (fiber != nullptr) __tsan_switch_to_fiber(fiber, 0);
}

#else

inline void* create_fiber() { return nullptr; }
inline void destroy_fiber(void*) {}
inline void* current_fiber() { return nullptr; }
inline void switch_to(void*) {}

#endif

}  // namespace sdrmpi::sim::tsan
