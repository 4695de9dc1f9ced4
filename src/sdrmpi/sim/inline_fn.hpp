// InlineFn: the event queue's callback type — a move-only type-erased
// callable with a 72-byte inline buffer.
//
// The closures that dominate the simulator (fabric delivery, wake, timeout)
// capture at most an object pointer, a slot, a frame header and a payload
// handle, and fit inline, so scheduling them touches no heap at all —
// unlike std::function, whose small-buffer window (16 B on libstdc++)
// forces one allocation per scheduled frame.
// Larger captures transparently fall back to a heap box; heap_allocated()
// exposes which path a callable took so tests can pin the inline guarantee.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace sdrmpi::sim {

class InlineFn {
 public:
  /// Inline capture capacity. Sized for the fabric's delivery closure
  /// (Fabric*, destination slot, FrameHeader and Payload: 72 bytes, which
  /// fabric.cpp pins with a static_assert). buf_ comes first, so the ops
  /// pointer fills the tail of its 16-byte alignment and sizeof(InlineFn)
  /// is 80; enlarging this grows every event slab entry.
  static constexpr std::size_t kInlineBytes = 72;

  InlineFn() noexcept = default;

  template <class F,
            class = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, InlineFn>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor): callable wrapper
    using Fn = std::remove_cvref_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>);
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      *reinterpret_cast<void**>(buf_) = new Fn(std::forward<F>(f));
      ops_ = &boxed_ops<Fn>;
    }
  }

  InlineFn(InlineFn&& other) noexcept { move_from(other); }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  void operator()() { ops_->invoke(buf_); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  /// True when the callable lives in a heap box (capture > kInlineBytes).
  [[nodiscard]] bool heap_allocated() const noexcept {
    return ops_ != nullptr && ops_->boxed;
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    void (*relocate)(void* dst, void* src);  // move-construct dst, destroy src
    void (*destroy)(void* storage);
    bool boxed;
  };

  template <class Fn>
  static constexpr Ops inline_ops = {
      [](void* s) { (*static_cast<Fn*>(s))(); },
      [](void* dst, void* src) {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      },
      [](void* s) { static_cast<Fn*>(s)->~Fn(); },
      false,
  };

  template <class Fn>
  static constexpr Ops boxed_ops = {
      [](void* s) { (**static_cast<Fn**>(s))(); },
      [](void* dst, void* src) {
        *static_cast<void**>(dst) = *static_cast<void**>(src);
      },
      [](void* s) { delete *static_cast<Fn**>(s); },
      true,
  };

  void move_from(InlineFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};
static_assert(sizeof(void*) != 8 || sizeof(InlineFn) == 80);

}  // namespace sdrmpi::sim
