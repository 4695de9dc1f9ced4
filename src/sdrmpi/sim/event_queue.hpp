// EventQueue: the engine's pending-event store — a 4-ary min-heap over a
// recycled slab of InlineFn callbacks.
//
// Heap entries are 24-byte PODs (timestamp, insertion sequence, slab index)
// sifted without touching the callbacks, so reordering is pure integer
// work on a contiguous array; the callbacks themselves sit in a slab whose
// slots are recycled through a free list — after warmup a schedule/pop
// cycle performs zero heap allocations (amortized: the heap vector and the
// slab still grow geometrically to the high-water mark).
//
// Ordering is identical to the std::priority_queue it replaces: smallest
// timestamp first, insertion sequence breaking ties — the total order the
// engine's bit-reproducibility contract depends on.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "sdrmpi/sim/inline_fn.hpp"
#include "sdrmpi/sim/time.hpp"

namespace sdrmpi::sim {

class EventQueue {
 public:
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// Timestamp of the earliest event; undefined when empty().
  [[nodiscard]] Time top_time() const noexcept {
    assert(!heap_.empty());
    return heap_.front().t;
  }

  void push(Time t, std::uint64_t seq, InlineFn fn) {
    std::uint32_t node;
    if (free_head_ != kNilNode) {
      node = free_head_;
      free_head_ = next_free_[node];
      slab_[node] = std::move(fn);
    } else {
      node = static_cast<std::uint32_t>(slab_.size());
      slab_.push_back(std::move(fn));
      next_free_.push_back(kNilNode);
    }
    heap_.push_back(Entry{t, seq, node});
    sift_up(heap_.size() - 1);
  }

  /// Removes the earliest event and returns its callback; the slab slot is
  /// recycled immediately.
  [[nodiscard]] InlineFn pop() {
    assert(!heap_.empty());
    const Entry top = heap_.front();
    InlineFn fn = std::move(slab_[top.node]);
    slab_[top.node].reset();
    next_free_[top.node] = free_head_;
    free_head_ = top.node;

    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    return fn;
  }

  /// Destroys all pending events (releases their captures).
  void clear() noexcept {
    heap_.clear();
    slab_.clear();
    next_free_.clear();
    free_head_ = kNilNode;
  }

  /// Slab high-water mark (diagnostics: peak simultaneous pending events).
  [[nodiscard]] std::size_t slab_capacity() const noexcept {
    return slab_.size();
  }

 private:
  static constexpr std::uint32_t kNilNode = 0xffffffffu;
  static constexpr std::size_t kArity = 4;

  struct Entry {
    Time t;
    std::uint64_t seq;
    std::uint32_t node;
  };

  [[nodiscard]] static bool before(const Entry& a, const Entry& b) noexcept {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  }

  void sift_up(std::size_t i) noexcept {
    Entry e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  void sift_down(std::size_t i) noexcept {
    const std::size_t n = heap_.size();
    Entry e = heap_[i];
    for (;;) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = std::min(first + kArity, n);
      for (std::size_t c = first + 1; c < last; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], e)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = e;
  }

  std::vector<Entry> heap_;
  std::vector<InlineFn> slab_;            // callbacks, indexed by Entry::node
  std::vector<std::uint32_t> next_free_;  // intrusive free list over slab_
  std::uint32_t free_head_ = kNilNode;
};

}  // namespace sdrmpi::sim
