// Host-side byte-traffic counters for the perf trajectory (the
// bytes-touched companion of util::alloc_counter).
//
// bytes_copied counts every host memcpy/fill of simulated payload bytes
// (Payload::copy_of/concat, lazy materialization, receive-side delivery
// copies). A writer filling a Payload::fresh slab produces the contents in
// place, like an application filling its own buffer, and counts nothing;
// bytes_hashed counts every payload byte fed through an FNV-1a
// byte step. Digests served without byte steps count nothing: the Zeros
// closed form, folded all-zero 64-byte blocks, the per-shape memos and
// the live-digest table (net/payload.hpp). Together they are the
// machine-checkable form of the symbolic-payload claim: with symbolic
// contents a GB-scale message costs O(1) host bytes, not O(len).
//
// Counters are thread_local: one simulated run occupies exactly one host
// thread for its whole lifetime (the batch runner's contract), so deltas
// taken around a run attribute exactly that run's traffic. core::World
// resets the per-thread digest memos at run start, so per-run deltas of
// both counters are deterministic (pool-size independent) — the fuzz suite
// pins this.
#pragma once

#include <cstdint>

namespace sdrmpi::util {

struct ByteCounters {
  std::uint64_t bytes_copied = 0;    ///< payload bytes memcpy'd / filled
  std::uint64_t bytes_hashed = 0;    ///< payload bytes fed to FNV steps
  std::uint64_t materializations = 0;  ///< symbolic payloads realized
};

[[nodiscard]] inline ByteCounters& byte_counters() noexcept {
  thread_local ByteCounters counters;
  return counters;
}

inline void count_bytes_copied(std::uint64_t n) noexcept {
  byte_counters().bytes_copied += n;
}

inline void count_bytes_hashed(std::uint64_t n) noexcept {
  byte_counters().bytes_hashed += n;
}

}  // namespace sdrmpi::util
