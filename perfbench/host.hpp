// Host facts and host-side measurement helpers for sdrbench.
#pragma once

#include <string>

namespace perfbench {

/// What the numbers were measured on. Recorded in every result file: host
/// timings are only comparable between runs with the same block.
struct HostInfo {
  std::string cpu_model;
  long nproc = 0;
  std::string compiler;
  std::string build_type;
  bool release = false;  ///< false flags a non-Release build
};

[[nodiscard]] HostInfo host_info();

/// Seconds on a monotonic clock (steady_clock).
[[nodiscard]] double now_s();

/// Process high-water RSS in MB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();

/// Times a fixed reference kernel that shares no code with sdrmpi: a
/// ucontext ping-pong, a dependent pointer chase over a 1 MiB table and an
/// integer ALU loop. Run before and after every timed phase, its seconds
/// track host drift: when the machine slows down, this number rises with
/// the workload's.
[[nodiscard]] double reference_kernel_s();

}  // namespace perfbench
