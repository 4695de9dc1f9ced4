#include "host.hpp"

#include <sys/resource.h>
#include <ucontext.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <numeric>
#include <vector>

namespace perfbench {

HostInfo host_info() {
  HostInfo h;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        h.cpu_model = line.substr(line.find_first_not_of(" \t", colon + 1));
      }
      break;
    }
  }
  if (h.cpu_model.empty()) h.cpu_model = "unknown";
  h.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  h.compiler = PERFBENCH_COMPILER;
  h.build_type = PERFBENCH_BUILD_TYPE;
  h.release = h.build_type == "Release";
  return h;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB on Linux
}

namespace {

constexpr int kSwitches = 20'000;
constexpr std::uint32_t kChaseEntries = 1u << 18;  // 1 MiB of uint32
constexpr int kChaseSteps = 1 << 20;
constexpr int kAluSteps = 1 << 22;

// Keeps the ALU loop's result observable so it is not optimized away.
volatile std::uint64_t g_sink = 0;

ucontext_t g_main_ctx;
ucontext_t g_peer_ctx;

void peer_body() {
  for (;;) swapcontext(&g_peer_ctx, &g_main_ctx);
}

// Sattolo's algorithm over a fixed LCG: one cycle through every entry, so
// the chase visits the whole table in an order the prefetcher cannot guess.
std::vector<std::uint32_t> make_chase_table() {
  std::vector<std::uint32_t> next(kChaseEntries);
  std::iota(next.begin(), next.end(), 0u);
  std::uint64_t lcg = 0x2545f4914f6cdd1dULL;
  for (std::uint32_t i = kChaseEntries - 1; i > 0; --i) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto j = static_cast<std::uint32_t>((lcg >> 33) % i);
    std::swap(next[i], next[j]);
  }
  return next;
}

}  // namespace

double reference_kernel_s() {
  static std::vector<char> peer_stack(64 * 1024);
  static const std::vector<std::uint32_t> chase = make_chase_table();
  static bool peer_ready = false;
  if (!peer_ready) {
    getcontext(&g_peer_ctx);
    g_peer_ctx.uc_stack.ss_sp = peer_stack.data();
    g_peer_ctx.uc_stack.ss_size = peer_stack.size();
    g_peer_ctx.uc_link = nullptr;
    makecontext(&g_peer_ctx, peer_body, 0);
    peer_ready = true;
  }

  const double start = now_s();
  for (int i = 0; i < kSwitches; ++i) swapcontext(&g_main_ctx, &g_peer_ctx);
  std::uint32_t at = 0;
  for (int i = 0; i < kChaseSteps; ++i) at = chase[at];
  std::uint64_t x = 0x9e3779b97f4a7c15ULL ^ at;
  for (int i = 0; i < kAluSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  g_sink = x;
  return now_s() - start;
}

}  // namespace perfbench
