// sweep-workerd: remote sweep worker daemon.
//
// Connects to a sweep-service coordinator (a bench/example started with
// --listen, or any SweepService with ServiceOptions::listen set),
// registers with the version handshake (plus the HMAC challenge/response
// when --secret-file is given), heartbeats, and pulls points one at a
// time — each WorkRequest is answered with one Dispatch, and the next
// request goes out as soon as a point arrives, so one point waits behind
// the one running — resolving each through the workload registry until
// the coordinator shuts the fleet down.
//
// Usage:
//   sweep-workerd --connect=HOST:PORT [--secret-file=PATH] [--stats]
//                 [--supervise[=N]]
//
// --supervise[=N] runs a supervisor: the worker proper executes in a
// fork/exec'd child; any abnormal child exit — SIGKILL, SIGSEGV, nonzero
// status — is reaped and the child re-exec'd with capped exponential
// backoff, up to N restarts (default 5). The supervisor logs every child
// pid on stderr ("supervisor: child pid P ...") so harnesses can kill
// the *worker* and watch it heal; a fleet under supervision ends a kill
// test with the same live worker count it started with.
//
// --stats prints one deterministic counter line on exit
// ("[sweep-workerd] stats: points_executed=P dispatches=D
// work_requests=R"). A worker that ran to a clean shutdown has P == D
// (one point per Dispatch) and R == D + 1 (the last request goes
// unanswered).
//
// Exit status: 0 after a clean coordinator shutdown (or a coordinator
// that simply went away after registration — there is nobody left to
// serve), 1 when the coordinator stays unreachable past the retry
// budget (or the restart budget is spent), 2 for usage errors and for a
// rejected registration (wrong secret, version mismatch, or an
// authentication posture the two sides disagree on). A rejection is
// final: it is never retried, and the supervisor never restarts a child
// that exited 2.
//
// Start order is free: a workerd launched before its coordinator retries
// the connection kRetries times, kRetryMs apart (30 x 500 ms covers the
// gap); each attempt waits up to WorkerOptions::connect_timeout_ms (10 s)
// for the connection and for every registration reply.

#include <unistd.h>

#include <cstdio>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "sdrmpi/sweep/auth.hpp"
#include "sdrmpi/sweep/remote.hpp"
#include "sdrmpi/sweep/supervise.hpp"
#include "sdrmpi/sweep/transport.hpp"
#include "sdrmpi/util/options.hpp"

namespace {

/// Connection attempts after the first, and the pause between two.
constexpr int kRetries = 30;
constexpr int kRetryMs = 500;

void usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --connect=HOST:PORT [--secret-file=PATH] [--stats]\n"
               "       [--supervise[=N]]\n",
               prog);
}

/// The worker proper: retry loop around run_worker. Runs in the child
/// when supervised, inline otherwise.
int run_worker_main(const std::string& connect,
                    const sdrmpi::sweep::WorkerOptions& base,
                    bool print_stats) {
  using namespace sdrmpi;
  sweep::ignore_sigpipe();
  const sweep::AppResolver resolver = sweep::registry_resolver();
  sweep::WorkerStats stats;
  sweep::WorkerOptions wopts = base;
  if (print_stats) wopts.stats = &stats;
  auto emit_stats = [&] {
    if (!print_stats) return;
    // Deterministic counters only (no host time): CI checks these.
    std::fprintf(stderr,
                 "[sweep-workerd] stats: points_executed=%zu dispatches=%zu "
                 "work_requests=%zu\n",
                 stats.points_executed, stats.dispatches,
                 stats.work_requests);
  };
  for (int attempt = 0;; ++attempt) {
    try {
      sweep::run_worker(connect, resolver, wopts);
      emit_stats();
      return 0;  // coordinator shut us down cleanly
    } catch (const sweep::RegistrationRejected& e) {
      std::fprintf(stderr, "sweep-workerd: %s\n", e.what());
      return 2;  // retrying cannot change the verdict
    } catch (const std::exception& e) {
      if (attempt >= kRetries) {
        std::fprintf(stderr, "sweep-workerd: %s\n", e.what());
        emit_stats();
        return 1;
      }
      std::fprintf(stderr, "sweep-workerd: %s (retry %d/%d in %d ms)\n",
                   e.what(), attempt + 1, kRetries, kRetryMs);
      std::this_thread::sleep_for(std::chrono::milliseconds(kRetryMs));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sdrmpi;
  try {
    const util::Options opts(argc, argv);
    opts.expect({"connect", "secret-file", "stats", "supervise", "help"});
    if (opts.has("help")) {
      usage(argv[0]);
      return 0;
    }
    const std::string connect = opts.get_string("connect", "");
    if (connect.empty()) {
      usage(argv[0]);
      return 2;
    }
    sweep::WorkerOptions wopts;
    const std::string secret_file = opts.get_string("secret-file", "");
    if (!secret_file.empty()) {
      wopts.secret = sweep::auth::load_secret_file(secret_file);
    }
    const bool print_stats = opts.get_bool("stats", false);

    if (!opts.has("supervise")) {
      return run_worker_main(connect, wopts, print_stats);
    }

    // Supervisor mode: re-exec this binary (minus --supervise) as the
    // child, so every restart begins from a pristine process image.
    const int budget = static_cast<int>(opts.get_int("supervise", 5));
    std::vector<std::string> child_argv;
    child_argv.push_back(::access("/proc/self/exe", X_OK) == 0
                             ? "/proc/self/exe"
                             : argv[0]);
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--supervise", 0) == 0) continue;
      child_argv.push_back(arg);
    }
    sweep::SuperviseOptions sup;
    sup.restart_budget = budget;
    sup.log = stderr;
    sup.on_spawn = [budget](pid_t pid, int attempt) {
      std::fprintf(stderr, "supervisor: child pid %d (launch %d, budget %d)\n",
                   static_cast<int>(pid), attempt, budget);
    };
    const sweep::SuperviseOutcome out = sweep::supervise_exec(child_argv, sup);
    if (out.budget_spent) {
      std::fprintf(stderr,
                   "sweep-workerd: worker kept dying (%d launches); the "
                   "coordinator's lease machinery now owns its points\n",
                   out.launches);
    }
    return out.exit_code;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep-workerd: %s\n", e.what());
    return 2;
  }
}
