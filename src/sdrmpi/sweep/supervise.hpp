// Self-healing worker supervision: fork the worker as a child process,
// reap it on any abnormal exit (SIGKILL, SIGSEGV, nonzero status), and
// respawn it under capped exponential backoff until a restart budget is
// spent — so a sweep fleet heals instead of shrinking monotonically.
//
// This is the process-level twin of the coordinator's lease machinery:
// the coordinator re-dispatches a dead worker's *points*; the supervisor
// re-execs the dead *worker*, and the CI kill test ends the sweep with
// the same live worker count it started with. The pattern follows the
// TeaMPI/FTHP-MPI line the paper's successors took — failure detection
// is only half of resilience; the other half is putting the replica back.
//
// Two entry points, one fork site and one restart policy:
//  - supervise_call(body): forks and runs `body` in the child
//    (_exit(body())). Unit tests use it — the child inherits the test's
//    resolver tables by fork memory copy, no binary or argv needed.
//  - supervise_exec(argv): supervise_call with an execv() body that
//    returns 2 if the exec fails. sweep-workerd --supervise uses it — a
//    re-exec resets *all* child state (a corrupted heap must not survive
//    into the replacement).
#pragma once

#include <sys/types.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace sdrmpi::sweep {

struct SuperviseOptions {
  /// Restarts allowed after the first launch. 0 = plain fork/wait.
  int restart_budget = 5;
  /// Capped exponential backoff before restart n (1-based):
  /// min(backoff_base_ms << (n-1), backoff_cap_ms).
  int backoff_base_ms = 200;
  int backoff_cap_ms = 5000;
  /// Observer invoked after every successful fork with the child pid and
  /// the 1-based launch attempt. The workerd logs "supervisor: child pid
  /// N" from it so CI can SIGKILL the *child*; tests record pids.
  std::function<void(pid_t pid, int attempt)> on_spawn;
  /// Human-readable restart/exit lines (stderr when set); nullptr = quiet.
  std::FILE* log = nullptr;
};

/// Result of one supervision session.
struct SuperviseOutcome {
  int exit_code = 0;     ///< final child exit code (or 128+signal)
  int launches = 0;      ///< forks performed (1 = never restarted)
  bool budget_spent = false;  ///< gave up restarting a crashing child
};

/// Restart policy shared by both entry points (exposed for unit tests):
/// clean exit 0 ends supervision; exit 2 is a usage error or a rejected
/// registration (restarting cannot fix either); any other exit —
/// including every signal death — is restartable while the budget lasts.
[[nodiscard]] bool exit_is_restartable(int exit_code) noexcept;

/// Forks and runs `body` in the child (`_exit(body())`); supervises per
/// `opts`. Returns once the child exits cleanly, unrestartably, or the
/// budget is spent. Throws std::runtime_error when fork itself fails.
[[nodiscard]] SuperviseOutcome supervise_call(const std::function<int()>& body,
                                              const SuperviseOptions& opts);

/// Forks and execv()s `argv` (argv[0] = binary path; /proc/self/exe is
/// the conventional choice for self-re-exec); supervises per `opts`.
[[nodiscard]] SuperviseOutcome supervise_exec(
    const std::vector<std::string>& argv, const SuperviseOptions& opts);

}  // namespace sdrmpi::sweep
