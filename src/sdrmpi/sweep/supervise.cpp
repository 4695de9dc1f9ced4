#include "sdrmpi/sweep/supervise.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace sdrmpi::sweep {
namespace {

/// Blocks until `pid` exits (EINTR-safe) and folds the wait status into
/// one exit code: normal exits keep their code, signal deaths map to the
/// shell convention 128+signo (SIGKILL -> 137, SIGSEGV -> 139).
int reap(pid_t pid) {
  int status = 0;
  for (;;) {
    const pid_t r = ::waitpid(pid, &status, 0);
    if (r == pid) break;
    if (r < 0 && errno == EINTR) continue;
    throw std::runtime_error(std::string("waitpid failed: ") +
                             std::strerror(errno));
  }
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return 128;  // neither exited nor signaled: treat as abnormal
}

void backoff_sleep(const SuperviseOptions& opts, int restart_n) {
  const int shift = std::min(restart_n - 1, 20);
  const long long ms =
      std::min<long long>(static_cast<long long>(opts.backoff_base_ms) << shift,
                          opts.backoff_cap_ms);
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace

bool exit_is_restartable(int exit_code) noexcept {
  // 0: clean shutdown (the coordinator said goodbye) — done, not dead.
  // 2: usage error or rejected registration — a re-exec re-reads the same
  //    bad command line (or presents the same refused credentials).
  // Everything else, signal deaths (128+N) above all, is what the
  // supervisor exists for.
  return exit_code != 0 && exit_code != 2;
}

SuperviseOutcome supervise_call(const std::function<int()>& body,
                                const SuperviseOptions& opts) {
  SuperviseOutcome out;
  for (;;) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      throw std::runtime_error(std::string("fork failed: ") +
                               std::strerror(errno));
    }
    if (pid == 0) {
      // Child: run the body and leave without unwinding the parent's
      // copied state (atexit handlers, stdio flushes belong to the
      // parent's lifetime, not ours).
      int code = 1;
      try {
        code = body();
      } catch (...) {
        code = 1;
      }
      ::_exit(code);
    }
    ++out.launches;
    if (opts.on_spawn) opts.on_spawn(pid, out.launches);
    out.exit_code = reap(pid);
    if (!exit_is_restartable(out.exit_code)) return out;
    const int restarts_done = out.launches - 1;
    if (restarts_done >= opts.restart_budget) {
      out.budget_spent = true;
      if (opts.log != nullptr) {
        std::fprintf(opts.log,
                     "supervisor: child exited %d; restart budget %d spent, "
                     "giving up\n",
                     out.exit_code, opts.restart_budget);
      }
      return out;
    }
    if (opts.log != nullptr) {
      std::fprintf(opts.log,
                   "supervisor: child pid %d exited %d; restart %d/%d\n",
                   static_cast<int>(pid), out.exit_code, restarts_done + 1,
                   opts.restart_budget);
    }
    backoff_sleep(opts, restarts_done + 1);
  }
}

SuperviseOutcome supervise_exec(const std::vector<std::string>& argv,
                                const SuperviseOptions& opts) {
  if (argv.empty()) throw std::runtime_error("supervise_exec: empty argv");
  return supervise_call(
      [&argv] {
        std::vector<char*> cargv;
        cargv.reserve(argv.size() + 1);
        for (const std::string& a : argv) {
          cargv.push_back(const_cast<char*>(a.c_str()));
        }
        cargv.push_back(nullptr);
        ::execv(cargv[0], cargv.data());
        // exec failed: exit 2 (unrestartable — the same path will fail
        // the same way on every retry).
        return 2;
      },
      opts);
}

}  // namespace sdrmpi::sweep
