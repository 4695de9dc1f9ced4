// TCP transport for the sweep worker frame protocol.
//
// The frame format (frame_io.hpp) is already length-prefixed and
// host-order independent, so crossing the machine boundary needs only a
// socket under it: a listener the coordinator accepts workers on, a
// connector for sweep-workerd, and poll helpers for deadline-driven
// reads. Everything here is plain blocking sockets — the remote
// scheduler's failure detection runs on heartbeat deadlines and reader
// EOF, not on async I/O.
//
// Robustness posture (the reason this file exists at all):
//  - SIGPIPE is disarmed process-wide (ignore_sigpipe()); a peer closing
//    mid-write surfaces as EPIPE from write(), a failed frame write the
//    scheduler absorbs by re-dispatching the peer's leases. A dying worker must never take the coordinator down,
//    and a dying coordinator must never take a worker down.
//  - Sockets are CLOEXEC (a re-exec'd supervised workerd must not inherit
//    its predecessor's connections) and TCP_NODELAY (frames are small; Nagle would add
//    40 ms hiccups to heartbeats and dispatches).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace sdrmpi::sweep {

/// "host:port" -> parts. Accepts ":port" (host defaults to 0.0.0.0 for
/// listeners / 127.0.0.1 for connectors — callers pick) and bare "port".
/// Throws std::invalid_argument on malformed input.
struct Endpoint {
  std::string host;  ///< empty when the input had no host part
  std::uint16_t port = 0;
};
[[nodiscard]] Endpoint parse_endpoint(const std::string& spec);

/// Disarms SIGPIPE process-wide (idempotent). Every binary that writes
/// frames to a socket calls this first; a lost peer must surface as an
/// EPIPE errno on the write path, never as process death.
void ignore_sigpipe();

/// Blocks until `fd` is readable or `timeout_ms` elapses (EINTR-safe).
/// Returns true when readable (including EOF/ERR — the following read
/// reports which), false on timeout. timeout_ms < 0 blocks indefinitely.
[[nodiscard]] bool wait_readable(int fd, int timeout_ms);

/// Connects to host:port with a handshake timeout. Returns the connected
/// fd (CLOEXEC, TCP_NODELAY); throws std::runtime_error on refusal,
/// timeout, or resolution failure.
[[nodiscard]] int connect_tcp(const std::string& host, std::uint16_t port,
                              int timeout_ms = 10000);

/// Listening TCP socket (IPv4). Construct with port 0 for an ephemeral
/// port; port() reports the bound one so tests and benches can listen on
/// ":0" and hand workers the resolved address. Binds with SO_REUSEADDR:
/// a restarted coordinator re-acquires its fixed port immediately
/// instead of dying to EADDRINUSE while old connections sit in
/// TIME_WAIT.
class TcpListener {
 public:
  /// Binds and listens; empty host means every interface (0.0.0.0).
  /// Throws std::runtime_error on bind/listen failure.
  TcpListener(const std::string& host, std::uint16_t port);
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Accepts one connection (CLOEXEC, TCP_NODELAY applied). Returns the
  /// fd, or -1 on timeout / after close(). timeout_ms < 0 blocks.
  [[nodiscard]] int accept_fd(int timeout_ms);

  /// The bound port (resolved when constructed with port 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// "host:port" with the resolved port; loopback-normalised when bound
  /// to every interface (workers on this machine connect via 127.0.0.1).
  [[nodiscard]] std::string address() const;

  /// Closes the listening socket; pending and future accept_fd() calls
  /// return -1. Idempotent, and safe to call while another thread sits
  /// in accept_fd() — that call wakes and returns -1.
  void close();

 private:
  // Atomic because close() runs on the owner's thread while the accept
  // loop reads the fd concurrently (pinned by TSan in CI).
  std::atomic<int> fd_{-1};
  std::string host_;
  std::uint16_t port_ = 0;
};

}  // namespace sdrmpi::sweep
