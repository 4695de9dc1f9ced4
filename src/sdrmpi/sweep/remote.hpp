// Fault-tolerant multi-host sweep workers: the remote execution backend
// behind the SweepService seam, and the one that isolates simulations in
// their own processes (a localhost fleet is how a local sweep gets crash
// isolation).
//
// The coordinator listens on TCP (transport.hpp); sweep-workerd processes
// connect, register, and execute dispatched points. The wire protocol is
// the result/error frame format of frame_io.hpp with coordination kinds
// layered on top; configs cross the wire as canonical config_key bytes
// (deserialize(serialize(c)) == c exactly), so a remote simulation starts
// from a bit-identical RunConfig — worker count, dispatch order and
// failure timing are invisible in results.
//
// Robustness model (the paper's fail-stop discipline applied to our own
// orchestration, after the TeaMPI/FTHP-MPI pattern):
//  - Registration handshake: a worker announces transport, config-key,
//    and result-codec versions; mismatches are rejected before any work
//    is dispatched (a stale binary must not silently compute under a
//    different wire contract). With a shared secret configured the
//    handshake adds an HMAC challenge/response (auth.hpp): a wrong or
//    missing secret draws a reasoned HelloReject before any config bytes
//    cross the wire. A peer that stalls mid-handshake is dropped after
//    heartbeat_deadline_ms, so it cannot block later registrations.
//  - Worker-pull scheduling: every WorkRequest frame is answered with
//    exactly one point. A worker asks for its next point as soon as a
//    Dispatch arrives, before running it, so one point waits behind the
//    one running and a fast worker never idles on a round trip; a slow
//    worker simply asks less often. Pull only decides who runs a point,
//    never what its result looks like.
//  - Heartbeats: workers beat at the interval the coordinator advertises
//    in its HelloAck (heartbeat_deadline_ms / 5); a worker silent past
//    heartbeat_deadline_ms is declared dead even if the kernel still
//    holds its socket open (hung host, network partition).
//  - Point leases: every dispatch leases one point to one worker. A dead
//    worker's points — or a live-but-stalled worker's after lease_ms —
//    are due again at once, for any worker but their previous holder,
//    up to a re-dispatch budget per point; past the budget the point
//    surfaces as a hard error rather than spinning forever.
//  - Duplicate suppression: results are deterministic, so the first
//    result for a point wins and a late answer from a lease-expired
//    worker is counted, digest-compared against the first (a mismatch is
//    a determinism violation and fails the sweep loudly), and dropped —
//    never double-delivered, never double-stored.
//  - Graceful degradation: once the coordinator has had no live worker
//    for registration_wait_ms — nobody registered, or the whole fleet
//    died and no replacement came back — run() hands the remaining points
//    back, and the sweep service runs them on its local pool. A sweep
//    never fails because the fleet did.
//
// The coordinator only dispatches: it never runs a simulation itself.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sdrmpi/core/batch.hpp"
#include "sdrmpi/core/run_config.hpp"

namespace sdrmpi::sweep {

/// Remote worker protocol version, exchanged in the registration
/// handshake together with kConfigKeyVersion and kResultCodecVersion.
/// v3: one point per Dispatch, its reply id in the frame header; empty
/// Heartbeat and WorkRequest payloads. v4: the Hello carries the three
/// versions only (no worker name). The version leads the Hello, so the
/// gate rejects an older worker at registration.
inline constexpr std::uint32_t kRemoteProtocolVersion = 4;

// Frame kinds layered on the frame_io result/error kinds (0..2).
inline constexpr std::uint8_t kFrameHello = 10;        ///< worker -> coord
inline constexpr std::uint8_t kFrameHelloAck = 11;     ///< coord -> worker
inline constexpr std::uint8_t kFrameHelloReject = 12;  ///< coord -> worker
inline constexpr std::uint8_t kFrameHeartbeat = 13;    ///< worker -> coord
/// One point: reply id in the header, payload = config bytes + app spec.
inline constexpr std::uint8_t kFrameDispatch = 14;     ///< coord -> worker
inline constexpr std::uint8_t kFrameShutdown = 15;     ///< coord -> worker
/// Worker-pull scheduling: the worker asks for its next point (empty).
inline constexpr std::uint8_t kFrameWorkRequest = 16;  ///< worker -> coord
/// Shared-secret registration (auth.hpp): 32-byte nonce challenge and the
/// worker's HMAC-SHA256 response over (hello payload || nonce).
inline constexpr std::uint8_t kFrameAuthChallenge = 17;  ///< coord -> worker
inline constexpr std::uint8_t kFrameAuthResponse = 18;   ///< worker -> coord

/// Failure-detection and re-dispatch tuning. Defaults suit real sweeps;
/// tests shrink everything to tens of milliseconds.
struct RemoteTuning {
  /// How long the coordinator waits with no live worker before handing
  /// the remaining points back to the caller. The window opens when run()
  /// starts with an empty fleet (workers started moments after the
  /// coordinator must not be missed) or when the last worker dies (a
  /// supervised workerd's replacement needs time to re-exec and
  /// re-register).
  int registration_wait_ms = 10000;
  /// A worker silent (no frame of any kind) past this is declared dead;
  /// a peer stalled mid-handshake is dropped after it. Workers are told
  /// to heartbeat five times per deadline.
  int heartbeat_deadline_ms = 5000;
  /// Lease on a dispatched point (> 0): past this it is re-dispatched to
  /// another worker even if the holder still heartbeats (stalled != dead;
  /// its late result is suppressed as a duplicate).
  int lease_ms = 120000;
  /// Re-dispatches allowed per point before it is reported as a hard
  /// error.
  int redispatch_budget = 3;
  /// Shared secret for registration authentication (auth.hpp). Empty =
  /// unauthenticated (the default).
  std::string secret;
};

/// One point of remote work: its config and the app spec a remote
/// workerd resolves through the workload registry. Results and errors
/// name a point by its position in the vector passed to
/// RemoteCoordinator::run.
struct RemotePoint {
  const core::RunConfig* cfg = nullptr;
  std::string spec;
};

/// Per-point failure relayed from a worker: the point's position, the
/// exception message and whether it was a construction/invalid-config
/// error.
struct PointError {
  std::size_t id = 0;
  bool invalid_config = false;
  std::string message;
};

/// A sweep the coordinator cannot complete soundly (two workers returned
/// different results for one point) — distinct from a point failing with
/// an application error, which is reported per point.
struct WorkerError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Robustness accounting for one coordinator run (folded into
/// ServiceStats by the sweep service).
struct RemoteStats {
  std::size_t workers_registered = 0;  ///< handshakes accepted, lifetime
  std::size_t workers_lost = 0;        ///< deaths declared (EOF or deadline)
  std::size_t heartbeats_missed = 0;   ///< deadline-expiry deaths only
  std::size_t chunks_redispatched = 0; ///< points re-dispatched (death+lease)
  std::size_t duplicate_results = 0;   ///< late answers suppressed
  std::size_t local_fallback_points = 0;  ///< points handed back by run()
};

/// Coordinator: owns the listener and the registered-worker set for the
/// life of the service (workers connect once and serve every run() of a
/// cold+warm bench pair), and leases points to them per run().
class RemoteCoordinator {
 public:
  /// Binds and starts accepting immediately (listen spec "host:port",
  /// port 0 = ephemeral). Throws std::runtime_error on bind failure and
  /// std::invalid_argument when tuning.lease_ms or
  /// tuning.heartbeat_deadline_ms is <= 0.
  RemoteCoordinator(const std::string& listen, RemoteTuning tuning);
  ~RemoteCoordinator();
  RemoteCoordinator(const RemoteCoordinator&) = delete;
  RemoteCoordinator& operator=(const RemoteCoordinator&) = delete;

  /// Resolved "host:port" workers connect to (ephemeral port filled in).
  [[nodiscard]] std::string address() const;

  /// Currently registered (live) workers.
  [[nodiscard]] std::size_t connected_workers() const;

  /// Dispatches every point; blocks until each has exactly one result or
  /// error, or until the fleet has been empty for registration_wait_ms.
  /// Returns the positions of the points still undone then, ascending
  /// (empty when the fleet finished the sweep); the caller runs them
  /// itself, and a late frame for one of them is dropped as stale. Points
  /// queue in input order and each WorkRequest draws the first one due.
  /// on_result/on_error are invoked from the calling thread and from
  /// reader threads — callers serialize with their own lock. Throws
  /// WorkerError on a determinism violation. Stats accumulate across
  /// calls.
  [[nodiscard]] std::vector<std::size_t> run(
      const std::vector<RemotePoint>& points,
      const std::function<void(std::size_t, core::RunResult&&)>& on_result,
      const std::function<void(PointError&&)>& on_error);

  /// Snapshot of the lifetime robustness counters, taken under the
  /// coordinator lock — reader threads update them concurrently, and a
  /// lease-expired worker's late answer can land after run() returned.
  [[nodiscard]] RemoteStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  RemoteStats stats_;
};

/// Builds the app a dispatched point runs. sweep-workerd uses the
/// workload-registry resolver below; tests substitute their own. Called
/// once per dispatched point, on the worker's execution thread.
using AppResolver =
    std::function<core::AppFn(const core::RunConfig& cfg,
                              const std::string& spec)>;

/// Thrown by a test AppResolver to simulate a fail-stop worker crash:
/// run_worker hard-closes the socket mid-point (the coordinator sees the
/// same EOF/ECONNRESET a SIGKILLed workerd produces) and returns.
struct WorkerAbort {};

/// Thrown by run_worker when the coordinator refuses the registration
/// (HelloReject: wrong secret, version mismatch) or the two sides'
/// authentication postures disagree. Retrying cannot change the verdict.
struct RegistrationRejected : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Per-session execution counters a worker can report (--stats).
struct WorkerStats {
  std::size_t points_executed = 0;  ///< simulations run to completion
  std::size_t dispatches = 0;       ///< Dispatch frames received
  std::size_t work_requests = 0;    ///< WorkRequest frames sent
};

struct WorkerOptions {
  /// Handshake/read timeout against an unresponsive coordinator.
  int connect_timeout_ms = 10000;
  /// Test hook: stop heartbeating after this many beats (-1 = never), so
  /// the coordinator's deadline detector can be exercised without a
  /// genuinely hung host.
  int max_heartbeats = -1;
  /// Test hook: version announced in the Hello frame (a mismatch must be
  /// rejected by the coordinator before any dispatch).
  std::uint32_t protocol_version = kRemoteProtocolVersion;
  /// Shared secret answering the coordinator's HMAC challenge (auth.hpp).
  /// Empty = unauthenticated; a coordinator that *requires* auth rejects
  /// the registration, and a worker holding a secret refuses a
  /// coordinator that never challenges (each side insists on the
  /// stronger posture it was configured for).
  std::string secret{};
  /// Optional out-param filled as the session runs (torn down with the
  /// connection; read after run_worker returns).
  WorkerStats* stats = nullptr;
};

/// Worker main loop: connect to `coordinator` ("host:port"), register,
/// heartbeat, and execute dispatch frames until the coordinator shuts the
/// connection down (clean return). Throws RegistrationRejected when the
/// coordinator refuses the worker and std::runtime_error if the
/// connection or registration otherwise fails — but once registered, a
/// vanished coordinator is a clean return too (the workerd exits 0;
/// there is nobody left to serve).
void run_worker(const std::string& coordinator, const AppResolver& resolver,
                const WorkerOptions& opts = {});

/// Resolver backed by the workload registry: spec is
/// "<workload> [key=value ...]" (e.g. "cg nrows=768 iters=8"), applied
/// through wl::make_workload. An empty or unknown spec throws
/// std::invalid_argument, which reaches the coordinator as a per-point
/// invalid-config error frame.
[[nodiscard]] AppResolver registry_resolver();

}  // namespace sdrmpi::sweep
