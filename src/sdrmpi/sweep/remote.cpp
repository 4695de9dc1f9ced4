#include "sdrmpi/sweep/remote.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sdrmpi/core/launcher.hpp"
#include "sdrmpi/sweep/auth.hpp"
#include "sdrmpi/sweep/codec.hpp"
#include "sdrmpi/sweep/config_key.hpp"
#include "sdrmpi/sweep/frame_io.hpp"
#include "sdrmpi/sweep/result_codec.hpp"
#include "sdrmpi/sweep/transport.hpp"
#include "sdrmpi/util/hash.hpp"
#include "sdrmpi/util/options.hpp"
#include "sdrmpi/workloads/registry.hpp"

namespace sdrmpi::sweep {
namespace {

using Clock = std::chrono::steady_clock;

/// Reply ids carry the run generation so a late frame from a finished
/// run() can never alias a point of the current one (workers outlive
/// individual runs: a cold+warm bench pair reuses the same fleet).
constexpr std::uint64_t make_reply_id(std::uint32_t gen, std::uint32_t point) {
  return (std::uint64_t{gen} << 32) | point;
}

/// Control frames (hello, heartbeats, work requests, auth) are small by
/// construction; a length beyond this is a confused or hostile peer, and
/// allocating it would hand that peer a bad_alloc lever against a reader
/// thread. Result frames are exempt — encoded RunResults are bounded by
/// the frame_io 4 GiB limit and produced by our own workers.
constexpr std::uint32_t kMaxControlPayload = 4096;

/// Hello payload (worker -> coordinator): the worker's wire contract
/// versions. The auth MAC binds to these exact bytes.
struct Hello {
  std::uint32_t protocol_version = 0;
  std::uint8_t config_key_version = 0;
  std::uint32_t result_codec_version = 0;
};

template <class Io>
void fields(Io& io, Hello& h) {
  io(h.protocol_version, h.config_key_version, h.result_codec_version);
}

/// Dispatch payload (coordinator -> worker): one point's canonical config
/// bytes and its app spec.
struct Dispatch {
  std::vector<std::byte> config;
  std::string spec;
};

template <class Io>
void fields(Io& io, Dispatch& d) {
  io(d.config, d.spec);
}

/// Bounds a blocking socket send (SO_SNDTIMEO) or receive (SO_RCVTIMEO)
/// to `ms`; 0 clears the bound. Timed-out calls fail like a lost peer.
void set_timeout(int fd, int option, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof tv);
}

}  // namespace

// ---------------------------------------------------------- coordinator

struct RemoteCoordinator::Impl {
  RemoteTuning tuning;
  RemoteStats* stats;  // owned by the RemoteCoordinator facade
  TcpListener listener;
  std::thread acceptor;

  mutable std::mutex mu;
  std::condition_variable cv;
  bool shutting_down = false;
  std::size_t live_workers = 0;
  std::uint32_t generation = 0;
  // When live_workers last became 0 (or run() started with none): the
  // registration_wait_ms window before run() hands points back counts
  // from here.
  Clock::time_point fleet_empty_since{};

  struct WorkerConn {
    int id = -1;
    int fd = -1;
    std::thread reader;
    Clock::time_point last_seen;
    bool alive = true;
    bool hungry = false;  // sent a WorkRequest not yet served
    std::mutex write_mu;  // dispatch / shutdown frames interleave safely
  };
  std::vector<std::unique_ptr<WorkerConn>> workers;  // every worker ever

  /// One point of the run. A point is queued (holder < 0), leased to one
  /// worker until lease_deadline (holder >= 0), or done.
  struct PointState {
    bool done = false;
    bool have_result_hash = false;
    std::uint64_t result_hash = 0;  // fnv1a of the encoded result bytes
    int holder = -1;
    Clock::time_point lease_deadline;
    int attempt = 1;  // dispatch attempts incl. the next one
    int prev_worker = -1;  // last holder; re-dispatch prefers someone else
  };
  struct RunState {
    std::vector<RemotePoint> pts;
    std::vector<PointState> state;
    std::deque<std::uint32_t> queue;  // points awaiting dispatch
    std::size_t undone = 0;
    std::vector<std::size_t> leftover;  // handed back to the caller
    std::string fatal;
    /// Last time the scheduler moved: a point served, a result delivered,
    /// or a lease recycled. Drives the stuck-fleet aging below — a pull
    /// scheduler never hands work to a fleet that stops asking, so budget
    /// exhaustion must be measured in wall time, not bounced dispatches.
    Clock::time_point last_progress;
    const std::function<void(std::size_t, core::RunResult&&)>* on_result;
    const std::function<void(PointError&&)>* on_error;
  };
  RunState* run = nullptr;

  explicit Impl(const Endpoint& listen, RemoteTuning t, RemoteStats* s)
      : tuning(std::move(t)), stats(s), listener(listen.host, listen.port) {
    if (tuning.lease_ms <= 0) {
      throw std::invalid_argument("remote sweep: lease_ms must be positive");
    }
    // 0 would clear the handshake read bound (set_timeout), and a negative
    // bound fails in setsockopt: either way a stalled peer wedges the
    // acceptor.
    if (tuning.heartbeat_deadline_ms <= 0) {
      throw std::invalid_argument(
          "remote sweep: heartbeat_deadline_ms must be positive");
    }
    acceptor = std::thread([this] { accept_loop(); });
  }

  ~Impl() {
    {
      std::lock_guard<std::mutex> lk(mu);
      shutting_down = true;
    }
    listener.close();
    // Acceptor first: once it is joined, no handshake can grow `workers`
    // behind our back.
    if (acceptor.joinable()) acceptor.join();
    for (auto& w : workers) {
      std::lock_guard<std::mutex> wl(w->write_mu);
      if (w->fd >= 0) {
        frame::write_frame(w->fd, kFrameShutdown, 0, nullptr, 0);
        ::shutdown(w->fd, SHUT_RDWR);
      }
    }
    for (auto& w : workers) {
      if (w->reader.joinable()) w->reader.join();
    }
  }

  // ---- accept + handshake (acceptor thread) ------------------------------

  void accept_loop() {
    for (;;) {
      const int fd = listener.accept_fd(250);
      {
        std::lock_guard<std::mutex> lk(mu);
        if (shutting_down) {
          if (fd >= 0) ::close(fd);
          return;
        }
      }
      if (fd < 0) continue;
      try {
        handshake(fd);
      } catch (...) {
        // A hostile or garbled peer must never take the acceptor down:
        // drop the connection and keep listening.
        ::close(fd);
      }
    }
  }

  void handshake(int fd) {
    auto reject = [fd](const std::string& why) {
      frame::write_frame(fd, kFrameHelloReject, 0, why.data(), why.size());
      ::close(fd);
    };
    // The acceptor handshakes one peer at a time, so every handshake read
    // is bounded: a peer that stalls mid-frame (or never says hello) is
    // dropped after the deadline instead of wedging every later worker.
    set_timeout(fd, SO_RCVTIMEO, tuning.heartbeat_deadline_ms);
    frame::FrameHeader h;
    if (!frame::read_frame_header(fd, h) || h.kind != kFrameHello ||
        h.len > kMaxControlPayload) {
      ::close(fd);
      return;
    }
    std::vector<std::byte> payload(h.len);
    if (h.len > 0 && !frame::read_all(fd, payload.data(), h.len)) {
      ::close(fd);
      return;
    }
    Hello hello;
    try {
      ByteReader r(payload);
      r(hello);
    } catch (const CodecError&) {
      reject("malformed hello frame");
      return;
    }
    if (hello.protocol_version != kRemoteProtocolVersion) {
      reject("protocol version " +
             std::to_string(hello.protocol_version) +
             " != coordinator's " + std::to_string(kRemoteProtocolVersion));
      return;
    }
    if (hello.config_key_version != kConfigKeyVersion) {
      reject("config-key version " +
             std::to_string(hello.config_key_version) +
             " != coordinator's " + std::to_string(kConfigKeyVersion));
      return;
    }
    if (hello.result_codec_version != kResultCodecVersion) {
      reject("result-codec version " +
             std::to_string(hello.result_codec_version) +
             " != coordinator's " + std::to_string(kResultCodecVersion));
      return;
    }
    if (!tuning.secret.empty() && !authenticate(fd, payload, reject)) {
      return;  // rejected (reasoned frame already sent) or vanished
    }
    // Heartbeat interval: five beats per deadline.
    ByteWriter ack;
    ack(static_cast<std::uint32_t>(
        std::max(tuning.heartbeat_deadline_ms / 5, 1)));
    if (!frame::write_frame(fd, kFrameHelloAck, 0, ack.bytes().data(),
                            ack.bytes().size())) {
      ::close(fd);
      return;
    }
    // Registered: silence is now the heartbeat deadline's call (counted
    // in heartbeats_missed), not a read timeout. A hung peer must stall a
    // frame write for at most that deadline, never forever — a blocked
    // dispatch would freeze the whole scheduler loop.
    set_timeout(fd, SO_RCVTIMEO, 0);
    set_timeout(fd, SO_SNDTIMEO, std::max(tuning.heartbeat_deadline_ms, 1000));

    auto conn = std::make_unique<WorkerConn>();
    WorkerConn* w = conn.get();
    w->fd = fd;
    w->last_seen = Clock::now();
    {
      std::lock_guard<std::mutex> lk(mu);
      w->id = static_cast<int>(workers.size());
      workers.push_back(std::move(conn));
      ++live_workers;
      ++stats->workers_registered;
    }
    w->reader = std::thread([this, w] { reader_loop(w); });
    cv.notify_all();
  }

  /// Acceptor thread, before any registration state exists. Challenges
  /// the peer with a fresh nonce and verifies the HMAC over the exact
  /// Hello payload it announced itself with — config bytes only ever
  /// flow to a peer that proved it holds the shared secret.
  bool authenticate(int fd, const std::vector<std::byte>& hello_payload,
                    const std::function<void(const std::string&)>& reject) {
    const auth::Nonce nonce = auth::make_nonce();
    if (!frame::write_frame(fd, kFrameAuthChallenge, 0, nonce.data(),
                            nonce.size())) {
      ::close(fd);
      return false;
    }
    frame::FrameHeader h;
    if (!frame::read_frame_header(fd, h) || h.kind != kFrameAuthResponse ||
        h.len != auth::kDigestSize) {
      reject("authentication failed: expected a 32-byte AuthResponse");
      return false;
    }
    auth::Digest mac;
    if (!frame::read_all(fd, mac.data(), mac.size())) {
      ::close(fd);
      return false;
    }
    const auth::Digest want =
        auth::registration_mac(tuning.secret, hello_payload, nonce);
    if (!auth::constant_time_equal(mac.data(), want.data(), want.size())) {
      reject("authentication failed: bad shared-secret MAC");
      return false;
    }
    return true;
  }

  // ---- per-worker reader thread ------------------------------------------

  void reader_loop(WorkerConn* w) {
    // The whole loop body is fenced: a hostile frame (absurd length, torn
    // payload, undecodable bytes) must surface as "this worker is dead",
    // never as an exception escaping a reader thread (std::terminate).
    try {
      reader_loop_body(w);
    } catch (...) {
    }
    {
      std::lock_guard<std::mutex> lk(mu);
      declare_dead(w, /*by_deadline=*/false);
    }
    cv.notify_all();
    // Close under write_mu so a dispatch write can never land on a reused
    // fd number: writers check fd >= 0 under the same lock.
    std::lock_guard<std::mutex> wl(w->write_mu);
    ::close(w->fd);
    w->fd = -1;
  }

  void reader_loop_body(WorkerConn* w) {
    for (;;) {
      frame::FrameHeader h;
      if (!frame::read_frame_header(w->fd, h)) return;
      const bool delivery = h.kind == frame::kFrameResult ||
                            h.kind == frame::kFrameInvalidConfig ||
                            h.kind == frame::kFrameRuntimeError;
      if (!delivery && h.len > kMaxControlPayload) return;  // confused peer
      std::vector<std::byte> payload(h.len);
      if (h.len > 0 && !frame::read_all(w->fd, payload.data(), h.len)) {
        return;
      }
      std::lock_guard<std::mutex> lk(mu);
      w->last_seen = Clock::now();
      if (delivery) {
        handle_delivery(h, payload);
      } else if (h.kind == kFrameWorkRequest) {
        w->hungry = true;
      }
      // Heartbeats (and unknown kinds, for forward compatibility) only
      // refresh last_seen.
      cv.notify_all();
    }
  }

  /// mu held. Exactly-once delivery with duplicate suppression: the first
  /// result for a point wins; a late twin is counted and digest-compared
  /// (determinism says they must match bit-for-bit).
  void handle_delivery(const frame::FrameHeader& h,
                       const std::vector<std::byte>& payload) {
    const auto gen = static_cast<std::uint32_t>(h.id >> 32);
    const auto p = static_cast<std::uint32_t>(h.id & 0xffffffffu);
    if (run == nullptr || gen != generation) {
      ++stats->duplicate_results;  // straggler from a completed run
      return;
    }
    if (p >= run->state.size()) return;  // malformed id: drop
    run->last_progress = Clock::now();
    PointState& ps = run->state[p];
    if (ps.done) {
      ++stats->duplicate_results;
      if (h.kind == frame::kFrameResult && ps.have_result_hash &&
          util::fnv1a(payload) != ps.result_hash) {
        run->fatal = "determinism violation: point " + std::to_string(p) +
                     " produced two different results from different workers";
      }
      return;
    }
    ps.done = true;
    ps.holder = -1;  // the lease is settled, whoever held it
    --run->undone;
    if (h.kind == frame::kFrameResult) {
      core::RunResult result;
      try {
        result = decode_result(payload);
      } catch (const CodecError& e) {
        (*run->on_error)(PointError{
            p, false,
            std::string("remote worker sent an undecodable result: ") +
                e.what()});
        return;
      }
      ps.have_result_hash = true;
      ps.result_hash = util::fnv1a(payload);
      (*run->on_result)(p, std::move(result));
    } else {
      (*run->on_error)(PointError{
          p, h.kind == frame::kFrameInvalidConfig,
          std::string(reinterpret_cast<const char*>(payload.data()),
                      payload.size())});
    }
  }

  /// mu held. Takes leased point `p` back from its holder and queues it
  /// for re-dispatch: due at once, as the next attempt, for anyone but
  /// the previous holder.
  void requeue(std::uint32_t p, const Clock::time_point now) {
    PointState& ps = run->state[p];
    ps.prev_worker = ps.holder;
    ps.holder = -1;
    ++ps.attempt;
    run->queue.push_back(p);
    ++stats->chunks_redispatched;
    run->last_progress = now;  // the scheduler moved; aging restarts
  }

  /// mu held. Declares a worker dead (reader EOF/error or heartbeat
  /// deadline), wakes its reader if still blocked, and requeues the
  /// points it held.
  void declare_dead(WorkerConn* w, bool by_deadline) {
    if (!w->alive) return;
    w->alive = false;
    --live_workers;
    if (live_workers == 0) fleet_empty_since = Clock::now();
    if (!shutting_down) {
      ++stats->workers_lost;
      if (by_deadline) ++stats->heartbeats_missed;
    }
    if (w->fd >= 0) ::shutdown(w->fd, SHUT_RDWR);
    if (run == nullptr) return;
    const Clock::time_point now = Clock::now();
    for (std::uint32_t p = 0; p < run->state.size(); ++p) {
      if (run->state[p].holder == w->id) requeue(p, now);
    }
  }

  // ---- scheduler (run() caller's thread) ---------------------------------

  void drive(RunState& rs) {
    std::unique_lock<std::mutex> lk(mu);
    ++generation;
    run = &rs;
    rs.last_progress = Clock::now();
    if (live_workers == 0) fleet_empty_since = rs.last_progress;

    while (rs.undone > 0 && rs.fatal.empty()) {
      const Clock::time_point now = Clock::now();

      // 1. Heartbeat failure detection: a worker silent past the deadline
      //    is dead even while the kernel holds its socket open.
      for (auto& w : workers) {
        if (w->alive &&
            now - w->last_seen >
                std::chrono::milliseconds(tuning.heartbeat_deadline_ms)) {
          declare_dead(w.get(), /*by_deadline=*/true);
        }
      }

      // 2. Lease expiry: a stalled (but alive) worker loses its point to
      //    a survivor; its late result is suppressed as a duplicate when
      //    it eventually arrives.
      for (std::uint32_t p = 0; p < rs.state.size(); ++p) {
        if (rs.state[p].holder >= 0 && now >= rs.state[p].lease_deadline) {
          requeue(p, now);
        }
      }

      // 3. Stuck-fleet aging. A pull scheduler cannot burn the budget by
      //    bouncing dispatches off busy workers (it never dispatches to a
      //    fleet that stops asking), so "this work is going nowhere" is
      //    measured in wall time: a lease interval with zero scheduler
      //    progress ages every queued point one attempt. Healthy fleets
      //    never age — each serve and each delivery resets the progress
      //    clock.
      if (live_workers > 0 && !rs.queue.empty() &&
          now - rs.last_progress > std::chrono::milliseconds(tuning.lease_ms)) {
        bool any = false;
        for (const std::uint32_t p : rs.queue) {
          PointState& ps = rs.state[p];
          if (ps.done) continue;
          ++ps.attempt;
          any = true;
        }
        if (any) ++stats->chunks_redispatched;
        rs.last_progress = now;
      }

      // 4. Budget check: a point whose next dispatch would exceed the
      //    re-dispatch budget surfaces as a hard error instead of
      //    spinning forever.
      drain_over_budget(rs);
      if (rs.undone == 0 || !rs.fatal.empty()) break;

      // 5. Serve hungry workers one point each.
      const bool served = serve_hungry(lk, rs);
      if (rs.undone == 0 || !rs.fatal.empty()) break;
      if (served) continue;  // re-examine state after the writes

      // 6. Hand the undone points back once the fleet has been empty
      //    for the whole registration window. Every holder is dead, so
      //    the undone points are exactly the work left.
      if (live_workers == 0 &&
          Clock::now() - fleet_empty_since >=
              std::chrono::milliseconds(tuning.registration_wait_ms)) {
        for (std::uint32_t p = 0; p < rs.state.size(); ++p) {
          if (!rs.state[p].done) rs.leftover.push_back(p);
        }
        stats->local_fallback_points += rs.leftover.size();
        break;
      }

      // 7. Sleep until the next deadline could fire (or a frame arrives).
      cv.wait_for(lk, next_wakeup(rs));
    }
    run = nullptr;
    if (!rs.fatal.empty()) throw WorkerError(rs.fatal);
  }

  /// mu held. Drops delivered points from the queue and errors out every
  /// queued point past the re-dispatch budget.
  void drain_over_budget(RunState& rs) {
    std::erase_if(rs.queue, [&](const std::uint32_t p) {
      PointState& ps = rs.state[p];
      if (ps.done) return true;
      if (ps.attempt <= tuning.redispatch_budget + 1) return false;
      ps.done = true;
      --rs.undone;
      (*rs.on_error)(PointError{
          p, false,
          "remote sweep: point abandoned after " +
              std::to_string(ps.attempt - 1) +
              " dispatch attempts (re-dispatch budget " +
              std::to_string(tuning.redispatch_budget) + ")"});
      return true;
    });
  }

  /// mu held (released around socket writes). Serves every hungry live
  /// worker the first due point of the queue under a fresh lease. Returns
  /// true when at least one dispatch frame went out.
  bool serve_hungry(std::unique_lock<std::mutex>& lk, RunState& rs) {
    bool any = false;
    for (std::size_t wi = 0; wi < workers.size(); ++wi) {
      WorkerConn* w = workers[wi].get();
      if (!w->alive || !w->hungry) continue;
      const Clock::time_point now = Clock::now();

      // Undone, and not bounced straight back to the holder it just
      // expired from (when anyone else is alive to try).
      const auto due = std::find_if(
          rs.queue.begin(), rs.queue.end(), [&](const std::uint32_t p) {
            const PointState& ps = rs.state[p];
            return !ps.done && (ps.prev_worker != w->id || live_workers <= 1);
          });
      if (due == rs.queue.end()) continue;
      const std::uint32_t p = *due;
      rs.queue.erase(due);

      ByteWriter msg;
      msg(Dispatch{serialize_config(*rs.pts[p].cfg), rs.pts[p].spec});
      const std::uint64_t reply_id = make_reply_id(generation, p);
      rs.state[p].holder = w->id;
      rs.state[p].lease_deadline =
          now + std::chrono::milliseconds(tuning.lease_ms);
      w->hungry = false;
      rs.last_progress = now;

      lk.unlock();
      bool ok;
      {
        std::lock_guard<std::mutex> wl(w->write_mu);
        ok = w->fd >= 0 &&
             frame::write_frame(w->fd, kFrameDispatch, reply_id,
                                msg.bytes().data(), msg.bytes().size());
      }
      lk.lock();
      if (!ok) {
        declare_dead(w, /*by_deadline=*/false);  // requeues the point
      } else {
        any = true;
      }
    }
    return any;
  }

  [[nodiscard]] Clock::duration next_wakeup(const RunState& rs) const {
    // Wake for the earliest of: heartbeat deadline, lease expiry,
    // stuck-fleet aging, empty-fleet window lapse. Clamped so a missed
    // notify can never hang the scheduler.
    auto best = std::chrono::milliseconds(250);
    auto consider = [&best](Clock::duration d) {
      const auto ms =
          std::max(std::chrono::duration_cast<std::chrono::milliseconds>(d),
                   std::chrono::milliseconds(5));
      if (ms < best) best = ms;
    };
    const Clock::time_point now = Clock::now();
    for (const auto& w : workers) {
      if (w->alive) {
        consider(w->last_seen +
                 std::chrono::milliseconds(tuning.heartbeat_deadline_ms) -
                 now);
      }
    }
    for (const PointState& ps : rs.state) {
      if (ps.holder >= 0) consider(ps.lease_deadline - now);
    }
    if (live_workers > 0) {
      // Aging only matters while someone could take the work.
      if (!rs.queue.empty()) {
        consider(rs.last_progress +
                 std::chrono::milliseconds(tuning.lease_ms) - now);
      }
    } else {
      consider(fleet_empty_since +
               std::chrono::milliseconds(tuning.registration_wait_ms) - now);
    }
    return best;
  }
};

RemoteCoordinator::RemoteCoordinator(const std::string& listen,
                                     RemoteTuning tuning)
    : impl_(std::make_unique<Impl>(parse_endpoint(listen), std::move(tuning),
                                   &stats_)) {
  ignore_sigpipe();
}

RemoteCoordinator::~RemoteCoordinator() = default;

std::string RemoteCoordinator::address() const {
  return impl_->listener.address();
}

std::size_t RemoteCoordinator::connected_workers() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->live_workers;
}

RemoteStats RemoteCoordinator::stats() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return stats_;
}

std::vector<std::size_t> RemoteCoordinator::run(
    const std::vector<RemotePoint>& points,
    const std::function<void(std::size_t, core::RunResult&&)>& on_result,
    const std::function<void(PointError&&)>& on_error) {
  Impl::RunState rs;
  rs.on_result = &on_result;
  rs.on_error = &on_error;
  // Points queue in input order; each WorkRequest draws the first due.
  rs.pts = points;
  rs.state.resize(rs.pts.size());
  for (std::uint32_t p = 0; p < rs.pts.size(); ++p) rs.queue.push_back(p);
  rs.undone = rs.pts.size();
  if (rs.undone > 0) impl_->drive(rs);
  return std::move(rs.leftover);
}

// -------------------------------------------------------------- worker

void run_worker(const std::string& coordinator, const AppResolver& resolver,
                const WorkerOptions& opts) {
  ignore_sigpipe();
  const Endpoint ep = parse_endpoint(coordinator);
  const int fd = connect_tcp(ep.host.empty() ? "127.0.0.1" : ep.host, ep.port,
                             opts.connect_timeout_ms);

  // Registration handshake: versions first, then the optional HMAC
  // challenge, work last. The Hello payload is kept verbatim — the MAC
  // binds to exactly the bytes the coordinator read.
  std::vector<std::byte> hello_bytes;
  {
    ByteWriter hello;
    hello(Hello{opts.protocol_version, kConfigKeyVersion, kResultCodecVersion});
    hello_bytes = hello.take();
    if (!frame::write_frame(fd, kFrameHello, 0, hello_bytes.data(),
                            hello_bytes.size())) {
      ::close(fd);
      throw std::runtime_error("sweep worker: coordinator hung up mid-hello");
    }
  }
  std::uint32_t heartbeat_interval_ms = 1000;
  bool authed = false;
  for (;;) {
    if (!wait_readable(fd, opts.connect_timeout_ms)) {
      ::close(fd);
      throw std::runtime_error(
          "sweep worker: no registration reply from coordinator");
    }
    frame::FrameHeader h;
    if (!frame::read_frame_header(fd, h)) {
      ::close(fd);
      throw std::runtime_error(
          "sweep worker: coordinator closed during registration");
    }
    if (h.len > kMaxControlPayload) {
      // Registration replies are tiny; a multi-gigabyte length claim is a
      // confused or hostile peer, not a frame worth allocating for.
      ::close(fd);
      throw std::runtime_error(
          "sweep worker: oversized registration frame");
    }
    std::vector<std::byte> payload(h.len);
    if (h.len > 0 && !frame::read_all(fd, payload.data(), h.len)) {
      ::close(fd);
      throw std::runtime_error("sweep worker: torn registration reply");
    }
    if (h.kind == kFrameHelloReject) {
      ::close(fd);
      throw RegistrationRejected(
          "sweep worker: registration rejected: " +
          std::string(reinterpret_cast<const char*>(payload.data()),
                      payload.size()));
    }
    if (h.kind == kFrameAuthChallenge) {
      if (opts.secret.empty()) {
        ::close(fd);
        throw RegistrationRejected(
            "sweep worker: coordinator requires authentication "
            "(--secret-file)");
      }
      if (authed || payload.size() != auth::kNonceSize) {
        ::close(fd);
        throw std::runtime_error(
            "sweep worker: malformed authentication challenge");
      }
      auth::Nonce nonce;
      std::memcpy(nonce.data(), payload.data(), nonce.size());
      const auth::Digest mac =
          auth::registration_mac(opts.secret, hello_bytes, nonce);
      if (!frame::write_frame(fd, kFrameAuthResponse, 0, mac.data(),
                              mac.size())) {
        ::close(fd);
        throw std::runtime_error(
            "sweep worker: coordinator hung up mid-authentication");
      }
      authed = true;
      continue;  // the verdict (HelloAck / HelloReject) comes next
    }
    if (h.kind != kFrameHelloAck) {
      ::close(fd);
      throw std::runtime_error("sweep worker: unexpected registration frame");
    }
    if (!opts.secret.empty() && !authed) {
      // A worker provisioned with a secret must not silently serve an
      // unauthenticated coordinator: that would defeat the operator's
      // intent on exactly the machine that holds real workloads.
      ::close(fd);
      throw RegistrationRejected(
          "sweep worker: coordinator did not request authentication; "
          "refusing to serve it with --secret-file set");
    }
    try {
      ByteReader r(payload);
      r(heartbeat_interval_ms);
    } catch (const CodecError&) {
      // Tolerate an empty ack; keep the default interval.
    }
    break;
  }
  set_timeout(fd, SO_SNDTIMEO,
              static_cast<int>(heartbeat_interval_ms) * 4 + 1000);

  // Heartbeat thread: beats even while a long simulation runs — that is
  // the whole point (busy != dead; only silence is death).
  std::mutex write_mu;
  std::mutex hb_mu;
  std::condition_variable hb_cv;
  bool stop_hb = false;
  std::thread heartbeat([&] {
    std::uint64_t seq = 0;
    int budget = opts.max_heartbeats;
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(hb_mu);
        hb_cv.wait_for(lk,
                       std::chrono::milliseconds(heartbeat_interval_ms),
                       [&] { return stop_hb; });
        if (stop_hb) return;
      }
      if (budget == 0) continue;  // test hook: fall silent, stay connected
      if (budget > 0) --budget;
      std::lock_guard<std::mutex> wl(write_mu);
      if (!frame::write_frame(fd, kFrameHeartbeat, seq++, nullptr, 0)) {
        return;  // coordinator gone; the main loop will notice on read
      }
    }
  });
  auto stop_heartbeat = [&] {
    {
      std::lock_guard<std::mutex> lk(hb_mu);
      stop_hb = true;
    }
    hb_cv.notify_all();
    heartbeat.join();
  };

  // Pull scheduling: ask for one point now and again on every Dispatch.
  auto request_work = [&]() -> bool {
    std::lock_guard<std::mutex> wl(write_mu);
    const bool ok = frame::write_frame(fd, kFrameWorkRequest, 0, nullptr, 0);
    if (ok && opts.stats != nullptr) ++opts.stats->work_requests;
    return ok;
  };
  request_work();

  for (;;) {
    frame::FrameHeader h;
    if (!frame::read_frame_header(fd, h)) break;  // coordinator gone
    std::vector<std::byte> payload(h.len);
    if (h.len > 0 && !frame::read_all(fd, payload.data(), h.len)) break;
    if (h.kind == kFrameShutdown) break;
    if (h.kind != kFrameDispatch) continue;  // forward compatibility
    if (opts.stats != nullptr) ++opts.stats->dispatches;

    Dispatch dispatch;
    try {
      ByteReader r(payload);
      r(dispatch);
    } catch (const CodecError&) {
      break;  // malformed dispatch: treat the stream as torn
    }
    // Ask for the next point before running this one, so it is already
    // queued when this one finishes.
    if (!request_work()) break;

    std::uint8_t kind = frame::kFrameResult;
    std::vector<std::byte> reply;
    auto fail = [&](std::uint8_t k, const char* what) {
      kind = k;
      const std::string msg = what;
      reply.resize(msg.size());
      std::memcpy(reply.data(), msg.data(), msg.size());
    };
    try {
      const core::RunConfig cfg = deserialize_config(dispatch.config);
      const core::AppFn app = resolver(cfg, dispatch.spec);
      reply = encode_result(core::run(cfg, app));
    } catch (const std::invalid_argument& e) {
      fail(frame::kFrameInvalidConfig, e.what());
    } catch (const CodecError& e) {
      fail(frame::kFrameInvalidConfig, e.what());
    } catch (const std::exception& e) {
      fail(frame::kFrameRuntimeError, e.what());
    } catch (const WorkerAbort&) {
      break;  // test hook: simulate a fail-stop crash
    }
    if (opts.stats != nullptr) ++opts.stats->points_executed;
    std::lock_guard<std::mutex> wl(write_mu);
    if (!frame::write_frame(fd, kind, h.id, reply.data(), reply.size())) {
      break;  // EPIPE/RST: coordinator is gone
    }
  }

  stop_heartbeat();
  ::close(fd);
}

AppResolver registry_resolver() {
  return [](const core::RunConfig&, const std::string& spec) -> core::AppFn {
    std::istringstream ss(spec);
    std::string name;
    ss >> name;
    if (name.empty()) {
      throw std::invalid_argument(
          "remote point carries no app spec; this sweep cannot execute on "
          "remote workers (run it without --listen)");
    }
    util::Options wl_opts;
    std::string kv;
    while (ss >> kv) {
      const auto eq = kv.find('=');
      if (eq == std::string::npos) {
        throw std::invalid_argument("malformed app-spec token '" + kv + "'");
      }
      wl_opts.set(kv.substr(0, eq), kv.substr(eq + 1));
    }
    return wl::make_workload(name, wl_opts);
  };
}

}  // namespace sdrmpi::sweep
