#include "sdrmpi/sweep/remote.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "sdrmpi/core/launcher.hpp"
#include "sdrmpi/sweep/auth.hpp"
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

void set_send_timeout(int fd, int ms) {
  // A hung peer must stall a frame write for at most the failure-detection
  // deadline, never forever: a blocked dispatch would freeze the whole
  // scheduler loop. Timed-out writes surface as failures and the peer is
  // declared lost.
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
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
  bool ever_registered = false;
  std::size_t live_workers = 0;
  std::uint32_t generation = 0;
  Clock::time_point fleet_empty_since{};  // set when live_workers hits 0

  struct WorkerConn {
    int id = -1;
    int fd = -1;
    std::string name;
    std::thread reader;
    Clock::time_point last_seen;
    bool alive = true;
    bool hungry = false;        // sent a WorkRequest not yet served
    std::uint64_t ewma_ns = 0;  // self-reported per-point cost estimate
    std::mutex write_mu;  // dispatch / shutdown frames interleave safely
  };
  std::vector<std::unique_ptr<WorkerConn>> workers;  // every worker ever

  /// One undispatched point. Where PR 8 queued fixed chunks, the pull
  /// scheduler queues points and cuts a chunk to size at serve time, so
  /// a slow worker draws one point while a fast one draws dozens.
  struct PendingItem {
    std::uint32_t point = 0;  // index into the run's point table
    int attempt = 1;          // dispatch attempts incl. the next one
    Clock::time_point not_before;
    int prev_worker = -1;  // last holder; re-dispatch prefers someone else
  };
  struct Assignment {
    int worker_id = -1;
    std::vector<PendingItem> items;  // still undelivered under this lease
    Clock::time_point lease_deadline;
    bool active = false;
  };
  struct PointState {
    bool done = false;
    bool have_result_hash = false;
    std::uint64_t result_hash = 0;  // fnv1a of the encoded result bytes
  };
  struct RunState {
    std::vector<RemotePoint> pts;
    std::vector<PointState> state;
    std::deque<PendingItem> queue;
    std::vector<Assignment> assignments;
    std::size_t undone = 0;
    std::string fatal;
    /// Last time the scheduler moved: a chunk served, a result delivered,
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

  [[nodiscard]] Clock::duration backoff(int attempt) const {
    // attempt 1 is the first dispatch (no delay); re-dispatch n waits
    // min(base << (n-1), cap).
    if (attempt <= 1) return Clock::duration::zero();
    const int shift = std::min(attempt - 2, 20);
    const long long ms = std::min<long long>(
        static_cast<long long>(tuning.backoff_base_ms) << shift,
        tuning.backoff_cap_ms);
    return std::chrono::milliseconds(ms);
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
    if (!wait_readable(fd, tuning.heartbeat_deadline_ms)) {
      ::close(fd);  // connected but never said hello
      return;
    }
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
    std::uint32_t proto = 0, codec = 0;
    std::uint8_t key_version = 0;
    std::string name;
    try {
      ByteReader r(payload);
      proto = r.u32();
      key_version = r.u8();
      codec = r.u32();
      name = r.str();
    } catch (const CodecError&) {
      reject("malformed hello frame");
      return;
    }
    if (proto != kRemoteProtocolVersion) {
      reject("protocol version " + std::to_string(proto) +
             " != coordinator's " + std::to_string(kRemoteProtocolVersion));
      return;
    }
    if (key_version != kConfigKeyVersion) {
      reject("config-key version " + std::to_string(key_version) +
             " != coordinator's " + std::to_string(kConfigKeyVersion));
      return;
    }
    if (codec != kResultCodecVersion) {
      reject("result-codec version " + std::to_string(codec) +
             " != coordinator's " + std::to_string(kResultCodecVersion));
      return;
    }
    if (!tuning.secret.empty() && !authenticate(fd, payload, reject)) {
      return;  // rejected (reasoned frame already sent) or vanished
    }
    ByteWriter ack;
    ack.u32(static_cast<std::uint32_t>(tuning.heartbeat_interval_ms));
    if (!frame::write_frame(fd, kFrameHelloAck, 0, ack.bytes().data(),
                            ack.bytes().size())) {
      ::close(fd);
      return;
    }
    set_send_timeout(fd, std::max(tuning.heartbeat_deadline_ms, 1000));

    auto conn = std::make_unique<WorkerConn>();
    WorkerConn* w = conn.get();
    w->fd = fd;
    w->name = std::move(name);
    w->last_seen = Clock::now();
    {
      std::lock_guard<std::mutex> lk(mu);
      w->id = static_cast<int>(workers.size());
      workers.push_back(std::move(conn));
      ++live_workers;
      ever_registered = true;
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
    if (!wait_readable(fd, tuning.heartbeat_deadline_ms)) {
      reject("authentication failed: no response to the HMAC challenge");
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
      frame::IoError err;
      if (!frame::read_frame_header(w->fd, h, &err)) return;
      const bool control = h.kind != frame::kFrameResult &&
                           h.kind != frame::kFrameInvalidConfig &&
                           h.kind != frame::kFrameRuntimeError;
      if (control && h.len > kMaxControlPayload) return;  // confused peer
      std::vector<std::byte> payload(h.len);
      if (h.len > 0 &&
          !frame::read_all(w->fd, payload.data(), h.len, &err)) {
        return;
      }
      std::lock_guard<std::mutex> lk(mu);
      w->last_seen = Clock::now();
      if (h.kind == frame::kFrameResult ||
          h.kind == frame::kFrameInvalidConfig ||
          h.kind == frame::kFrameRuntimeError) {
        handle_delivery(h, payload);
      } else if (h.kind == kFrameWorkRequest) {
        w->hungry = true;
        if (payload.size() >= 8) {
          try {
            ByteReader r(payload);
            w->ewma_ns = r.u64();
          } catch (const CodecError&) {
          }
        }
      } else if (h.kind == kFrameHeartbeat && payload.size() >= 8) {
        // Heartbeats piggyback the throughput estimate so chunk sizing
        // tracks a worker that sped up or slowed down mid-lease.
        try {
          ByteReader r(payload);
          w->ewma_ns = r.u64();
        } catch (const CodecError&) {
        }
      }
      // Empty heartbeats (and unknown kinds, for forward compatibility)
      // only refresh last_seen.
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
    --run->undone;
    retire_from_assignments(p);
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

  /// mu held. Drops `p` from every live lease so expiry re-dispatches
  /// only genuinely undelivered points.
  void retire_from_assignments(std::uint32_t p) {
    for (Assignment& a : run->assignments) {
      if (!a.active) continue;
      a.items.erase(std::remove_if(a.items.begin(), a.items.end(),
                                   [p](const PendingItem& it) {
                                     return it.point == p;
                                   }),
                    a.items.end());
      if (a.items.empty()) a.active = false;
    }
  }

  /// mu held. Requeues an assignment's undelivered items for re-dispatch
  /// (next attempt, backoff, avoid the previous holder).
  void recycle_assignment(Assignment& a, const Clock::time_point now) {
    a.active = false;
    bool any = false;
    for (PendingItem& it : a.items) {
      if (run->state[it.point].done) continue;
      ++it.attempt;
      it.not_before = now + backoff(it.attempt);
      it.prev_worker = a.worker_id;
      run->queue.push_back(it);
      any = true;
    }
    a.items.clear();
    if (any) {
      ++stats->chunks_redispatched;
      run->last_progress = now;  // the scheduler moved; aging restarts
    }
  }

  /// mu held. Declares a worker dead (reader EOF/error or heartbeat
  /// deadline), wakes its reader if still blocked, and requeues its
  /// undelivered leases with backoff.
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
    for (Assignment& a : run->assignments) {
      if (!a.active || a.worker_id != w->id) continue;
      recycle_assignment(a, now);
    }
  }

  // ---- scheduler (run() caller's thread) ---------------------------------

  void drive(RunState& rs) {
    std::unique_lock<std::mutex> lk(mu);
    ++generation;
    run = &rs;
    rs.last_progress = Clock::now();
    const Clock::time_point reg_deadline =
        Clock::now() +
        std::chrono::milliseconds(tuning.registration_wait_ms);

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

      // 2. Lease expiry: a stalled (but alive) worker loses its
      //    undelivered points to a survivor; its late results are
      //    suppressed as duplicates when they eventually arrive.
      if (tuning.lease_ms > 0) {
        for (Assignment& a : rs.assignments) {
          if (!a.active || now < a.lease_deadline) continue;
          recycle_assignment(a, now);
        }
      }

      // 3. Stuck-fleet aging. A pull scheduler cannot burn the budget by
      //    bouncing dispatches off busy workers (it never dispatches to a
      //    fleet that stops asking), so "this work is going nowhere" is
      //    measured in wall time: a lease interval with zero scheduler
      //    progress ages every queued point one attempt. Healthy fleets
      //    never age — each serve and each per-point delivery resets the
      //    progress clock.
      if (tuning.lease_ms > 0 && live_workers > 0 && !rs.queue.empty() &&
          now - rs.last_progress >
              std::chrono::milliseconds(tuning.lease_ms)) {
        bool any = false;
        for (PendingItem& it : rs.queue) {
          if (rs.state[it.point].done) continue;
          ++it.attempt;
          it.not_before = now + backoff(it.attempt);
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

      // 5. Serve hungry workers: cut each requester a chunk sized to its
      //    reported throughput.
      const bool served = serve_hungry(lk, rs);
      if (rs.undone == 0 || !rs.fatal.empty()) break;
      if (served) continue;  // re-examine state after the writes

      // 6. Degrade to local execution when the fleet is gone: the last
      //    worker died mid-sweep (and any supervisor grace window has
      //    lapsed), or nobody registered within the window.
      if (live_workers == 0) {
        const bool window_over =
            ever_registered
                ? Clock::now() - fleet_empty_since >=
                      std::chrono::milliseconds(tuning.fleet_death_grace_ms)
                : Clock::now() >= reg_deadline;
        if (window_over) {
          local_fallback(lk, rs);
          continue;
        }
      }

      // 7. Sleep until the next deadline could fire (or a frame arrives).
      cv.wait_for(lk, next_wakeup(rs));
    }
    run = nullptr;
    if (!rs.fatal.empty()) throw WorkerError(rs.fatal);
  }

  /// mu held. Errors out every queued point past the re-dispatch budget.
  void drain_over_budget(RunState& rs) {
    for (std::size_t scan = rs.queue.size(); scan > 0; --scan) {
      PendingItem it = rs.queue.front();
      rs.queue.pop_front();
      if (rs.state[it.point].done) continue;
      if (it.attempt > tuning.redispatch_budget + 1) {
        rs.state[it.point].done = true;
        --rs.undone;
        (*rs.on_error)(PointError{
            it.point, false,
            "remote sweep: chunk abandoned after " +
                std::to_string(it.attempt - 1) +
                " dispatch attempts (re-dispatch budget " +
                std::to_string(tuning.redispatch_budget) + ")"});
        continue;
      }
      rs.queue.push_back(it);
    }
  }

  /// mu held (released around socket writes). Serves every hungry live
  /// worker a chunk cut from the due queue: size targets
  /// target_chunk_ms of work at the worker's reported per-point EWMA,
  /// clamped to its fair share of what is due; a worker with no estimate
  /// yet draws a single probe point. Returns true when at least one
  /// dispatch frame went out.
  bool serve_hungry(std::unique_lock<std::mutex>& lk, RunState& rs) {
    bool any = false;
    for (std::size_t wi = 0; wi < workers.size(); ++wi) {
      WorkerConn* w = workers[wi].get();
      if (!w->alive || !w->hungry || rs.queue.empty()) continue;
      const Clock::time_point now = Clock::now();

      // Eligible = due, undone, and not bounced straight back to the
      // holder it just expired from (when anyone else is alive to try).
      auto eligible = [&](const PendingItem& it) {
        return !rs.state[it.point].done && now >= it.not_before &&
               (it.prev_worker != w->id || live_workers <= 1);
      };
      std::size_t due = 0;
      for (const PendingItem& it : rs.queue) {
        if (eligible(it)) ++due;
      }
      if (due == 0) continue;

      std::size_t want = 1;  // no estimate: probe with one point
      if (w->ewma_ns > 0) {
        const double target_ns =
            static_cast<double>(tuning.target_chunk_ms) * 1e6;
        const auto by_rate = static_cast<std::size_t>(std::max(
            1.0, target_ns / static_cast<double>(w->ewma_ns)));
        const std::size_t fair =
            (due + live_workers - 1) / std::max<std::size_t>(1, live_workers);
        want = std::clamp<std::size_t>(by_rate, 1,
                                       std::max<std::size_t>(1, fair));
      }

      Assignment a;
      a.worker_id = w->id;
      for (std::size_t scan = rs.queue.size();
           scan > 0 && a.items.size() < want; --scan) {
        PendingItem it = rs.queue.front();
        rs.queue.pop_front();
        if (rs.state[it.point].done) continue;
        if (!eligible(it)) {
          rs.queue.push_back(it);
          continue;
        }
        a.items.push_back(it);
      }
      if (a.items.empty()) continue;

      ByteWriter msg;
      msg.u32(static_cast<std::uint32_t>(a.items.size()));
      for (const PendingItem& it : a.items) {
        msg.u64(make_reply_id(generation, it.point));
        const auto cfg_bytes = serialize_config(*rs.pts[it.point].cfg);
        msg.u32(static_cast<std::uint32_t>(cfg_bytes.size()));
        for (std::byte b : cfg_bytes) msg.u8(std::to_integer<std::uint8_t>(b));
        msg.str(rs.pts[it.point].spec);
      }
      a.lease_deadline =
          now + std::chrono::milliseconds(
                    tuning.lease_ms > 0 ? tuning.lease_ms : 1 << 30);
      a.active = true;
      w->hungry = false;
      rs.last_progress = now;
      rs.assignments.push_back(std::move(a));

      lk.unlock();
      bool ok;
      {
        std::lock_guard<std::mutex> wl(w->write_mu);
        ok = w->fd >= 0 &&
             frame::write_frame(w->fd, kFrameDispatch, 0, msg.bytes().data(),
                                msg.bytes().size());
      }
      lk.lock();
      if (!ok) {
        declare_dead(w, /*by_deadline=*/false);  // requeues the assignment
      } else {
        any = true;
      }
    }
    return any;
  }

  /// mu held on entry/exit, released while simulating. Runs every point
  /// still undone on the calling thread — the sweep completes even with
  /// zero surviving workers.
  void local_fallback(std::unique_lock<std::mutex>& lk, RunState& rs) {
    // All leases are dead (their workers are), so the queue plus any
    // never-dispatched item covers every undone point.
    std::vector<std::uint32_t> todo;
    for (std::uint32_t p = 0; p < rs.state.size(); ++p) {
      if (!rs.state[p].done) todo.push_back(p);
    }
    rs.queue.clear();
    for (Assignment& a : rs.assignments) a.active = false;
    lk.unlock();
    for (std::uint32_t p : todo) {
      const RemotePoint& pt = rs.pts[p];
      core::RunResult result;
      bool ok = false;
      PointError err;
      err.id = p;
      try {
        result = core::run(*pt.cfg, *pt.app);
        ok = true;
      } catch (const std::invalid_argument& e) {
        err.invalid_config = true;
        err.message = e.what();
      } catch (const std::exception& e) {
        err.message = e.what();
      }
      lk.lock();
      if (!rs.state[p].done) {  // a straggler frame may have beaten us
        rs.state[p].done = true;
        --rs.undone;
        ++stats->local_fallback_points;
        if (ok) {
          rs.state[p].have_result_hash = false;
          (*rs.on_result)(p, std::move(result));
        } else {
          (*rs.on_error)(std::move(err));
        }
      }
      lk.unlock();
    }
    lk.lock();
  }

  [[nodiscard]] Clock::duration next_wakeup(const RunState& rs) const {
    // Wake for the earliest of: heartbeat deadline, lease expiry, backoff
    // release, stuck-fleet aging, fleet-death grace lapse. Clamped so a
    // missed notify can never hang the scheduler.
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
    if (tuning.lease_ms > 0) {
      for (const Assignment& a : rs.assignments) {
        if (a.active) consider(a.lease_deadline - now);
      }
      if (live_workers > 0 && !rs.queue.empty()) {
        consider(rs.last_progress +
                 std::chrono::milliseconds(tuning.lease_ms) - now);
      }
    }
    // Backoff releases only matter while someone could take the work;
    // with no live worker the next event is a registration (cv notify)
    // or a deadline, so the 250 ms clamp suffices.
    if (live_workers > 0) {
      for (const PendingItem& it : rs.queue) consider(it.not_before - now);
    } else if (ever_registered && tuning.fleet_death_grace_ms > 0) {
      consider(fleet_empty_since +
               std::chrono::milliseconds(tuning.fleet_death_grace_ms) - now);
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

void RemoteCoordinator::run(
    const std::vector<RemotePoint>& points,
    const std::function<void(std::size_t, core::RunResult&&)>& on_result,
    const std::function<void(PointError&&)>& on_error) {
  Impl::RunState rs;
  rs.on_result = &on_result;
  rs.on_error = &on_error;
  // Points queue individually, in input order; chunks are cut to
  // worker-reported throughput at serve time.
  rs.pts = points;
  const auto now = Clock::now();
  for (std::size_t p = 0; p < rs.pts.size(); ++p) {
    Impl::PendingItem item;
    item.point = static_cast<std::uint32_t>(p);
    item.not_before = now;
    rs.queue.push_back(item);
  }
  rs.state.resize(rs.pts.size());
  rs.undone = rs.pts.size();
  if (rs.undone == 0) return;
  impl_->drive(rs);
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
    hello.u32(opts.protocol_version);
    hello.u8(kConfigKeyVersion);
    hello.u32(kResultCodecVersion);
    hello.str(opts.name);
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
      throw std::runtime_error(
          "sweep worker: registration rejected: " +
          std::string(reinterpret_cast<const char*>(payload.data()),
                      payload.size()));
    }
    if (h.kind == kFrameAuthChallenge) {
      if (opts.secret.empty()) {
        ::close(fd);
        throw std::runtime_error(
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
      throw std::runtime_error(
          "sweep worker: coordinator did not request authentication; "
          "refusing to serve it with --secret-file set");
    }
    try {
      ByteReader r(payload);
      heartbeat_interval_ms = r.u32();
    } catch (const CodecError&) {
      // Tolerate an empty ack; keep the default interval.
    }
    break;
  }
  set_send_timeout(fd, static_cast<int>(heartbeat_interval_ms) * 4 + 1000);

  // Per-point cost estimate (EWMA over host execution time) shared with
  // the heartbeat thread: the coordinator sizes our next chunk from it.
  std::atomic<std::uint64_t> ewma_ns{0};

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
      ByteWriter beat;
      beat.u64(ewma_ns.load(std::memory_order_relaxed));
      std::lock_guard<std::mutex> wl(write_mu);
      frame::IoError err;
      if (!frame::write_frame(fd, kFrameHeartbeat, seq++, beat.bytes().data(),
                              beat.bytes().size(), &err)) {
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

  // Pull scheduling: ask for work now and after every finished batch.
  auto request_work = [&]() -> bool {
    ByteWriter req;
    req.u64(ewma_ns.load(std::memory_order_relaxed));
    std::lock_guard<std::mutex> wl(write_mu);
    const bool ok = frame::write_frame(fd, kFrameWorkRequest, 0,
                                       req.bytes().data(), req.bytes().size());
    if (ok && opts.stats != nullptr) ++opts.stats->work_requests;
    return ok;
  };
  request_work();

  bool aborted = false;
  for (;;) {
    frame::FrameHeader h;
    frame::IoError err;
    if (!frame::read_frame_header(fd, h, &err)) break;  // coordinator gone
    std::vector<std::byte> payload(h.len);
    if (h.len > 0 && !frame::read_all(fd, payload.data(), h.len, &err)) break;
    if (h.kind == kFrameShutdown) break;
    if (h.kind != kFrameDispatch) continue;  // forward compatibility
    if (opts.stats != nullptr) ++opts.stats->dispatches;

    bool connection_lost = false;
    try {
      ByteReader r(payload);
      const std::uint32_t npoints = r.u32();
      for (std::uint32_t i = 0; i < npoints && !connection_lost; ++i) {
        const std::uint64_t reply_id = r.u64();
        const std::uint32_t cfg_len = r.u32();
        std::vector<std::byte> cfg_bytes(cfg_len);
        for (std::uint32_t b = 0; b < cfg_len; ++b) {
          cfg_bytes[b] = static_cast<std::byte>(r.u8());
        }
        const std::string spec = r.str();

        std::uint8_t kind = frame::kFrameResult;
        std::vector<std::byte> reply;
        const Clock::time_point t0 = Clock::now();
        try {
          const core::RunConfig cfg = deserialize_config(cfg_bytes);
          const core::AppFn app = resolver(cfg, spec);
          core::RunResult result = core::run(cfg, app);
          reply = encode_result(result);
        } catch (const std::invalid_argument& e) {
          kind = frame::kFrameInvalidConfig;
          const std::string msg = e.what();
          reply.resize(msg.size());
          std::memcpy(reply.data(), msg.data(), msg.size());
        } catch (const CodecError& e) {
          kind = frame::kFrameInvalidConfig;
          const std::string msg = e.what();
          reply.resize(msg.size());
          std::memcpy(reply.data(), msg.data(), msg.size());
        } catch (const std::exception& e) {
          kind = frame::kFrameRuntimeError;
          const std::string msg = e.what();
          reply.resize(msg.size());
          std::memcpy(reply.data(), msg.data(), msg.size());
        }
        const auto point_ns = static_cast<std::uint64_t>(
            std::max<std::int64_t>(
                1, std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - t0)
                       .count()));
        const std::uint64_t prev = ewma_ns.load(std::memory_order_relaxed);
        ewma_ns.store(prev == 0 ? point_ns : (prev * 7 + point_ns) / 8,
                      std::memory_order_relaxed);
        if (opts.stats != nullptr) {
          ++opts.stats->points_executed;
          opts.stats->ewma_ns = ewma_ns.load(std::memory_order_relaxed);
        }
        std::lock_guard<std::mutex> wl(write_mu);
        frame::IoError werr;
        if (!frame::write_frame(fd, kind, reply_id, reply.data(),
                                reply.size(), &werr)) {
          connection_lost = true;  // EPIPE/RST: coordinator is gone
        }
      }
    } catch (const CodecError&) {
      break;  // malformed dispatch: treat the stream as torn
    } catch (const WorkerAbort&) {
      aborted = true;  // test hook: simulate a fail-stop crash
    }
    if (connection_lost || aborted) break;
    if (!request_work()) break;  // batch done: ask for the next chunk
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
