#include "sdrmpi/core/sdr.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "sdrmpi/util/log.hpp"

namespace sdrmpi::core {

namespace {
[[nodiscard]] bool awaits(const AckManager::Record& rec, int slot) noexcept {
  return std::find(rec.pending.begin(), rec.pending.end(), slot) !=
         rec.pending.end();
}
}  // namespace

void SdrProtocol::isend(mpi::Endpoint& ep, const mpi::SendArgs& a,
                        const mpi::Request& req) {
  const net::Payload payload = begin_app_send(a.payload);

  // a.dst_rank is the rank within the communicator; the replica tables are
  // indexed by world rank, resolved through the communicator's own-world
  // slot (user-created split/dup communicators renumber ranks).
  const int dst_world_rank = map_.topo().rank_of(a.dst_slot_default);

  // Parallel protocol: one copy per destination replica this process is
  // responsible for (own world; plus inherited worlds after a failover).
  // All copies — and the retransmission record below — alias one payload
  // handle; symbolic contents stay symbolic end to end.
  map_.for_each_dest(dst_world_rank, [&](int t) {
    if (!map_.alive(t)) return;
    ep.base_isend(a.ctx, a.dst_rank, t, a.tag, a.seq, payload, req);
  });

  // Register the acknowledgements this send must collect (Alg. 1 l. 8-9):
  // one from every alive replica of the destination rank we do not send to
  // directly. The payload stays buffered until they all arrive so a
  // substitute can resend it (§3.2).
  map_.expected_ackers_into(dst_world_rank, acker_scratch_);
  if (acker_scratch_.empty()) return;

  mpi::Request gated;
  if (job_.config.eager_copy_completion) {
    // Ablation (§3.2): complete the send request immediately by paying for
    // an extra payload copy instead of gating on acks.
    ++job_.pstats.extra_copies;
    ep.engine().advance(static_cast<Time>(std::llround(
        static_cast<double>(payload.size()) * kCopyCostNsPerByte)));
  } else {
    gated = req;
    req->gates += static_cast<int>(acker_scratch_.size());
  }
  acks_.track({a.ctx, a.dst_rank, a.seq}, payload, a.tag, dst_world_rank,
              acker_scratch_, gated);
}

void SdrProtocol::send_acks(mpi::Endpoint& ep, const mpi::FrameHeader& h) {
  // Replicas of the sender are found by its *world* rank (from the physical
  // slot); the ack itself is keyed by communicator ranks.
  const int sender_world_rank = map_.topo().rank_of(h.src_slot);
  map_.ack_targets_into(sender_world_rank, h.world, ack_target_scratch_);
  for (int t : ack_target_scratch_) {
    mpi::FrameHeader ack;
    ack.kind = mpi::FrameKind::Ack;
    ack.ctx = h.ctx;
    ack.src_rank = ep.rank_in(h.ctx);  // the acking receiver's rank
    ack.dst_rank = h.src_rank;         // the acknowledged sender's rank
    ack.tag = h.tag;
    ack.seq = h.seq;
    ep.send_ctl(t, ack);
    ++job_.pstats.acks_sent;
  }
}

void SdrProtocol::on_recv_complete(mpi::Endpoint& ep,
                                   const mpi::FrameHeader& h,
                                   const mpi::Request& req) {
  (void)req;
  // Acking at irecvComplete (library-level completion) rather than at the
  // application's MPI_Wait is what avoids the deadlock discussed in §3.3.
  if (!job_.config.ack_on_wait) send_acks(ep, h);
}

void SdrProtocol::on_app_complete(mpi::Endpoint& ep, const mpi::Request& req) {
  // Ablation: ack only once the application completed the receive. The
  // paper shows this can deadlock (two processes in MPI_Send waiting for
  // acks that would only be emitted by MPI_Wait calls never reached).
  if (job_.config.ack_on_wait && req->status.source >= 0) {
    send_acks(ep, req->recv_frame);
  }
}

void SdrProtocol::protocol_ctl(mpi::Endpoint& ep, const mpi::FrameHeader& h,
                               std::span<const std::byte> payload) {
  (void)ep;
  (void)payload;
  if (h.kind == mpi::FrameKind::Ack) {
    acks_.on_ack(h, job_.pstats);
  }
}

void SdrProtocol::handle_failure(mpi::Endpoint& ep, int failed_slot) {
  ReplicatedProtocol::handle_failure(ep, failed_slot);  // rank-lost check
  const Topology& topo = map_.topo();
  const int j = topo.rank_of(failed_slot);
  const int w = topo.world_of(failed_slot);
  const int sub = map_.elect_substitute(j);  // Alg. 1 line 19

  if (j == map_.my_rank()) {
    // Lines 20-27: the failed process is a sibling replica of my rank.
    std::vector<int> inherited;
    for (int l = 0; l < topo.nworlds; ++l) {
      if (map_.substitute(l) == w) {
        inherited.push_back(l);
        map_.set_substitute(l, sub);
      }
    }
    if (sub == map_.my_world()) {
      // I am the elected substitute: take over the failed replica's
      // destinations (line 22-23)...
      for (int l : inherited) {
        for (int jj = 0; jj < topo.nranks; ++jj) {
          const int t = topo.slot(l, jj);
          if (map_.alive(t)) map_.add_dest(jj, t);
        }
      }
      // ...and resend every buffered message its receivers never acked
      // (lines 24-25). Collect first: settle() mutates the record map.
      struct Resend {
        AckManager::Key key;
        int target;
        int tag;
        net::Payload payload;  // aliases the buffered record
      };
      std::vector<Resend> resends;
      for (auto& e : acks_.records()) {
        for (int l : inherited) {
          const int t = topo.slot(l, e.rec.dst_world_rank);
          if (awaits(e.rec, t) && map_.alive(t)) {
            resends.push_back({e.key, t, e.rec.tag, e.rec.payload});
          }
        }
      }
      for (auto& r : resends) {
        SDR_LOG(Debug, "sdr") << "slot " << slot_ << " resends (ctx="
                              << r.key.ctx << ", dst=" << r.key.dst_rank
                              << ", seq=" << r.key.seq << ") to slot "
                              << r.target;
        ep.base_isend(r.key.ctx, r.key.dst_rank, r.target, r.tag, r.key.seq,
                      r.payload, nullptr);
        acks_.settle(r.key, r.target);
        ++job_.pstats.resends;
      }
      // §3.4: with dual replication the substitute may recover the replica
      // at the next application safe point.
      if (job_.config.auto_recover && sub != w) {
        pending_recovery_worlds_.push_back(w);
      }
    }
  }

  // Line 33: cancel ack expectations on the dead process.
  acks_.cancel_from(failed_slot);
  // Lines 29-32: stop sending to it, redirect the nominal source.
  map_.remove_dest(j, failed_slot);
  if (map_.src(j) == failed_slot && sub >= 0) {
    map_.set_src(j, topo.slot(sub, j));
  }
}

void SdrProtocol::on_recovery_point(mpi::Endpoint& ep) {
  if (pending_recovery_worlds_.empty()) return;
  const Topology& topo = map_.topo();
  if (topo.nworlds != 2) {
    // §3.4: the FIFO-notification cut only works for a replication degree
    // of two.
    SDR_LOG(Warn, "sdr") << "recovery requested but replication != 2";
    pending_recovery_worlds_.clear();
    return;
  }
  // The fork needs a consistent cut of this endpoint's channels: no
  // rendezvous payload in flight, and undelivered frames forming clean
  // channel tails. Otherwise defer to the next safe point.
  mpi::Endpoint::SeqSnapshot probe;
  if (ep.has_pending_rdv_recvs() || !ep.snapshot_seqs_for_recovery(probe)) {
    SDR_LOG(Debug, "sdr") << "slot " << slot_
                          << " defers recovery fork (channel cut not clean)";
    return;  // pending_recovery_worlds_ keeps the request alive
  }

  const int w = pending_recovery_worlds_.front();
  pending_recovery_worlds_.erase(pending_recovery_worlds_.begin());
  const int dead = topo.slot(w, map_.my_rank());
  if (map_.alive(dead)) return;  // already recovered

  const auto& snapshot = job_.snapshots[static_cast<std::size_t>(slot_)];
  if (snapshot.empty()) {
    SDR_LOG(Warn, "sdr") << "slot " << slot_
                         << ": no application snapshot offered; cannot "
                            "recover replica";
    return;
  }

  SDR_LOG(Info, "sdr") << "slot " << slot_ << " forks recovered replica into "
                          "slot " << dead;

  // 1. Stop substituting for world w: future sends go to own world only.
  map_.set_substitute(w, w);
  for (int jj = 0; jj < topo.nranks; ++jj) {
    const int t = topo.slot(w, jj);
    if (t != dead) map_.remove_dest(jj, t);
  }
  map_.set_alive(dead, true);

  // 2. Fork. The paper requires the substitute not to fail between the fork
  // and the notification broadcast; both happen atomically here (same
  // progress step of the same process).
  job_.respawn(dead, snapshot, slot_);
  ++job_.pstats.recoveries;

  // 3. Broadcast the notification over the normal FIFO channels so every
  // peer can cut its message streams consistently (§3.4).
  for (int s = 0; s < topo.nslots(); ++s) {
    if (s == slot_ || s == dead || !map_.alive(s)) continue;
    mpi::FrameHeader m;
    m.kind = mpi::FrameKind::RecoverNotify;
    m.value = static_cast<std::uint64_t>(dead);
    ep.send_ctl(s, m);
  }
}

std::string SdrProtocol::debug_state() const {
  std::ostringstream os;
  for (const auto& e : acks_.records()) {
    os << " await(ctx=" << e.key.ctx << ",dst=" << e.key.dst_rank
       << ",seq=" << e.key.seq << ",from=";
    for (int s : e.rec.pending) os << s << " ";
    os << (e.rec.req != nullptr && !e.rec.req->ready() ? "GATING" : "idle")
       << ")";
  }
  return os.str();
}

void SdrProtocol::handle_recover_notify(mpi::Endpoint& ep,
                                        const mpi::FrameHeader& h) {
  const Topology& topo = map_.topo();
  const int rs = static_cast<int>(h.value);  // recovered slot
  const int rr = topo.rank_of(rs);
  const int rw = topo.world_of(rs);
  map_.set_alive(rs, true);

  if (rr == map_.my_rank()) {
    map_.set_substitute(rw, rw);
  }
  if (rw == map_.my_world() && rs != slot_) {
    // Same world as the recovered replica: resume direct sends to it and
    // resend everything its substitute had not acked when the notification
    // was emitted. FIFO channels guarantee every pre-fork ack from the
    // substitute (h.src_slot) was processed before this marker, so the
    // remaining pending entries are exactly the messages the recovered
    // replica is missing (§3.4, Figure 4).
    map_.add_dest(rr, rs);
    map_.set_src(rr, rs);
    struct Resend {
      AckManager::Key key;
      int tag;
      net::Payload payload;  // aliases the buffered record
    };
    std::vector<Resend> resends;
    for (auto& e : acks_.records()) {
      if (e.rec.dst_world_rank == rr && awaits(e.rec, h.src_slot)) {
        resends.push_back({e.key, e.rec.tag, e.rec.payload});
      }
    }
    for (auto& r : resends) {
      SDR_LOG(Debug, "sdr") << "slot " << slot_ << " re-feeds (ctx="
                            << r.key.ctx << ", seq=" << r.key.seq
                            << ") to recovered slot " << rs;
      ep.base_isend(r.key.ctx, r.key.dst_rank, rs, r.tag, r.key.seq,
                    r.payload, nullptr);
      ++job_.pstats.resends;
      // Keep awaiting the substitute's ack: it still covers us against a
      // failure of the recovered replica.
    }
  }
}

}  // namespace sdrmpi::core
