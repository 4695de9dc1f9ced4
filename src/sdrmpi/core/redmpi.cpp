#include "sdrmpi/core/redmpi.hpp"

#include "sdrmpi/util/hash.hpp"
#include "sdrmpi/util/log.hpp"

namespace sdrmpi::core {

void RedMpiProtocol::isend(mpi::Endpoint& ep, const mpi::SendArgs& a,
                           const mpi::Request& req) {
  const net::Payload payload = begin_app_send(a.payload);
  const Topology& topo = map_.topo();

  // Full message to the own-world receiver only (parallel data path).
  ep.base_isend(a.ctx, a.dst_rank, a.dst_slot_default, a.tag, a.seq, payload,
                req);

  // Payload hash to every other receiver replica for comparison. The
  // digest is cached in the shared payload header (and memoized per
  // symbolic shape), so neither this sender nor the zero-copy receiver of
  // the same buffer ever hashes the bytes twice — and symbolic contents
  // are never materialized at all.
  const std::uint64_t digest = payload.digest();
  const int dst_world_rank = topo.rank_of(a.dst_slot_default);
  for (int w = 0; w < topo.nworlds; ++w) {
    if (w == map_.my_world()) continue;
    const int t = topo.slot(w, dst_world_rank);
    if (!map_.alive(t)) continue;
    mpi::FrameHeader h;
    h.kind = mpi::FrameKind::Hash;
    h.ctx = a.ctx;
    h.src_rank = ep.rank_in(a.ctx);
    h.dst_rank = a.dst_rank;
    h.tag = a.tag;
    h.seq = a.seq;
    h.value = digest;
    ep.send_ctl(t, h);
    ++job_.pstats.hashes_sent;
  }
}

void RedMpiProtocol::irecv(mpi::Endpoint& ep, const mpi::RecvArgs& a,
                           const mpi::Request& req) {
  if (use_leader_ && decider_.intercept_irecv(ep, a, req)) return;
  ReplicatedProtocol::irecv(ep, a, req);
}

void RedMpiProtocol::on_match(mpi::Endpoint& ep, const mpi::FrameHeader& h,
                              const mpi::Request& req) {
  if (use_leader_) decider_.on_match(ep, h, req);
}

void RedMpiProtocol::on_recv_complete(mpi::Endpoint& ep,
                                      const mpi::FrameHeader& h,
                                      const mpi::Request& req) {
  (void)ep;
  const MsgKey key{h.ctx, h.src_rank, h.seq};
  // The delivered payload handle aliases the sender's buffer, so its
  // digest is already cached from the sender-side hash frame — comparing
  // here is O(1). Every non-empty receive carries a handle; an empty one
  // has none and digests like the empty span.
  const std::uint64_t own = req->recv_payload ? req->recv_payload.digest()
                                              : util::kFnvOffset;
  auto it = sibling_hash_.find(key);
  if (it != sibling_hash_.end()) {
    compare(key, own, it->second);
    sibling_hash_.erase(it);
  } else {
    own_hash_[key] = own;
  }
}

void RedMpiProtocol::protocol_ctl(mpi::Endpoint& ep,
                                  const mpi::FrameHeader& h,
                                  std::span<const std::byte> payload) {
  (void)ep;
  (void)payload;
  if (use_leader_ && decider_.handle_ctl(ep, h)) return;
  if (h.kind != mpi::FrameKind::Hash) return;
  const MsgKey key{h.ctx, h.src_rank, h.seq};
  auto it = own_hash_.find(key);
  if (it != own_hash_.end()) {
    compare(key, it->second, h.value);
    own_hash_.erase(it);
  } else {
    sibling_hash_[key] = h.value;
  }
}

void RedMpiProtocol::compare(const MsgKey& key, std::uint64_t own,
                             std::uint64_t sibling) {
  ++job_.pstats.hashes_compared;
  if (own == sibling) return;
  ++job_.pstats.sdc_detected;
  // One flip cascades into every later message that carries the corrupted
  // value, so only a slot's first mismatch is a warning.
  const util::LogLevel lvl =
      sdc_warned_ ? util::LogLevel::Debug : util::LogLevel::Warn;
  sdc_warned_ = true;
  if (util::log_level() < lvl) return;
  util::LogStream(lvl, "redmpi")
      << "slot " << slot_ << " detected silent data corruption on (ctx="
      << std::get<0>(key) << ", src=" << std::get<1>(key)
      << ", seq=" << std::get<2>(key) << ")";
}

}  // namespace sdrmpi::core
