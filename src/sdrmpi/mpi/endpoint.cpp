#include "sdrmpi/mpi/endpoint.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

#include "sdrmpi/util/log.hpp"

namespace sdrmpi::mpi {

namespace {
/// Context ids 0..3 are reserved: 0/1 internal world, 2/3 application world.
constexpr CommCtx kFirstDynamicCtx = 4;

/// Bytes a receive can take: the sink bound or the buffer size.
std::size_t cap(const Request& req) noexcept {
  return req->sink ? req->sink_cap : req->recv_buf.size();
}
}  // namespace

Endpoint::Endpoint(net::Fabric& fabric, int slot, int world, int nworlds)
    : fabric_(fabric),
      slot_(slot),
      world_(world),
      nworlds_(nworlds),
      protocol_(std::make_unique<Vprotocol>()),
      next_ctx_(kFirstDynamicCtx) {}

Endpoint::~Endpoint() = default;

void Endpoint::bind_process(int pid) {
  pid_ = pid;
  fabric_.attach(slot_, pid, net::Fabric::Sink::of<&Endpoint::on_delivery>(this));
}

void Endpoint::rebind_process(int pid) {
  pid_ = pid;
  fabric_.reattach(slot_, pid,
                   net::Fabric::Sink::of<&Endpoint::on_delivery>(this));
}

void Endpoint::set_protocol(std::unique_ptr<Vprotocol> protocol) {
  assert(protocol != nullptr);
  protocol_ = std::move(protocol);
}

// ---------------------------------------------------------------------------
// Communicator registry
// ---------------------------------------------------------------------------

int Endpoint::register_comm_fixed(CommCtx ctx_p2p, CommCtx ctx_coll,
                                  int my_rank, RankMap rank_to_slot) {
  CommInfo info;
  info.handle = static_cast<int>(comms_.size());
  info.ctx_p2p = ctx_p2p;
  info.ctx_coll = ctx_coll;
  info.my_rank = my_rank;
  info.rank_to_slot = std::move(rank_to_slot);
  ctx_state(ctx_p2p).comm_handle = info.handle;
  ctx_state(ctx_coll).comm_handle = info.handle;
  next_ctx_ = std::max(next_ctx_, std::max(ctx_p2p, ctx_coll) + 1);
  comms_.push_back(std::move(info));
  return comms_.back().handle;
}

int Endpoint::register_comm(int my_rank, RankMap rank_to_slot) {
  const CommCtx p2p = next_ctx_;
  const CommCtx coll = next_ctx_ + 1;
  next_ctx_ += 2;
  return register_comm_fixed(p2p, coll, my_rank, std::move(rank_to_slot));
}

const CommInfo& Endpoint::comm(int handle) const {
  return comms_.at(static_cast<std::size_t>(handle));
}

const CommInfo* Endpoint::comm_by_ctx(CommCtx ctx) const {
  const CtxState* st = ctx_state_if(ctx);
  if (st == nullptr || st->comm_handle < 0) return nullptr;
  return &comms_[static_cast<std::size_t>(st->comm_handle)];
}

int Endpoint::rank_in(CommCtx ctx) const {
  const CommInfo* ci = comm_by_ctx(ctx);
  return ci != nullptr ? ci->my_rank : -1;
}

std::uint64_t Endpoint::next_send_seq(CommCtx ctx, int dst_rank) const {
  const CtxState* st = ctx_state_if(ctx);
  return st != nullptr ? st->send_seq.get(dst_rank) : 0;
}

std::uint64_t Endpoint::next_recv_seq(CommCtx ctx, int src_rank) const {
  const CtxState* st = ctx_state_if(ctx);
  return st != nullptr ? st->recv_seq.get(src_rank) : 0;
}

Endpoint::SeqSnapshot Endpoint::snapshot_seqs() const {
  SeqSnapshot snap;
  for (CommCtx c = 0; c < ctx_.size(); ++c) {
    const CtxState& st = ctx_[c];
    for (const auto& [peer, seq] : st.send_seq.entries()) {
      snap.channels[{c, peer}].send = seq;
    }
    for (const auto& [peer, seq] : st.recv_seq.entries()) {
      snap.channels[{c, peer}].recv = seq;
    }
  }
  return snap;
}

void Endpoint::restore_seqs(const SeqSnapshot& snap) {
  for (CtxState& st : ctx_) {
    st.send_seq.clear();
    st.recv_seq.clear();
  }
  for (const auto& [key, seqs] : snap.channels) {
    CtxState& st = ctx_state(key.first);
    st.send_seq.set(key.second, seqs.send);
    st.recv_seq.set(key.second, seqs.recv);
  }
}

bool Endpoint::snapshot_seqs_for_recovery(SeqSnapshot& out) const {
  out = snapshot_seqs();
  // Roll each channel's expected counter back over undelivered frames and
  // verify they form the channel's tail.
  for (CommCtx c = 0; c < ctx_.size(); ++c) {
    const CtxState& st = ctx_[c];
    std::map<int, std::vector<std::uint64_t>> undelivered;  // src -> seqs
    for (const auto& f : st.unexpected) {
      undelivered[f.h.src_rank].push_back(f.h.seq);
    }
    for (auto& [src, seqs] : undelivered) {
      std::uint64_t& exp = out.channels[{c, src}].recv;
      const std::uint64_t adjusted = exp - seqs.size();
      for (std::uint64_t s : seqs) {
        if (s < adjusted || s >= exp) return false;  // non-tail consumption
      }
      exp = adjusted;
    }
  }
  return true;
}

bool Endpoint::has_pending_rdv_recvs() const {
  for (const RdvRecv& rr : rdv_recvs_) {
    if (!rr.discard) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Point-to-point API
// ---------------------------------------------------------------------------

Request Endpoint::make_request_cached(ReqState::Kind kind) {
  // Bounded probe over the cache ring for a request every other holder has
  // dropped; fall back to a fresh allocation (which then joins the cache).
  constexpr std::size_t kProbes = 4;
  constexpr std::size_t kCacheCap = 64;
  const std::size_t n = req_cache_.size();
  for (std::size_t probe = 0; probe < kProbes && probe < n; ++probe) {
    req_cache_scan_ = (req_cache_scan_ + 1) % n;
    Request& r = req_cache_[req_cache_scan_];
    if (r.use_count() == 1) {
      *r = ReqState{};
      r->kind = kind;
      return r;
    }
  }
  Request fresh = make_request(kind);
  if (n < kCacheCap) req_cache_.push_back(fresh);
  return fresh;
}

void Endpoint::enter_call() {
  assert(engine().in_process_context());
  engine().advance(fabric_.fixed_costs().call);
  engine().maybe_yield();
}

Request Endpoint::isend(CommCtx ctx, int dst_rank, int tag,
                        std::span<const std::byte> data) {
  // Materialise the pooled payload buffer once per logical send; protocols
  // alias the same handle for every physical copy and buffered store.
  return isend_payload(ctx, dst_rank, tag,
                       dst_rank == kProcNull
                           ? net::Payload{}
                           : net::Payload::copy_of(pool(), data));
}

Request Endpoint::isend_symbolic(CommCtx ctx, int dst_rank, int tag,
                                 const net::ContentDesc& desc) {
  return isend_payload(ctx, dst_rank, tag,
                       dst_rank == kProcNull
                           ? net::Payload{}
                           : net::Payload::symbolic(pool(), desc));
}

Request Endpoint::isend_payload(CommCtx ctx, int dst_rank, int tag,
                                net::Payload payload) {
  enter_call();
  progress();  // drain arrivals first, like a PML entering any MPI call
  auto req = make_request_cached(ReqState::Kind::Send);
  if (dst_rank == kProcNull) {
    req->posted = true;
    return req;
  }
  const CommInfo* ci = comm_by_ctx(ctx);
  if (ci == nullptr) throw std::logic_error("isend: unknown communicator");

  SendArgs args;
  args.ctx = ctx;
  args.dst_rank = dst_rank;
  args.dst_slot_default = ci->rank_to_slot.at(dst_rank);
  args.tag = tag;
  args.payload = std::move(payload);
  args.seq = ctx_state(ctx).send_seq.bump(dst_rank);

  req->ctx = ctx;
  req->peer_rank = dst_rank;
  req->tag = tag;
  req->seq = args.seq;

  ++stats_.app_sends;
  protocol_->isend(*this, args, req);
  req->posted = true;
  progress();
  return req;
}

Request Endpoint::irecv(CommCtx ctx, int src_rank, int tag,
                        std::span<std::byte> buf) {
  return irecv_common(ctx, src_rank, tag, buf, /*sink=*/false, /*cap=*/0);
}

Request Endpoint::irecv_sink(CommCtx ctx, int src_rank, int tag,
                             std::size_t cap) {
  return irecv_common(ctx, src_rank, tag, {}, /*sink=*/true, cap);
}

Request Endpoint::irecv_common(CommCtx ctx, int src_rank, int tag,
                               std::span<std::byte> buf, bool sink,
                               std::size_t cap) {
  enter_call();
  progress();  // drain arrivals first: frames that beat this call land in
               // the unexpected queue (the cost Figure 2 talks about)
  auto req = make_request_cached(ReqState::Kind::Recv);
  if (src_rank == kProcNull) {
    req->posted = true;
    return req;
  }
  RecvArgs args;
  args.ctx = ctx;
  args.src_rank = src_rank;
  args.tag = tag;
  args.buf = buf;

  req->ctx = ctx;
  req->peer_rank = src_rank;
  req->tag = tag;
  req->recv_buf = buf;
  req->sink = sink;
  req->sink_cap = cap;

  protocol_->irecv(*this, args, req);
  progress();
  return req;
}

void Endpoint::fire_app_complete(const Request& req) {
  if (req == nullptr || req->app_completed) return;
  req->app_completed = true;
  if (req->kind == ReqState::Kind::Recv) {
    protocol_->on_app_complete(*this, req);
  }
}

void Endpoint::wait(Request& req) {
  enter_call();
  progress_until([&] { return req->ready(); }, "wait");
  fire_app_complete(req);
}

bool Endpoint::test(Request& req) {
  enter_call();
  progress();
  if (!req->ready()) return false;
  fire_app_complete(req);
  return true;
}

void Endpoint::waitall(std::span<Request> reqs) {
  enter_call();
  progress_until(
      [&] {
        for (const auto& r : reqs) {
          if (r != nullptr && !r->ready()) return false;
        }
        return true;
      },
      "waitall");
  for (auto& r : reqs) fire_app_complete(r);
}

int Endpoint::waitany(std::span<Request> reqs) {
  enter_call();
  int index = -1;
  progress_until(
      [&] {
        for (std::size_t i = 0; i < reqs.size(); ++i) {
          if (reqs[i] != nullptr && reqs[i]->ready()) {
            index = static_cast<int>(i);
            return true;
          }
        }
        return false;
      },
      "waitany");
  fire_app_complete(reqs[static_cast<std::size_t>(index)]);
  return index;
}

bool Endpoint::testall(std::span<Request> reqs) {
  enter_call();
  progress();
  for (const auto& r : reqs) {
    if (r != nullptr && !r->ready()) return false;
  }
  for (auto& r : reqs) fire_app_complete(r);
  return true;
}

Status Endpoint::probe(CommCtx ctx, int src_rank, int tag) {
  enter_call();
  std::optional<Status> status;
  progress_until(
      [&] { return (status = peek(ctx, src_rank, tag)).has_value(); },
      "probe");
  return *status;
}

std::optional<Status> Endpoint::iprobe(CommCtx ctx, int src_rank, int tag) {
  enter_call();
  progress();
  return peek(ctx, src_rank, tag);
}

std::optional<Status> Endpoint::peek(CommCtx ctx, int src_rank, int tag) {
  CtxState& m = ctx_state(ctx);
  const auto it = oldest_unexpected(m, src_rank, tag);
  if (it == m.unexpected.end()) return std::nullopt;
  // An RTS announces the size its payload will have.
  return Status{it->h.src_rank, it->h.tag,
                it->h.kind == FrameKind::Rts
                    ? static_cast<std::size_t>(it->h.value)
                    : it->bulk.size()};
}

// ---------------------------------------------------------------------------
// Base operations (protocol-visible)
// ---------------------------------------------------------------------------

void Endpoint::base_isend(CommCtx ctx, int dst_rank, int dst_slot, int tag,
                          std::uint64_t seq, const net::Payload& payload,
                          const Request& req) {
  const CommInfo* ci = comm_by_ctx(ctx);
  if (ci == nullptr) throw std::logic_error("base_isend: unknown ctx");

  FrameHeader h;
  h.ctx = ctx;
  h.src_rank = ci->my_rank;
  h.dst_rank = dst_rank;
  h.tag = tag;
  h.src_slot = slot_;
  h.world = static_cast<std::uint8_t>(world_);
  h.seq = seq;

  ++stats_.data_frames_sent;
  // Detached sends (req == nullptr) are protocol retransmissions of
  // already-buffered payloads: they go eagerly regardless of size, because
  // nothing guarantees this process will still be making MPI calls (and
  // thus progressing a rendezvous) by the time a CTS would arrive.
  if (req == nullptr || payload.size() <= fabric_.params().eager_threshold) {
    // Eager: the payload travels with the envelope and is buffered on the
    // wire, so the application buffer is immediately reusable. The handle
    // aliases the logical send's buffer/descriptor — no bytes move here.
    h.kind = FrameKind::Eager;
    fabric_.send(dst_slot, h, payload,
                 payload.size() + net::kDataEnvelopeBytes);
  } else {
    // Rendezvous: RTS now, payload after CTS; the buffer stays busy until
    // the payload is injected.
    h.kind = FrameKind::Rts;
    h.value = payload.size();
    h.aux = next_rdv_id_++;
    rdv_sends_.push_back(RdvSend{payload, dst_slot, req, h});
    ++req->local_pending;
    fabric_.send(dst_slot, h, {}, net::kHeaderBytes);
  }
}

void Endpoint::base_irecv(CommCtx ctx, int src_rank, int tag,
                          std::span<std::byte> buf, const Request& req) {
  req->ctx = ctx;
  if (req->recv_buf.data() == nullptr) req->recv_buf = buf;
  req->posted = true;
  req->local_pending = 1;
  // The match source rides in status.source until the receive completes;
  // peer_rank keeps what the *application* posted (possibly ANY_SOURCE) so
  // protocols can distinguish wildcard receives (the leader protocol
  // narrows the match source).
  req->status.source = src_rank;
  req->tag = tag;

  CtxState& m = ctx_state(ctx);
  const auto it = oldest_unexpected(m, src_rank, tag);
  if (it == m.unexpected.end()) {
    m.posted.push_back(req);
    return;
  }
  net::Delivery f = std::move(*it);
  m.unexpected.erase(it);
  deliver(std::move(f), req);
}

void Endpoint::send_ctl(int dst_slot, FrameHeader h,
                        std::span<const std::byte> payload) {
  h.src_slot = slot_;
  h.world = static_cast<std::uint8_t>(world_);
  ++stats_.ctl_frames_sent;
  const std::size_t wire = payload.empty() ? net::kCtlFrameBytes
                                           : payload.size() + net::kHeaderBytes;
  fabric_.send(dst_slot, h, net::Payload::copy_of(pool(), payload), wire);
}

// ---------------------------------------------------------------------------
// Progress engine
// ---------------------------------------------------------------------------

void Endpoint::on_delivery(net::Delivery&& d) {
  // Event context: just queue; the owning process consumes inside MPI calls.
  inbox_.push_back(std::move(d));
}

void Endpoint::progress() {
  // Index, don't hold a reference: handling a frame can run events that
  // append to (and reallocate) the inbox.
  while (inbox_head_ < inbox_.size()) {
    net::Delivery d = std::move(inbox_[inbox_head_++]);
    handle_frame(std::move(d));
  }
  inbox_.clear();
  inbox_head_ = 0;
}

void Endpoint::progress_until(const std::function<bool()>& pred,
                              const char* why) {
  progress();
  while (!pred()) {
    engine().block(why);
    progress();
  }
}

void Endpoint::handle_frame(net::Delivery&& d) {
  engine().advance_to(d.arrival);
  engine().advance(fabric_.fixed_costs().o_recv);

  switch (d.h.kind) {
    case FrameKind::Eager:
    case FrameKind::Rts:
      handle_data_frame(std::move(d));
      break;
    case FrameKind::Cts:
      handle_cts(d.h);
      break;
    case FrameKind::RdvData:
      handle_rdv_data(std::move(d));
      break;
    case FrameKind::Failure:
      on_peer_dead(static_cast<int>(d.h.value));
      [[fallthrough]];
    default:
      protocol_->on_ctl(*this, d.h, d.bulk.bytes());
      break;
  }
}

void Endpoint::handle_data_frame(net::Delivery&& f) {
  auto& m = ctx_state(f.h.ctx);
  // Value, not reference: protocol callbacks below re-enter the endpoint
  // and may restructure the sparse counter storage.
  const std::uint64_t expected = m.recv_seq.get(f.h.src_rank);

  if (f.h.seq < expected) {
    // Duplicate (failover resend or mirror sibling copy).
    if (f.h.kind == FrameKind::Rts) {
      // A duplicate RTS may actually be the retransmission of a rendezvous
      // whose original sender died between RTS and payload: re-attach it.
      // The sender's liveness is read from the fabric, not left to
      // on_peer_dead: under Mirror the sibling's RTS can arrive before this
      // endpoint has processed the Failure notification.
      for (auto it = rdv_recvs_.begin(); it != rdv_recvs_.end(); ++it) {
        if (!it->discard && it->header.ctx == f.h.ctx &&
            it->header.src_rank == f.h.src_rank && it->header.seq == f.h.seq &&
            !fabric_.alive(it->header.src_slot)) {
          const Request req = std::move(it->req);
          rdv_recvs_.erase(it);
          start_rendezvous_recv(f.h, req, /*discard=*/false);
          return;
        }
      }
      // Plain duplicate rendezvous: let the sender finish, discard payload.
      start_rendezvous_recv(f.h, nullptr, /*discard=*/true);
    }
    ++stats_.duplicates_dropped;
    return;
  }
  if (f.h.seq > expected) {
    // Out of order across replica streams: hold until the gap closes.
    SDR_LOG(Trace, "pml") << "slot " << slot_ << " parks (ctx=" << f.h.ctx
                          << ",src=" << f.h.src_rank << ",seq=" << f.h.seq
                          << ") expected " << expected;
    m.parked[f.h.src_rank].emplace(f.h.seq, std::move(f));
    return;
  }

  m.recv_seq.set(f.h.src_rank, expected + 1);
  const int src_rank = f.h.src_rank;
  match_or_queue(std::move(f));

  // Drain parked successors now unblocked. (Re-fetch the counter each
  // round: protocol callbacks ran in between.)
  auto pit = m.parked.find(src_rank);
  while (pit != m.parked.end() && !pit->second.empty()) {
    auto first = pit->second.begin();
    if (first->first != m.recv_seq.get(src_rank)) break;
    net::Delivery next = std::move(first->second);
    pit->second.erase(first);
    (void)m.recv_seq.bump(src_rank);
    match_or_queue(std::move(next));
    pit = m.parked.find(src_rank);
  }
}

bool Endpoint::matches(int src_rank, int tag, const FrameHeader& h) noexcept {
  return (src_rank == kAnySource || src_rank == h.src_rank) &&
         (tag == kAnyTag || tag == h.tag);
}

std::vector<net::Delivery>::iterator Endpoint::oldest_unexpected(
    CtxState& m, int src_rank, int tag) {
  return std::find_if(
      m.unexpected.begin(), m.unexpected.end(),
      [&](const net::Delivery& f) { return matches(src_rank, tag, f.h); });
}

void Endpoint::match_or_queue(net::Delivery&& f) {
  CtxState& m = ctx_state(f.h.ctx);
  const auto it =
      std::find_if(m.posted.begin(), m.posted.end(), [&](const Request& r) {
        return matches(r->status.source, r->tag, f.h);
      });
  if (it == m.posted.end()) {
    ++stats_.unexpected;
    m.unexpected.push_back(std::move(f));
    return;
  }
  const Request req = std::move(*it);
  m.posted.erase(it);
  deliver(std::move(f), req);
}

void Endpoint::deliver(net::Delivery&& f, const Request& req) {
  protocol_->on_match(*this, f.h, req);
  if (f.h.kind == FrameKind::Eager) {
    complete_recv(f.h, std::move(f.bulk), req);
  } else {
    start_rendezvous_recv(f.h, req, /*discard=*/false);
  }
}

void Endpoint::start_rendezvous_recv(const FrameHeader& rts,
                                     const Request& req, bool discard) {
  if (!discard && rts.value > cap(req)) {
    throw std::runtime_error("sdrmpi: message truncation (rendezvous recv)");
  }
  // (src_slot, aux) names one RTS, so the key is never in the table yet.
  rdv_recvs_.push_back(RdvRecv{req, rts, discard});

  FrameHeader cts;
  cts.kind = FrameKind::Cts;
  cts.ctx = rts.ctx;
  cts.src_rank = rts.dst_rank;
  cts.dst_rank = rts.src_rank;
  cts.value = rts.aux;
  send_ctl(rts.src_slot, cts);
}

void Endpoint::handle_cts(const FrameHeader& h) {
  const auto it =
      std::find_if(rdv_sends_.begin(), rdv_sends_.end(),
                   [&](const RdvSend& rs) { return rs.header.aux == h.value; });
  if (it == rdv_sends_.end()) return;  // stale: on_peer_dead finished it
  RdvSend rec = std::move(*it);
  rdv_sends_.erase(it);

  FrameHeader dh = rec.header;
  dh.kind = FrameKind::RdvData;
  // The staged payload rides as the bulk attachment — zero-copy from the
  // rendezvous store to the receiver.
  const std::size_t wire = rec.payload.size() + net::kDataEnvelopeBytes;
  fabric_.send(rec.dst_slot, dh, std::move(rec.payload), wire);
  --rec.req->local_pending;
}

void Endpoint::handle_rdv_data(net::Delivery&& f) {
  const auto it = std::find_if(
      rdv_recvs_.begin(), rdv_recvs_.end(), [&](const RdvRecv& rr) {
        return rr.header.src_slot == f.h.src_slot && rr.header.aux == f.h.aux;
      });
  if (it == rdv_recvs_.end()) return;
  RdvRecv rec = std::move(*it);
  rdv_recvs_.erase(it);
  if (rec.discard) {
    ++stats_.duplicates_dropped;
    return;
  }
  complete_recv(rec.header, std::move(f.bulk), rec.req);
}

void Endpoint::complete_recv(const FrameHeader& h, net::Payload&& bulk,
                             const Request& req) {
  if (bulk.size() > cap(req)) {
    throw std::runtime_error("sdrmpi: message truncation (recv)");
  }
  // Buffer mode writes the contents straight into the application buffer
  // (symbolic contents and ropes are generated there, never materialized
  // first). Sink mode records the delivered handle only — no bytes.
  if (!req->sink) bulk.copy_to(req->recv_buf.data());
  req->status.bytes = bulk.size();
  req->recv_payload = std::move(bulk);
  req->status.source = h.src_rank;
  req->status.tag = h.tag;
  req->seq = h.seq;
  req->recv_frame = h;
  req->local_pending = 0;
  protocol_->on_recv_complete(*this, h, req);
  // Buffer-mode receives drop the delivered handle right after the
  // protocol hook (redMPI digests it there without rehashing); holding it
  // longer would pin large slabs in the request recycler. Sink receives
  // keep it — the handle IS the delivered data.
  if (!req->sink) req->recv_payload.reset();
}

void Endpoint::on_peer_dead(int slot) {
  // A rendezvous send to a dead slot would wait for a CTS that never comes
  // and hold its request open forever. Dropping the copy is safe: under
  // SDR/Leader the sender keeps the payload in its ack store until the
  // other replicas of the destination ack it, for a substitute's resend,
  // and under Mirror the sibling copy already went to the other replica.
  // A CTS the dead slot sent before it died finds no entry, like any stale
  // CTS.
  std::erase_if(rdv_sends_, [slot](const RdvSend& rs) {
    if (rs.dst_slot != slot) return false;
    --rs.req->local_pending;
    return true;
  });
}

void Endpoint::recovery_point() {
  enter_call();
  protocol_->on_recovery_point(*this);
  progress();
}

std::string Endpoint::debug_state() const {
  std::ostringstream os;
  os << "slot " << slot_ << " (world " << world_ << "):";
  for (CommCtx ctx = 0; ctx < ctx_.size(); ++ctx) {
    const CtxState& m = ctx_[ctx];
    for (const auto& [src, seq] : m.recv_seq.entries()) {
      os << " exp(ctx=" << ctx << ",src=" << src << ")=" << seq;
    }
    for (const auto& req : m.posted) {
      os << " posted(ctx=" << ctx << ",src=" << req->status.source
         << ",tag=" << req->tag << ")";
    }
    for (const auto& f : m.unexpected) {
      os << " unexpected(ctx=" << ctx << ",src=" << f.h.src_rank
         << ",tag=" << f.h.tag << ",seq=" << f.h.seq << ")";
    }
    for (const auto& [src, parked] : m.parked) {
      if (!parked.empty()) {
        os << " parked(ctx=" << ctx << ",src=" << src
           << ",first=" << parked.begin()->first
           << ",expected=" << m.recv_seq.get(src)
           << ",n=" << parked.size() << ")";
      }
    }
  }
  for (const RdvSend& rs : rdv_sends_) {
    os << " rdv_send(id=" << rs.header.aux << ",dst_slot=" << rs.dst_slot
       << ")";
  }
  for (const RdvRecv& rr : rdv_recvs_) {
    if (!rr.discard) {
      os << " rdv_recv(src_slot=" << rr.header.src_slot
         << ",seq=" << rr.header.seq << ")";
    }
  }
  if (inbox_head_ < inbox_.size()) {
    os << " inbox=" << inbox_.size() - inbox_head_;
  }
  return os.str();
}

std::size_t Endpoint::footprint_bytes() const noexcept {
  std::size_t n = 0;
  for (const CtxState& m : ctx_) {
    n += sizeof(CtxState);
    n += m.send_seq.heap_bytes() + m.recv_seq.heap_bytes();
    n += m.posted.capacity() * sizeof(Request);
    n += m.unexpected.capacity() * sizeof(net::Delivery);
    for (const auto& [src, parked] : m.parked) {
      // Approximate the per-node overhead of the two nested maps.
      n += sizeof(void*) * 4 + parked.size() * (sizeof(net::Delivery) +
                                                sizeof(void*) * 4);
    }
  }
  for (const CommInfo& ci : comms_) {
    n += sizeof(CommInfo) + ci.rank_to_slot.heap_bytes();
  }
  n += (inbox_.size() - inbox_head_) * sizeof(net::Delivery);
  n += rdv_sends_.capacity() * sizeof(RdvSend);
  n += rdv_recvs_.capacity() * sizeof(RdvRecv);
  n += req_cache_.capacity() * sizeof(Request);
  n += coll_reqs_.capacity() * sizeof(Request);
  return n;
}

// Default Vprotocol implementations live here to keep vprotocol.hpp light.
void Vprotocol::isend(Endpoint& ep, const SendArgs& a, const Request& req) {
  ep.base_isend(a.ctx, a.dst_rank, a.dst_slot_default, a.tag, a.seq, a.payload,
                req);
}

void Vprotocol::irecv(Endpoint& ep, const RecvArgs& a, const Request& req) {
  ep.base_irecv(a.ctx, a.src_rank, a.tag, a.buf, req);
}

}  // namespace sdrmpi::mpi
