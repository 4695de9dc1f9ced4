// The vProtocol interception layer: hook firing order and semantics — the
// contract SDR-MPI is built on (paper §4.1: pml_isend/pml_irecv pre-
// treatment plus the patched pml_match / pml_recv_complete events).
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "test_support.hpp"

namespace sdrmpi {
namespace {

using test::quick_config;
using test::run_clean;

/// Records every hook invocation; forwards to the default behaviour.
class SpyProtocol : public mpi::Vprotocol {
 public:
  struct Log {
    std::vector<std::string> events;
  };
  explicit SpyProtocol(Log* log) : log_(log) {}

  void isend(mpi::Endpoint& ep, const mpi::SendArgs& a,
             const mpi::Request& req) override {
    log_->events.push_back("isend:" + std::to_string(a.dst_rank) + ":seq" +
                           std::to_string(a.seq));
    mpi::Vprotocol::isend(ep, a, req);
  }
  void irecv(mpi::Endpoint& ep, const mpi::RecvArgs& a,
             const mpi::Request& req) override {
    log_->events.push_back("irecv:" + std::to_string(a.src_rank));
    mpi::Vprotocol::irecv(ep, a, req);
  }
  void on_match(mpi::Endpoint&, const mpi::FrameHeader& h,
                const mpi::Request&) override {
    log_->events.push_back("match:seq" + std::to_string(h.seq));
  }
  void on_recv_complete(mpi::Endpoint&, const mpi::FrameHeader& h,
                        const mpi::Request&) override {
    log_->events.push_back("recv_complete:seq" + std::to_string(h.seq));
  }
  void on_app_complete(mpi::Endpoint&, const mpi::Request& req) override {
    log_->events.push_back("app_complete:seq" + std::to_string(req->seq));
  }

 private:
  Log* log_;
};

struct Rig {
  sim::Engine engine;
  net::FlatFabric fabric;
  std::vector<std::unique_ptr<mpi::Endpoint>> eps;
  std::vector<SpyProtocol::Log> logs;

  explicit Rig(int n)
      : fabric(engine, net::NetParams::infiniband_20g(), n), logs(n) {
    for (int s = 0; s < n; ++s) {
      auto ep = std::make_unique<mpi::Endpoint>(fabric, s, 0, 1);
      ep->register_comm_fixed(2, 3, s, mpi::RankMap::iota(0, n));
      ep->set_protocol(
          std::make_unique<SpyProtocol>(&logs[static_cast<std::size_t>(s)]));
      eps.push_back(std::move(ep));
    }
  }

  void spawn(int slot, std::function<void(mpi::Endpoint&)> body) {
    const int pid = engine.spawn(
        std::string("p").append(std::to_string(slot)),
        [this, slot, body = std::move(body)] { body(*eps[static_cast<std::size_t>(slot)]); });
    eps[static_cast<std::size_t>(slot)]->bind_process(pid);
  }
};

TEST(Vprotocol, HookOrderOnMatchedReceive) {
  Rig rig(2);
  rig.spawn(0, [](mpi::Endpoint& ep) {
    double v = 1.5;
    auto req = ep.isend(2, 1, 0, std::as_bytes(std::span<const double>(&v, 1)));
    ep.wait(req);
  });
  rig.spawn(1, [](mpi::Endpoint& ep) {
    double v = 0.0;
    auto req = ep.irecv(2, 0, 0, std::as_writable_bytes(std::span<double>(&v, 1)));
    ep.wait(req);
    EXPECT_DOUBLE_EQ(v, 1.5);
  });
  auto out = rig.engine.run();
  ASSERT_TRUE(out.clean());
  const auto& ev = rig.logs[1].events;
  // irecv posted, then match, then recv_complete, then app completion.
  ASSERT_EQ(ev.size(), 4u);
  EXPECT_EQ(ev[0], "irecv:0");
  EXPECT_EQ(ev[1], "match:seq0");
  EXPECT_EQ(ev[2], "recv_complete:seq0");
  EXPECT_EQ(ev[3], "app_complete:seq0");
  ASSERT_EQ(rig.logs[0].events.size(), 1u);
  EXPECT_EQ(rig.logs[0].events[0], "isend:1:seq0");
}

TEST(Vprotocol, SequenceNumbersPerChannel) {
  Rig rig(3);
  rig.spawn(0, [](mpi::Endpoint& ep) {
    double v = 0.0;
    const auto bytes = std::as_bytes(std::span<const double>(&v, 1));
    auto a = ep.isend(2, 1, 0, bytes);
    auto b = ep.isend(2, 1, 0, bytes);
    auto c = ep.isend(2, 2, 0, bytes);  // different channel: its own seq 0
    ep.wait(a);
    ep.wait(b);
    ep.wait(c);
  });
  rig.spawn(1, [](mpi::Endpoint& ep) {
    double v = 0.0;
    auto buf = std::as_writable_bytes(std::span<double>(&v, 1));
    auto r1 = ep.irecv(2, 0, 0, buf);
    ep.wait(r1);
    auto r2 = ep.irecv(2, 0, 0, buf);
    ep.wait(r2);
  });
  rig.spawn(2, [](mpi::Endpoint& ep) {
    double v = 0.0;
    auto r = ep.irecv(2, 0, 0, std::as_writable_bytes(std::span<double>(&v, 1)));
    ep.wait(r);
  });
  auto out = rig.engine.run();
  ASSERT_TRUE(out.clean());
  const auto& ev = rig.logs[0].events;
  ASSERT_EQ(ev.size(), 3u);
  EXPECT_EQ(ev[0], "isend:1:seq0");
  EXPECT_EQ(ev[1], "isend:1:seq1");
  EXPECT_EQ(ev[2], "isend:2:seq0");
}

TEST(Vprotocol, RecvCompleteFiresDuringOtherCallsProgress) {
  // The paper's key mechanism: irecvComplete (and thus ack emission) fires
  // while the process is blocked inside an unrelated MPI call.
  Rig rig(2);
  rig.spawn(0, [](mpi::Endpoint& ep) {
    double in = 0.0, out = 2.0;
    auto rreq = ep.irecv(2, 1, 1, std::as_writable_bytes(std::span<double>(&in, 1)));
    // Blocking send: while waiting, progress must complete the receive.
    auto sreq = ep.isend(2, 1, 2, std::as_bytes(std::span<const double>(&out, 1)));
    ep.wait(sreq);
    ep.wait(rreq);
  });
  rig.spawn(1, [](mpi::Endpoint& ep) {
    double in = 0.0, out = 3.0;
    auto rreq = ep.irecv(2, 0, 2, std::as_writable_bytes(std::span<double>(&in, 1)));
    auto sreq = ep.isend(2, 0, 1, std::as_bytes(std::span<const double>(&out, 1)));
    ep.wait(sreq);
    ep.wait(rreq);
  });
  auto out = rig.engine.run();
  ASSERT_TRUE(out.clean());
  for (int s = 0; s < 2; ++s) {
    bool seen_complete = false;
    for (const auto& e : rig.logs[static_cast<std::size_t>(s)].events) {
      if (e.rfind("recv_complete", 0) == 0) seen_complete = true;
    }
    EXPECT_TRUE(seen_complete);
  }
}

TEST(Vprotocol, UnexpectedMessageMatchesOnLatePost) {
  Rig rig(2);
  rig.spawn(0, [](mpi::Endpoint& ep) {
    double v = 7.0;
    auto req = ep.isend(2, 1, 9, std::as_bytes(std::span<const double>(&v, 1)));
    ep.wait(req);
  });
  rig.spawn(1, [](mpi::Endpoint& ep) {
    ep.engine().advance(timeunits::microseconds(50.0));  // let it arrive
    double v = 0.0;
    auto req = ep.irecv(2, 0, 9, std::as_writable_bytes(std::span<double>(&v, 1)));
    ep.wait(req);
    EXPECT_DOUBLE_EQ(v, 7.0);
  });
  auto out = rig.engine.run();
  ASSERT_TRUE(out.clean());
  EXPECT_EQ(rig.eps[1]->stats().unexpected, 1u);
  // match + recv_complete still fired, after the late irecv.
  const auto& ev = rig.logs[1].events;
  ASSERT_GE(ev.size(), 3u);
  EXPECT_EQ(ev[0], "irecv:0");
  EXPECT_EQ(ev[1], "match:seq0");
}

}  // namespace
}  // namespace sdrmpi
