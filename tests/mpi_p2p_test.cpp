// Point-to-point semantics: matching rules, wildcards, ordering,
// eager/rendezvous, completion functions, probing, error cases.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "test_support.hpp"

namespace sdrmpi {
namespace {

using test::quick_config;
using test::run_clean;

/// Runs a 2-rank app natively and asserts success.
core::RunResult run2(const core::AppFn& app, int nranks = 2) {
  auto res = core::run(quick_config(nranks, 1, core::ProtocolKind::Native), app);
  EXPECT_TRUE(run_clean(res));
  return res;
}

TEST(P2p, BasicSendRecv) {
  run2([](mpi::Env& env) {
    auto& w = env.world();
    if (env.rank() == 0) {
      w.send_value(3.25, 1, 7);
    } else {
      EXPECT_DOUBLE_EQ(w.recv_value<double>(0, 7), 3.25);
    }
  });
}

TEST(P2p, TypedArrays) {
  run2([](mpi::Env& env) {
    auto& w = env.world();
    if (env.rank() == 0) {
      std::vector<std::int32_t> v{1, 2, 3, 4, 5};
      w.send(std::span<const std::int32_t>(v), 1, 0);
    } else {
      std::vector<std::int32_t> v(5);
      auto st = w.recv(std::span<std::int32_t>(v), 0, 0);
      EXPECT_EQ(st.bytes, 5 * sizeof(std::int32_t));
      EXPECT_EQ(v[4], 5);
    }
  });
}

TEST(P2p, TagsSelectMessages) {
  run2([](mpi::Env& env) {
    auto& w = env.world();
    if (env.rank() == 0) {
      w.send_value(1.0, 1, 10);
      w.send_value(2.0, 1, 20);
    } else {
      // Receive in reverse tag order: matching must honor tags.
      EXPECT_DOUBLE_EQ(w.recv_value<double>(0, 20), 2.0);
      EXPECT_DOUBLE_EQ(w.recv_value<double>(0, 10), 1.0);
    }
  });
}

TEST(P2p, SameTagFifoOrder) {
  run2([](mpi::Env& env) {
    auto& w = env.world();
    if (env.rank() == 0) {
      for (int i = 0; i < 8; ++i) w.send_value(static_cast<double>(i), 1, 5);
    } else {
      for (int i = 0; i < 8; ++i) {
        EXPECT_DOUBLE_EQ(w.recv_value<double>(0, 5), i);
      }
    }
  });
}

TEST(P2p, AnySourceReceives) {
  run2(
      [](mpi::Env& env) {
        auto& w = env.world();
        if (env.rank() == 0) {
          double sum = 0.0;
          for (int i = 0; i < 3; ++i) {
            double v = 0.0;
            auto st = w.recv(std::span<double>(&v, 1), mpi::kAnySource, 1);
            EXPECT_GE(st.source, 1);
            sum += v;
          }
          EXPECT_DOUBLE_EQ(sum, 1 + 2 + 3);
        } else {
          w.send_value(static_cast<double>(env.rank()), 0, 1);
        }
      },
      4);
}

TEST(P2p, AnyTagReceives) {
  run2([](mpi::Env& env) {
    auto& w = env.world();
    if (env.rank() == 0) {
      w.send_value(9.0, 1, 1234);
    } else {
      double v = 0.0;
      auto st = w.recv(std::span<double>(&v, 1), 0, mpi::kAnyTag);
      EXPECT_EQ(st.tag, 1234);
      EXPECT_DOUBLE_EQ(v, 9.0);
    }
  });
}

TEST(P2p, StatusCarriesSourceTagBytes) {
  run2([](mpi::Env& env) {
    auto& w = env.world();
    if (env.rank() == 0) {
      std::vector<double> v(3, 1.0);
      w.send(std::span<const double>(v), 1, 77);
    } else {
      std::vector<double> v(8);  // bigger buffer than the message
      auto st = w.recv(std::span<double>(v), 0, 77);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 77);
      EXPECT_EQ(st.bytes, 3 * sizeof(double));
    }
  });
}

TEST(P2p, UnexpectedMessagesQueueInOrder) {
  auto res = run2([](mpi::Env& env) {
    auto& w = env.world();
    if (env.rank() == 0) {
      for (int i = 0; i < 4; ++i) w.send_value(static_cast<double>(i), 1, 3);
      w.barrier();
    } else {
      w.barrier();  // all four messages are unexpected by now
      for (int i = 0; i < 4; ++i) {
        EXPECT_DOUBLE_EQ(w.recv_value<double>(0, 3), i);
      }
    }
  });
  EXPECT_GE(res.unexpected, 4u);
}

TEST(P2p, RendezvousLargeMessage) {
  run2([](mpi::Env& env) {
    auto& w = env.world();
    const std::size_t n = 32768;  // 256 KiB of doubles: rendezvous
    if (env.rank() == 0) {
      std::vector<double> v(n);
      for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i);
      w.send(std::span<const double>(v), 1, 0);
    } else {
      std::vector<double> v(n);
      w.recv(std::span<double>(v), 0, 0);
      EXPECT_DOUBLE_EQ(v[n - 1], static_cast<double>(n - 1));
      EXPECT_DOUBLE_EQ(v[n / 2], static_cast<double>(n / 2));
    }
  });
}

TEST(P2p, RendezvousTakesLongerThanEagerPerByte) {
  // The rendezvous handshake shows up as a latency knee around the
  // threshold (visible in figure 7a as well).
  auto time_for = [](std::size_t bytes) {
    core::RunConfig cfg;
    cfg.nranks = 2;
    auto res = core::run(cfg, [bytes](mpi::Env& env) {
      auto& w = env.world();
      std::vector<std::byte> buf(bytes, std::byte{1});
      if (env.rank() == 0) {
        w.send(std::span<const std::byte>(buf), 1, 0);
      } else {
        w.recv(std::span<std::byte>(buf), 0, 0);
      }
    });
    return res.makespan;
  };
  const auto just_below = time_for(12288);
  const auto just_above = time_for(12289);
  // Crossing the threshold adds the RTS/CTS round trip.
  EXPECT_GT(just_above, just_below + 1500);
}

TEST(P2p, IsendIrecvWaitall) {
  run2([](mpi::Env& env) {
    auto& w = env.world();
    const int peer = env.rank() ^ 1;
    double in = 0.0;
    const double out = 10.0 + env.rank();
    mpi::Request reqs[2] = {w.irecv(std::span<double>(&in, 1), peer, 0),
                            w.isend(std::span<const double>(&out, 1), peer, 0)};
    w.waitall(reqs);
    EXPECT_DOUBLE_EQ(in, 10.0 + peer);
  });
}

TEST(P2p, WaitanyReturnsReadyIndex) {
  run2([](mpi::Env& env) {
    auto& w = env.world();
    if (env.rank() == 0) {
      env.compute(1e-4);  // delay so rank 1 is already waiting
      w.send_value(1.0, 1, 2);
      w.send_value(2.0, 1, 1);
    } else {
      double a = 0.0, b = 0.0;
      mpi::Request reqs[2] = {w.irecv(std::span<double>(&a, 1), 0, 1),
                              w.irecv(std::span<double>(&b, 1), 0, 2)};
      const int first = w.waitany(reqs);
      EXPECT_EQ(first, 1);  // tag 2 was sent first
      w.wait(reqs[0]);
      EXPECT_DOUBLE_EQ(a, 2.0);
      EXPECT_DOUBLE_EQ(b, 1.0);
    }
  });
}

TEST(P2p, TestPollsWithoutBlocking) {
  run2([](mpi::Env& env) {
    auto& w = env.world();
    if (env.rank() == 0) {
      env.compute(5e-5);
      w.send_value(4.0, 1, 0);
    } else {
      double v = 0.0;
      auto req = w.irecv(std::span<double>(&v, 1), 0, 0);
      int polls = 0;
      while (!w.test(req)) {
        ++polls;
        env.compute(1e-6);
      }
      EXPECT_GT(polls, 0);
      EXPECT_DOUBLE_EQ(v, 4.0);
    }
  });
}

// Eager and rendezvous sizes (an RTS announces its payload's size): two
// senders, and each wildcard probe's source names the message that the
// recv from that source then gets.
TEST(P2p, ProbeSeesPendingMessage) {
  for (const std::size_t n : {std::size_t{5}, std::size_t{4096}}) {
    run2(
        [n](mpi::Env& env) {
          auto& w = env.world();
          if (env.rank() < 2) {
            std::vector<double> v(n, env.rank() + 2.0);
            w.send(std::span<const double>(v), 2, 42);
          } else {
            for (int k = 0; k < 2; ++k) {
              const auto st = w.probe(mpi::kAnySource, 42);
              EXPECT_EQ(st.bytes, n * sizeof(double));
              std::vector<double> v(n);
              EXPECT_EQ(w.recv(std::span<double>(v), st.source, 42).bytes,
                        n * sizeof(double));
              EXPECT_DOUBLE_EQ(v[n - 1], st.source + 2.0);
            }
          }
        },
        3);
  }
}

TEST(P2p, IprobeNonBlocking) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{4096}}) {
    run2([n](mpi::Env& env) {
      auto& w = env.world();
      if (env.rank() == 0) {
        EXPECT_FALSE(w.iprobe(1, 99).has_value());  // nothing sent to me
        const std::vector<double> v(n, 1.0);
        w.send(std::span<const double>(v), 1, 99);
      } else {
        std::optional<mpi::Status> st;
        while (!(st = w.iprobe(0, 99))) env.compute(1e-6);
        EXPECT_EQ(st->bytes, n * sizeof(double));
        std::vector<double> v(n);
        w.recv(std::span<double>(v), 0, 99);
        EXPECT_DOUBLE_EQ(v[n - 1], 1.0);
      }
    });
  }
}

TEST(P2p, SendToSelf) {
  run2([](mpi::Env& env) {
    auto& w = env.world();
    double in = 0.0;
    const double out = 6.5;
    auto r = w.irecv(std::span<double>(&in, 1), env.rank(), 0);
    w.send(std::span<const double>(&out, 1), env.rank(), 0);
    w.wait(r);
    EXPECT_DOUBLE_EQ(in, 6.5);
  });
}

TEST(P2p, ProcNullIsNoop) {
  run2([](mpi::Env& env) {
    auto& w = env.world();
    double v = 1.0;
    auto s = w.isend(std::span<const double>(&v, 1), mpi::kProcNull, 0);
    auto r = w.irecv(std::span<double>(&v, 1), mpi::kProcNull, 0);
    EXPECT_TRUE(s->ready());
    EXPECT_TRUE(r->ready());
    w.wait(s);
    w.wait(r);
  });
}

TEST(P2p, TruncationThrows) {
  // An eager message, and a rendezvous one (caught at its RTS).
  for (const std::size_t n : {std::size_t{8}, std::size_t{4096}}) {
    core::RunConfig cfg;
    cfg.nranks = 2;
    auto res = core::run(cfg, [n](mpi::Env& env) {
      auto& w = env.world();
      if (env.rank() == 0) {
        std::vector<double> v(n, 1.0);
        w.send(std::span<const double>(v), 1, 0);
      } else {
        std::vector<double> v(2);  // too small
        w.recv(std::span<double>(v), 0, 0);
      }
    });
    EXPECT_FALSE(res.clean()) << n;
    ASSERT_FALSE(res.errors.empty()) << n;
    EXPECT_NE(res.errors[0].find("truncation"), std::string::npos) << n;
  }
}

TEST(P2p, SendrecvBothDirections) {
  run2([](mpi::Env& env) {
    auto& w = env.world();
    const int peer = env.rank() ^ 1;
    const double out = 100.0 + env.rank();
    double in = 0.0;
    auto st = w.sendrecv(std::span<const double>(&out, 1), peer, 0,
                         std::span<double>(&in, 1), peer, 0);
    EXPECT_DOUBLE_EQ(in, 100.0 + peer);
    EXPECT_EQ(st.source, peer);
  });
}

TEST(P2p, ZeroByteMessage) {
  run2([](mpi::Env& env) {
    auto& w = env.world();
    if (env.rank() == 0) {
      w.send(std::span<const double>{}, 1, 0);
    } else {
      auto st = w.recv(std::span<double>{}, 0, 0);
      EXPECT_EQ(st.bytes, 0u);
    }
  });
}

TEST(P2p, ManyOutstandingRequests) {
  run2([](mpi::Env& env) {
    auto& w = env.world();
    constexpr int kN = 64;
    std::vector<double> in(kN), out(kN);
    std::vector<mpi::Request> reqs;
    const int peer = env.rank() ^ 1;
    for (int i = 0; i < kN; ++i) {
      out[static_cast<std::size_t>(i)] = i;
      reqs.push_back(w.irecv(
          std::span<double>(&in[static_cast<std::size_t>(i)], 1), peer, i));
    }
    for (int i = 0; i < kN; ++i) {
      reqs.push_back(w.isend(
          std::span<const double>(&out[static_cast<std::size_t>(i)], 1), peer,
          i));
    }
    w.waitall(reqs);
    for (int i = 0; i < kN; ++i) {
      EXPECT_DOUBLE_EQ(in[static_cast<std::size_t>(i)], i);
    }
  });
}

TEST(P2p, MessageOrderAcrossSizes) {
  // Eager and rendezvous messages on the same channel must still match in
  // posting order.
  run2([](mpi::Env& env) {
    auto& w = env.world();
    const std::size_t big = 4096;  // doubles -> 32 KiB: rendezvous
    if (env.rank() == 0) {
      w.send_value(1.0, 1, 0);
      std::vector<double> v(big, 2.0);
      w.send(std::span<const double>(v), 1, 0);
      w.send_value(3.0, 1, 0);
    } else {
      EXPECT_DOUBLE_EQ(w.recv_value<double>(0, 0), 1.0);
      std::vector<double> v(big);
      w.recv(std::span<double>(v), 0, 0);
      EXPECT_DOUBLE_EQ(v[0], 2.0);
      EXPECT_DOUBLE_EQ(w.recv_value<double>(0, 0), 3.0);
    }
  });
}

TEST(P2p, WtimeAdvances) {
  run2([](mpi::Env& env) {
    const double t0 = env.wtime();
    env.compute(1e-3);
    EXPECT_NEAR(env.wtime() - t0, 1e-3, 1e-9);
  });
}

}  // namespace
}  // namespace sdrmpi
