// Collective operations: correctness for every algorithm, parameterized
// over communicator sizes (including non-powers of two).
//
// Three layers of coverage:
//  * the classic per-collective suites below (default Auto tuning, sizes
//    1..16);
//  * the algorithm matrix: every registered algorithm x comm sizes 3, 5, 7
//    (non-powers of two) and 8 x {real, symbolic} payloads, results checked
//    against the naive reference semantics (typed values) and against the
//    reference-shape tuning point (content checksums);
//  * regression tests for the alltoall(v) argument validation.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "sdrmpi/workloads/symbolic.hpp"
#include "test_support.hpp"

namespace sdrmpi {
namespace {

using test::quick_config;
using test::run_clean;

class Collectives : public ::testing::TestWithParam<int> {
 protected:
  void run(const core::AppFn& app) {
    auto res =
        core::run(quick_config(GetParam(), 1, core::ProtocolKind::Native), app);
    ASSERT_TRUE(run_clean(res));
  }
};

TEST_P(Collectives, Barrier) {
  run([](mpi::Env& env) {
    // Stagger entry; everyone must still leave together.
    env.compute(1e-6 * env.rank());
    const double before = env.wtime();
    env.world().barrier();
    if (env.size() > 1) {
      EXPECT_GT(env.wtime(), before);  // a real barrier costs latency
    }
    env.world().barrier();
    env.world().barrier();
  });
}

TEST_P(Collectives, BcastFromEveryRoot) {
  run([](mpi::Env& env) {
    auto& w = env.world();
    for (int root = 0; root < w.size(); ++root) {
      std::vector<double> v(4, env.rank() == root ? 42.0 + root : 0.0);
      w.bcast(std::span<double>(v), root);
      for (double x : v) EXPECT_DOUBLE_EQ(x, 42.0 + root);
    }
  });
}

TEST_P(Collectives, ReduceSum) {
  run([](mpi::Env& env) {
    auto& w = env.world();
    const int n = w.size();
    std::vector<double> send(3);
    for (int i = 0; i < 3; ++i) send[static_cast<std::size_t>(i)] = env.rank() + i;
    std::vector<double> recv(3);
    w.reduce(std::span<const double>(send), std::span<double>(recv),
             mpi::Op::Sum, 0);
    if (env.rank() == 0) {
      const double ranksum = n * (n - 1) / 2.0;
      for (int i = 0; i < 3; ++i) {
        EXPECT_DOUBLE_EQ(recv[static_cast<std::size_t>(i)], ranksum + i * n);
      }
    }
  });
}

TEST_P(Collectives, ReduceNonZeroRoot) {
  run([](mpi::Env& env) {
    auto& w = env.world();
    const int root = w.size() - 1;
    double v = 1.0;
    double out = 0.0;
    w.reduce(std::span<const double>(&v, 1), std::span<double>(&out, 1),
             mpi::Op::Sum, root);
    if (env.rank() == root) {
      EXPECT_DOUBLE_EQ(out, w.size());
    }
  });
}

TEST_P(Collectives, AllreduceOps) {
  run([](mpi::Env& env) {
    auto& w = env.world();
    const int n = w.size();
    const double mine = 1.0 + env.rank();
    EXPECT_DOUBLE_EQ(w.allreduce_value(mine, mpi::Op::Sum),
                     n * (n + 1) / 2.0);
    EXPECT_DOUBLE_EQ(w.allreduce_value(mine, mpi::Op::Max), n);
    EXPECT_DOUBLE_EQ(w.allreduce_value(mine, mpi::Op::Min), 1.0);
    if (n <= 8) {
      double prod = 1.0;
      for (int i = 1; i <= n; ++i) prod *= i;
      EXPECT_DOUBLE_EQ(w.allreduce_value(mine, mpi::Op::Prod), prod);
    }
  });
}

TEST_P(Collectives, AllreduceIntegerBitOps) {
  run([](mpi::Env& env) {
    auto& w = env.world();
    const std::int64_t mine = 1LL << env.rank();
    const std::int64_t ored = w.allreduce_value(mine, mpi::Op::Bor);
    EXPECT_EQ(ored, (1LL << w.size()) - 1);
    const std::int64_t anded = w.allreduce_value(
        static_cast<std::int64_t>(~0LL), mpi::Op::Band);
    EXPECT_EQ(anded, ~0LL);
  });
}

TEST_P(Collectives, AllreduceLogicalOps) {
  run([](mpi::Env& env) {
    auto& w = env.world();
    const std::int32_t mine = env.rank() == 0 ? 0 : 1;
    EXPECT_EQ(w.allreduce_value(mine, mpi::Op::Land), w.size() > 1 ? 0 : 0);
    EXPECT_EQ(w.allreduce_value(mine, mpi::Op::Lor), w.size() > 1 ? 1 : 0);
  });
}

TEST_P(Collectives, InPlaceAllreduce) {
  run([](mpi::Env& env) {
    auto& w = env.world();
    std::vector<double> v(5, 1.0);
    w.allreduce(std::span<double>(v), mpi::Op::Sum);
    for (double x : v) EXPECT_DOUBLE_EQ(x, w.size());
  });
}

TEST_P(Collectives, Gather) {
  run([](mpi::Env& env) {
    auto& w = env.world();
    const double mine = 10.0 * env.rank();
    std::vector<double> all(static_cast<std::size_t>(w.size()));
    w.gather(std::span<const double>(&mine, 1), std::span<double>(all), 0);
    if (env.rank() == 0) {
      for (int i = 0; i < w.size(); ++i) {
        EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(i)], 10.0 * i);
      }
    }
  });
}

TEST_P(Collectives, Allgather) {
  run([](mpi::Env& env) {
    auto& w = env.world();
    std::vector<double> mine{static_cast<double>(env.rank()),
                             env.rank() * 2.0};
    std::vector<double> all(static_cast<std::size_t>(2 * w.size()));
    w.allgather(std::span<const double>(mine), std::span<double>(all));
    for (int i = 0; i < w.size(); ++i) {
      EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(2 * i)], i);
      EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(2 * i + 1)], 2.0 * i);
    }
  });
}

TEST_P(Collectives, Scatter) {
  run([](mpi::Env& env) {
    auto& w = env.world();
    std::vector<double> src;
    if (env.rank() == 0) {
      src.resize(static_cast<std::size_t>(w.size()));
      std::iota(src.begin(), src.end(), 100.0);
    }
    double mine = 0.0;
    w.scatter(std::span<const double>(src), std::span<double>(&mine, 1), 0);
    EXPECT_DOUBLE_EQ(mine, 100.0 + env.rank());
  });
}

TEST_P(Collectives, Alltoall) {
  run([](mpi::Env& env) {
    auto& w = env.world();
    const int n = w.size();
    std::vector<std::int64_t> send(static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d) {
      send[static_cast<std::size_t>(d)] = env.rank() * 1000 + d;
    }
    std::vector<std::int64_t> recv(static_cast<std::size_t>(n));
    w.alltoall(std::span<const std::int64_t>(send),
               std::span<std::int64_t>(recv));
    for (int s = 0; s < n; ++s) {
      EXPECT_EQ(recv[static_cast<std::size_t>(s)], s * 1000 + env.rank());
    }
  });
}

TEST_P(Collectives, Alltoallv) {
  run([](mpi::Env& env) {
    auto& w = env.world();
    const int n = w.size();
    // Rank r sends (d+1) values to destination d.
    std::vector<std::size_t> scounts(static_cast<std::size_t>(n));
    std::vector<std::size_t> rcounts(static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d) {
      scounts[static_cast<std::size_t>(d)] = static_cast<std::size_t>(d + 1);
      rcounts[static_cast<std::size_t>(d)] =
          static_cast<std::size_t>(env.rank() + 1);
    }
    std::size_t stotal = 0, rtotal = 0;
    for (auto c : scounts) stotal += c;
    for (auto c : rcounts) rtotal += c;
    std::vector<std::int64_t> send(stotal);
    std::size_t off = 0;
    for (int d = 0; d < n; ++d) {
      for (std::size_t k = 0; k < scounts[static_cast<std::size_t>(d)]; ++k) {
        send[off++] = env.rank() * 100 + d;
      }
    }
    std::vector<std::int64_t> recv(rtotal);
    w.alltoallv(std::span<const std::int64_t>(send), scounts,
                std::span<std::int64_t>(recv), rcounts);
    off = 0;
    for (int s = 0; s < n; ++s) {
      for (std::size_t k = 0; k < rcounts[static_cast<std::size_t>(s)]; ++k) {
        EXPECT_EQ(recv[off++], s * 100 + env.rank());
      }
    }
  });
}

TEST_P(Collectives, ScanInclusive) {
  run([](mpi::Env& env) {
    auto& w = env.world();
    const double mine = 1.0 + env.rank();
    double out = 0.0;
    w.scan(std::span<const double>(&mine, 1), std::span<double>(&out, 1),
           mpi::Op::Sum);
    const int r = env.rank();
    EXPECT_DOUBLE_EQ(out, (r + 1) * (r + 2) / 2.0);
  });
}

TEST_P(Collectives, ExscanExclusive) {
  run([](mpi::Env& env) {
    auto& w = env.world();
    const double mine = 1.0 + env.rank();
    double out = -1.0;
    w.exscan(std::span<const double>(&mine, 1), std::span<double>(&out, 1),
             mpi::Op::Sum);
    const int r = env.rank();
    if (r == 0) {
      EXPECT_DOUBLE_EQ(out, -1.0);  // untouched on rank 0
    } else {
      EXPECT_DOUBLE_EQ(out, r * (r + 1) / 2.0);
    }
  });
}

TEST_P(Collectives, GathervVariableCounts) {
  run([](mpi::Env& env) {
    auto& w = env.world();
    const int n = w.size();
    const std::size_t mine_count = static_cast<std::size_t>(env.rank() + 1);
    std::vector<std::byte> mine(mine_count * sizeof(double));
    std::vector<double> payload(mine_count, 1.0 * env.rank());
    std::memcpy(mine.data(), payload.data(), mine.size());

    std::vector<std::size_t> counts(static_cast<std::size_t>(n));
    std::size_t total = 0;
    for (int i = 0; i < n; ++i) {
      counts[static_cast<std::size_t>(i)] =
          static_cast<std::size_t>(i + 1) * sizeof(double);
      total += counts[static_cast<std::size_t>(i)];
    }
    std::vector<std::byte> all(total);
    w.gatherv_bytes(mine, all, counts, 0);
    if (env.rank() == 0) {
      std::size_t off = 0;
      for (int i = 0; i < n; ++i) {
        for (int k = 0; k <= i; ++k) {
          double v = 0.0;
          std::memcpy(&v, all.data() + off, sizeof(double));
          EXPECT_DOUBLE_EQ(v, 1.0 * i);
          off += sizeof(double);
        }
      }
    }
  });
}

TEST_P(Collectives, BigBcastUsesRendezvous) {
  run([](mpi::Env& env) {
    auto& w = env.world();
    std::vector<double> v(8192, 0.0);  // 64 KiB
    if (env.rank() == 0) {
      for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
    }
    w.bcast(std::span<double>(v), 0);
    EXPECT_DOUBLE_EQ(v[8191], 8191.0);
  });
}

TEST_P(Collectives, BackToBackCollectivesDoNotMix) {
  run([](mpi::Env& env) {
    auto& w = env.world();
    for (int round = 0; round < 5; ++round) {
      const double s = w.allreduce_value(1.0 * round, mpi::Op::Sum);
      EXPECT_DOUBLE_EQ(s, 1.0 * round * w.size());
      std::vector<double> v(2, env.rank() == 0 ? round * 7.0 : 0.0);
      w.bcast(std::span<double>(v), 0);
      EXPECT_DOUBLE_EQ(v[1], round * 7.0);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, Collectives,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 16),
                         [](const auto& info) {
                           return "np" + std::to_string(info.param);
                         });

// Collectives must also work across every replication protocol (they ride
// the hooked point-to-point path).
struct CollProtoCase {
  core::ProtocolKind proto;
  int r;
};

class CollectivesReplicated : public ::testing::TestWithParam<CollProtoCase> {};

TEST_P(CollectivesReplicated, AllCollectivesUnderReplication) {
  const auto [proto, r] = GetParam();
  auto cfg = quick_config(4, r, proto);
  auto res = core::run(cfg, [](mpi::Env& env) {
    auto& w = env.world();
    const int n = w.size();
    util::Checksum cs;
    cs.add_double(w.allreduce_value(1.0 + env.rank(), mpi::Op::Sum));
    std::vector<double> g(static_cast<std::size_t>(n));
    const double mine = env.rank() * 3.0;
    w.allgather(std::span<const double>(&mine, 1), std::span<double>(g));
    cs.add_range(std::span<const double>(g));
    std::vector<std::int64_t> a(static_cast<std::size_t>(n), env.rank());
    std::vector<std::int64_t> b(static_cast<std::size_t>(n));
    w.alltoall(std::span<const std::int64_t>(a), std::span<std::int64_t>(b));
    cs.add_range(std::span<const std::int64_t>(b));
    w.barrier();
    env.report_checksum(cs.digest());
  });
  ASSERT_TRUE(run_clean(res));
  EXPECT_TRUE(res.checksums_consistent());
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, CollectivesReplicated,
    ::testing::Values(CollProtoCase{core::ProtocolKind::Sdr, 2},
                      CollProtoCase{core::ProtocolKind::Sdr, 3},
                      CollProtoCase{core::ProtocolKind::Mirror, 2},
                      CollProtoCase{core::ProtocolKind::Leader, 2},
                      CollProtoCase{core::ProtocolKind::RedMpiSd, 2}),
    [](const auto& info) {
      std::string name = std::string(core::to_string(info.param.proto)) + "_r" +
                         std::to_string(info.param.r);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Algorithm matrix: every registered algorithm of every collective, on
// non-power-of-two communicators and on 8 ranks, with real and symbolic
// payloads.
// ---------------------------------------------------------------------------

/// One forced-algorithm tuning per registered algorithm (others Auto),
/// index 0 = the naive reference shapes (the seed's collectives).
std::vector<std::pair<std::string, mpi::CollTuning>> tuning_matrix() {
  std::vector<std::pair<std::string, mpi::CollTuning>> out;
  {
    mpi::CollTuning ref;
    ref.bcast = mpi::BcastAlg::Binomial;
    ref.allreduce = mpi::AllreduceAlg::ReduceBcast;
    ref.allgather = mpi::AllgatherAlg::Ring;
    ref.alltoall = mpi::AlltoallAlg::Pairwise;
    out.emplace_back("reference", ref);
  }
  {
    mpi::CollTuning t;
    out.emplace_back("auto", t);
  }
  auto add = [&out](const char* name, auto set) {
    mpi::CollTuning t;
    set(t);
    out.emplace_back(name, t);
  };
  add("bcast_sag",
      [](mpi::CollTuning& t) { t.bcast = mpi::BcastAlg::ScatterAllgather; });
  add("allreduce_rd", [](mpi::CollTuning& t) {
    t.allreduce = mpi::AllreduceAlg::RecursiveDoubling;
  });
  add("allreduce_rab", [](mpi::CollTuning& t) {
    t.allreduce = mpi::AllreduceAlg::Rabenseifner;
  });
  add("allgather_bruck",
      [](mpi::CollTuning& t) { t.allgather = mpi::AllgatherAlg::Bruck; });
  add("alltoall_bruck",
      [](mpi::CollTuning& t) { t.alltoall = mpi::AlltoallAlg::Bruck; });
  return out;
}

struct MatrixCase {
  std::string name;
  mpi::CollTuning tuning;
  int np;
};

class CollAlgorithmMatrix : public ::testing::TestWithParam<MatrixCase> {};

/// Typed collectives under the forced algorithm, verified against the
/// mathematically expected (naive-reference) results. Integer ops compare
/// exactly; floating-point sums compare with a tolerance because the
/// combine-tree shape differs per algorithm.
TEST_P(CollAlgorithmMatrix, RealPayloadsMatchReference) {
  const auto& [name, tuning, np] = GetParam();
  auto cfg = quick_config(np, 1, core::ProtocolKind::Native);
  cfg.coll = tuning;
  auto res = core::run(cfg, [](mpi::Env& env) {
    auto& w = env.world();
    const int n = w.size();
    const int r = env.rank();

    // bcast: short (40 B, segments smaller than some ranks' share) and
    // long (100 KB, past the Auto threshold) from every root.
    for (const int root : {0, n - 1}) {
      std::vector<double> small(5, r == root ? 3.5 + root : 0.0);
      w.bcast(std::span<double>(small), root);
      for (double v : small) EXPECT_DOUBLE_EQ(v, 3.5 + root);
      std::vector<std::int64_t> big(12800);
      if (r == root) {
        for (std::size_t i = 0; i < big.size(); ++i) {
          big[i] = root * 1000 + static_cast<std::int64_t>(i);
        }
      }
      w.bcast(std::span<std::int64_t>(big), root);
      for (std::size_t i = 0; i < big.size(); i += 997) {
        EXPECT_EQ(big[i], root * 1000 + static_cast<std::int64_t>(i));
      }
    }

    // allreduce: exact for integers (any combine order), tolerance for
    // doubles; a 1-element vector also exercises the Rabenseifner
    // count < pof2 fallback.
    const std::int64_t isum = w.allreduce_value<std::int64_t>(1LL << r,
                                                              mpi::Op::Bor);
    EXPECT_EQ(isum, (1LL << n) - 1);
    const double dsum = w.allreduce_value(0.5 + r, mpi::Op::Sum);
    EXPECT_NEAR(dsum, 0.5 * n + n * (n - 1) / 2.0, 1e-9);
    std::vector<std::int64_t> vec(300, r + 1);
    std::vector<std::int64_t> vout(300);
    w.allreduce(std::span<const std::int64_t>(vec),
                std::span<std::int64_t>(vout), mpi::Op::Sum);
    for (auto v : vout) EXPECT_EQ(v, n * (n + 1) / 2);
    EXPECT_EQ(w.allreduce_value<std::int64_t>(r, mpi::Op::Max), n - 1);

    // allreduce_payload over a materialized payload of integer-valued
    // doubles: each combine writes op(a, b) into a fresh slab, so the sum
    // is exact and the caller's input keeps its bytes and digest.
    // Rabenseifner's kept half views a slab whose other half is still in
    // flight, so a combine that wrote into an operand would corrupt both.
    // 4099 elements give ragged Rabenseifner segments.
    constexpr std::size_t kCount = 4099;
    std::vector<double> in(kCount);
    for (std::size_t i = 0; i < kCount; ++i) {
      in[i] = static_cast<double>((r + 1) * (i % 13 + 1));
    }
    std::byte* data = nullptr;
    const net::Payload pin = w.fresh_payload(kCount * sizeof(double), data);
    std::memcpy(data, in.data(), kCount * sizeof(double));
    const std::uint64_t before = pin.digest();
    const net::Payload pout = w.allreduce_payload(
        pin, sizeof(double), mpi::reduce_fn<double>(mpi::Op::Sum));
    ASSERT_EQ(pout.size(), pin.size());
    std::vector<double> got(kCount);
    pout.copy_to(reinterpret_cast<std::byte*>(got.data()));
    const double ranks = n * (n + 1) / 2.0;
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(got[i], ranks * static_cast<double>(i % 13 + 1)) << "i=" << i;
    }
    EXPECT_EQ(pin.digest(), before);
    EXPECT_EQ(util::fnv1a(pin.bytes()), before) << "input overwritten";
    EXPECT_EQ(std::memcmp(pin.data(), in.data(), kCount * sizeof(double)), 0);

    // allgather: per-rank blocks of 3 values.
    std::vector<std::int64_t> mine{r, 10 * r, 100 * r};
    std::vector<std::int64_t> all(static_cast<std::size_t>(3 * n));
    w.allgather(std::span<const std::int64_t>(mine),
                std::span<std::int64_t>(all));
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(all[static_cast<std::size_t>(3 * i)], i);
      EXPECT_EQ(all[static_cast<std::size_t>(3 * i + 1)], 10 * i);
      EXPECT_EQ(all[static_cast<std::size_t>(3 * i + 2)], 100 * i);
    }

    // alltoall: distinct value per (src, dst) pair.
    std::vector<std::int64_t> sendv(static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d) {
      sendv[static_cast<std::size_t>(d)] = r * 1000 + d;
    }
    std::vector<std::int64_t> recvv(static_cast<std::size_t>(n));
    w.alltoall(std::span<const std::int64_t>(sendv),
               std::span<std::int64_t>(recvv));
    for (int s = 0; s < n; ++s) {
      EXPECT_EQ(recvv[static_cast<std::size_t>(s)], s * 1000 + r);
    }
  });
  ASSERT_TRUE(run_clean(res)) << name;
}

/// Symbolic vs materialized twins under the forced algorithm: identical
/// virtual time and identical content checksums. Checksums fold per-block
/// digests in rank order, so they must also agree with the naive
/// reference tuning point — pinned by CollChecksumsAreAlgorithmIndependent.
TEST_P(CollAlgorithmMatrix, SymbolicTwinMatchesMaterialized) {
  const auto& [name, tuning, np] = GetParam();
  auto coll_app = [](wl::PayloadMode mode) {
    return [mode](mpi::Env& env) {
      wl::SymColl c(env.world(), mode, /*seed=*/0x5eedc011ULL);
      util::Checksum cs;
      const int n = env.size();
      for (const std::size_t bytes : {std::size_t{48}, std::size_t{100000}}) {
        c.bcast(bytes, /*root=*/n - 1, /*tag=*/11, cs);
      }
      for (const std::size_t block : {std::size_t{96}, std::size_t{20000}}) {
        c.allgather(block, /*tag=*/22, cs);
        c.alltoall(block, /*tag=*/33, cs);
      }
      // 12 B is not a whole number of doubles: the 4 B tail must match
      // the symbolic twin's zeros too.
      for (const std::size_t bytes :
           {std::size_t{8}, std::size_t{12}, std::size_t{4096}}) {
        c.allreduce_zeros(bytes, cs);
      }
      env.report_checksum(cs.digest());
    };
  };
  auto cfg = quick_config(np, 1, core::ProtocolKind::Native);
  cfg.coll = tuning;
  auto sym = core::run(cfg, coll_app(wl::PayloadMode::Symbolic));
  auto mat = core::run(cfg, coll_app(wl::PayloadMode::Materialized));
  ASSERT_TRUE(run_clean(sym)) << name;
  ASSERT_TRUE(run_clean(mat)) << name;
  EXPECT_EQ(sym.makespan, mat.makespan) << name;
  EXPECT_EQ(sym.data_frames, mat.data_frames) << name;
  EXPECT_EQ(sym.fabric.payload_bytes, mat.fabric.payload_bytes) << name;
  ASSERT_EQ(sym.slots.size(), mat.slots.size());
  for (std::size_t i = 0; i < sym.slots.size(); ++i) {
    EXPECT_EQ(sym.slots[i].checksum, mat.slots[i].checksum)
        << name << " slot " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CollAlgorithmMatrix,
    ::testing::ValuesIn([] {
      std::vector<MatrixCase> cases;
      for (const auto& [name, tuning] : tuning_matrix()) {
        for (const int np : {3, 5, 7, 8}) {
          cases.push_back({name + "_np" + std::to_string(np), tuning, np});
        }
      }
      return cases;
    }()),
    [](const auto& info) { return info.param.name; });

/// Content checksums are a pure function of the traffic contents, not of
/// the algorithm: every tuning point must report the same checksums as the
/// naive reference shapes (this is the matrix's cross-algorithm oracle).
TEST(CollAlgorithmMatrixOracle, CollChecksumsAreAlgorithmIndependent) {
  for (const int np : {3, 5, 7}) {
    std::vector<std::uint64_t> reference;
    for (const auto& [name, tuning] : tuning_matrix()) {
      auto cfg = quick_config(np, 1, core::ProtocolKind::Native);
      cfg.coll = tuning;
      auto res = core::run(cfg, test::small_workload("coll"));
      ASSERT_TRUE(run_clean(res)) << name << " np" << np;
      std::vector<std::uint64_t> sums;
      for (const auto& s : res.slots) sums.push_back(s.checksum);
      if (reference.empty()) {
        reference = sums;  // index 0 = the naive reference shapes
      } else {
        EXPECT_EQ(sums, reference) << name << " np" << np;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// One payload per collective: a 64-rank allgather or alltoall returns the
// blocks joined in rank order. With the skeletons' content convention (one
// block everywhere) a symbolic result is one O(1) Tile; with distinct
// blocks, or one rank's blocks differing from the rest, every block lands
// in its place. Either way the block digests equal the materialized twin's.
// ---------------------------------------------------------------------------

enum class Blocks { Same, Distinct, OneRankDiffers };

struct JoinedCase {
  std::string name;
  mpi::CollTuning tuning;
  bool alltoall;
  Blocks blocks;  ///< Same: the skeletons' content convention
};

class JoinedResult : public ::testing::TestWithParam<JoinedCase> {};

TEST_P(JoinedResult, SymbolicIsOneDescriptorWithTheMaterializedBlocks) {
  const auto& [name, tuning, alltoall, blocks] = GetParam();
  constexpr int kRanks = 64;
  constexpr std::size_t kBlock = 96;
  constexpr std::uint64_t kSeed = 0x10ad5eedULL;
  // Stream offset of the block rank `src` sends rank `dst`. Distinct blocks
  // are laid out so that every rank's result is one contiguous stream.
  const auto offset_of = [&](std::size_t src, std::size_t dst) {
    switch (blocks) {
      case Blocks::Same:
        break;
      case Blocks::Distinct:
        return static_cast<std::uint64_t>(alltoall ? dst * kRanks + src
                                                   : src) *
               kBlock;
      case Blocks::OneRankDiffers:
        return std::uint64_t{src == 1 ? kBlock : 0};
    }
    return std::uint64_t{0};
  };
  // digests[symbolic][rank * kRanks + block]
  std::vector<std::uint64_t> digests[2];
  for (const bool symbolic : {false, true}) {
    auto& out = digests[symbolic ? 1 : 0];
    out.assign(kRanks * kRanks, 0);
    auto cfg = quick_config(kRanks, 1, core::ProtocolKind::Native);
    cfg.coll = tuning;
    auto res = core::run(cfg, [&, symbolic](mpi::Env& env) {
      auto& w = env.world();
      const auto me = static_cast<std::size_t>(env.rank());
      const auto block = [&](std::uint64_t offset) {
        if (symbolic) {
          return w.symbolic_payload(
              net::ContentDesc::pattern_at(kSeed, kBlock, offset));
        }
        std::byte* data = nullptr;
        net::Payload p = w.fresh_payload(kBlock, data);
        net::fill_pattern(kSeed, offset, kBlock, data);
        return p;
      };
      net::Payload result;
      if (alltoall) {
        net::Payload send;
        for (std::size_t dst = 0; dst < kRanks; ++dst) {
          const net::Payload parts[2] = {send, block(offset_of(me, dst))};
          send = net::Payload::concat_payloads(w.payload_pool(), parts);
        }
        result = w.alltoall_payload(send);
      } else {
        result = w.allgather_payload(block(offset_of(me, 0)));
      }
      ASSERT_EQ(result.size(), kRanks * kBlock);
      if (symbolic && blocks == Blocks::Same) {
        EXPECT_EQ(result.desc().kind, net::ContentKind::Tile) << "rank " << me;
      }
      for (std::size_t i = 0; i < kRanks; ++i) {
        out[me * kRanks + i] =
            net::Payload::slice(w.payload_pool(), result, i * kBlock, kBlock)
                .digest();
      }
    });
    ASSERT_TRUE(run_clean(res)) << name;
  }
  EXPECT_EQ(digests[1], digests[0]) << name;
  std::vector<std::byte> bytes(kBlock);
  for (std::size_t dst = 0; dst < kRanks; ++dst) {
    for (std::size_t src = 0; src < kRanks; ++src) {
      net::fill_pattern(kSeed, offset_of(src, dst), kBlock, bytes.data());
      ASSERT_EQ(digests[0][dst * kRanks + src], util::fnv1a(bytes))
          << name << ": block " << src << " at rank " << dst;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, JoinedResult, ::testing::ValuesIn([] {
      std::vector<JoinedCase> cases;
      const auto add = [&cases](const std::string& name, mpi::CollTuning t,
                                bool alltoall) {
        cases.push_back({name + "_same", t, alltoall, Blocks::Same});
        cases.push_back({name + "_distinct", t, alltoall, Blocks::Distinct});
        cases.push_back(
            {name + "_one_rank_differs", t, alltoall, Blocks::OneRankDiffers});
      };
      for (const auto a : {mpi::AllgatherAlg::Ring, mpi::AllgatherAlg::Bruck}) {
        mpi::CollTuning t;
        t.allgather = a;
        add(a == mpi::AllgatherAlg::Ring ? "allgather_ring" : "allgather_bruck",
            t, false);
      }
      for (const auto a :
           {mpi::AlltoallAlg::Pairwise, mpi::AlltoallAlg::Bruck}) {
        mpi::CollTuning t;
        t.alltoall = a;
        add(a == mpi::AlltoallAlg::Pairwise ? "alltoall_pairwise"
                                            : "alltoall_bruck",
            t, true);
      }
      return cases;
    }()),
    [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// Argument validation (regression: the seed's alltoall never validated).
// ---------------------------------------------------------------------------

TEST(CollValidation, AlltoallRejectsNonDivisibleSend) {
  auto res = core::run(quick_config(3, 1, core::ProtocolKind::Native),
                       [](mpi::Env& env) {
                         std::vector<std::byte> send(10);  // 10 % 3 != 0
                         std::vector<std::byte> recv(10);
                         env.world().alltoall_bytes(send, recv);
                       });
  ASSERT_FALSE(res.errors.empty());
  EXPECT_NE(res.errors.front().find("not divisible"), std::string::npos)
      << res.errors.front();
}

TEST(CollValidation, AlltoallRejectsSmallRecv) {
  auto res = core::run(quick_config(3, 1, core::ProtocolKind::Native),
                       [](mpi::Env& env) {
                         std::vector<std::byte> send(12);
                         std::vector<std::byte> recv(8);  // needs 12
                         env.world().alltoall_bytes(send, recv);
                       });
  ASSERT_FALSE(res.errors.empty());
  EXPECT_NE(res.errors.front().find("recv buffer too small"),
            std::string::npos)
      << res.errors.front();
}

TEST(CollValidation, AlltoallvRejectsUndersizedBuffers) {
  auto res = core::run(
      quick_config(3, 1, core::ProtocolKind::Native), [](mpi::Env& env) {
        const std::vector<std::size_t> counts(3, 4);  // 12 bytes each way
        std::vector<std::byte> send(8);               // too small
        std::vector<std::byte> recv(12);
        env.world().alltoallv_bytes(send, counts, recv, counts);
      });
  ASSERT_FALSE(res.errors.empty());
  EXPECT_NE(res.errors.front().find("send buffer"), std::string::npos)
      << res.errors.front();

  auto res2 = core::run(
      quick_config(3, 1, core::ProtocolKind::Native), [](mpi::Env& env) {
        const std::vector<std::size_t> counts(3, 4);
        std::vector<std::byte> send(12);
        std::vector<std::byte> recv(8);  // too small
        env.world().alltoallv_bytes(send, counts, recv, counts);
      });
  ASSERT_FALSE(res2.errors.empty());
  EXPECT_NE(res2.errors.front().find("recv buffer"), std::string::npos)
      << res2.errors.front();
}

// Ranks that disagree on a bcast length must fail with a reason. With the
// scatter-allgather schedule the non-roots expect twice the bytes the root
// sends, so their received segments are short and the schedule's slices
// run past them — which used to read past the slab in release builds.
TEST(CollValidation, BcastWithMismatchedLengthsFailsWithAReason) {
  auto cfg = quick_config(4, 1, core::ProtocolKind::Native);
  cfg.coll.bcast = mpi::BcastAlg::ScatterAllgather;
  auto res = core::run(cfg, [](mpi::Env& env) {
    const std::size_t len = env.rank() == 0 ? 1024 : 2048;
    std::vector<std::byte> data(len, std::byte{0x7c});
    env.world().bcast_bytes(data, /*root=*/0);
  });
  ASSERT_FALSE(res.errors.empty());
  EXPECT_NE(res.errors.front().find("exceed the payload size"),
            std::string::npos)
      << res.errors.front();
}

// Ranks that disagree on a reduce length must fail with a reason: the
// root receives a short operand, and combining it used to read past its
// slab in release builds and report a clean run with a wrong result.
TEST(CollValidation, ReduceWithMismatchedLengthsFailsWithAReason) {
  auto res = core::run(
      quick_config(2, 1, core::ProtocolKind::Native), [](mpi::Env& env) {
        const std::size_t count = env.rank() == 0 ? 4096 : 16;
        std::vector<double> send(count, 1.0 + env.rank());
        std::vector<double> recv(count);
        env.world().reduce(std::span<const double>(send),
                           std::span<double>(recv), mpi::Op::Sum, /*root=*/0);
      });
  ASSERT_FALSE(res.errors.empty());
  EXPECT_NE(res.errors.front().find("operand lengths differ"),
            std::string::npos)
      << res.errors.front();
  EXPECT_NE(res.errors.front().find("32768 vs 128"), std::string::npos)
      << res.errors.front();
}

}  // namespace
}  // namespace sdrmpi
