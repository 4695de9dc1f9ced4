// Sweep-service tests: the content-addressed cache contract end to end.
//
//  - config_key: canonical serialization collides iff configs are == —
//    every RunConfig field moves the digest, equal configs byte-match.
//  - result_codec: decode(encode(r)) == r for every RunResult field.
//  - Pinned bytes: the canonical config, an encoded result and a store
//    file match fixed sizes and digests, so a reordered field list fails.
//  - ResultStore: persistence across reopen, torn-tail repair.
//  - SweepService: pool-size invariance (1 / 3 / 4 in-process pool
//    threads reproduce the run_many baseline bit-for-bit on a 50-point
//    fuzz sweep, each digest streamed once), dedupe-dispatches-once,
//    resume-after-kill (a pre-populated store means only missing digests
//    are simulated), and "config[i]: " error attribution.
//  - Remote backend: TCP worker fleets (1/2/3 workers over loopback,
//    the real run_worker loop in threads) reproduce the pool-1 baseline
//    bit-for-bit through mid-point worker kills, lease expiry with a
//    suppressed late twin, heartbeat-deadline death, last-worker death
//    (local degradation), an empty fleet, an exhausted re-dispatch
//    budget (hard error), a version-mismatch registration reject, and
//    one-point-per-pull scheduling across a fast+slow fleet.
//  - Auth: the self-contained SHA-256/HMAC against the FIPS / RFC 4231
//    vectors, and the registration challenge end to end (wrong secret,
//    missing secret, worker refusing an unauthenticated coordinator,
//    authenticated fleet bit-identical to the baseline).
//  - Handshake fuzz: truncated / oversized / bit-flipped registration
//    frames against a live coordinator (which must keep serving), a
//    stalled Hello prefix (which must not block later registrations),
//    and a hostile coordinator against run_worker (which must throw
//    cleanly, or end a session whose Dispatch claims more bytes than its
//    frame holds without allocating the claim).
//  - Supervisor: the restart policy unit-level, plus a SIGKILLed
//    supervised worker whose replacement finishes the sweep and a spent
//    restart budget degrading to local fallback.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "sdrmpi/sweep/auth.hpp"
#include "sdrmpi/sweep/config_key.hpp"
#include "sdrmpi/sweep/frame_io.hpp"
#include "sdrmpi/sweep/remote.hpp"
#include "sdrmpi/sweep/result_codec.hpp"
#include "sdrmpi/sweep/supervise.hpp"
#include "sdrmpi/sweep/transport.hpp"
#include "sdrmpi/util/alloc_counter.hpp"
#include "sdrmpi/util/hash.hpp"
#include "sdrmpi/util/rng.hpp"
#include "test_support.hpp"

namespace sdrmpi {
namespace {

// ------------------------------------------------------------- config_key

struct Mutation {
  const char* field;
  std::function<void(core::RunConfig&)> apply;
};

/// One mutation per RunConfig field (including every nested NetParams,
/// TopologySpec and CollTuning knob): the collide-iff-== contract says each
/// must flip the digest.
std::vector<Mutation> all_field_mutations() {
  using core::RunConfig;
  return {
      {"nranks", [](RunConfig& c) { c.nranks = 5; }},
      {"replication", [](RunConfig& c) { c.replication = 3; }},
      {"protocol",
       [](RunConfig& c) { c.protocol = core::ProtocolKind::Mirror; }},
      {"net.o_send_ns", [](RunConfig& c) { c.net.o_send_ns += 1.0; }},
      {"net.o_recv_ns", [](RunConfig& c) { c.net.o_recv_ns += 1.0; }},
      {"net.latency_ns", [](RunConfig& c) { c.net.latency_ns += 1.0; }},
      {"net.ns_per_byte", [](RunConfig& c) { c.net.ns_per_byte += 0.25; }},
      {"net.eager_threshold", [](RunConfig& c) { c.net.eager_threshold *= 2; }},
      {"topology.kind",
       [](RunConfig& c) { c.net.topology.kind = net::TopologyKind::FatTree; }},
      {"topology.placement",
       [](RunConfig& c) {
         c.net.topology.placement = net::PlacementPolicy::PackRanks;
       }},
      {"topology.ranks_per_node",
       [](RunConfig& c) { c.net.topology.ranks_per_node = 4; }},
      {"topology.nodes_per_switch",
       [](RunConfig& c) { c.net.topology.nodes_per_switch = 16; }},
      {"topology.oversubscription",
       [](RunConfig& c) { c.net.topology.oversubscription = 2.0; }},
      {"topology.link_ns_per_byte",
       [](RunConfig& c) { c.net.topology.link_ns_per_byte = 0.75; }},
      {"topology.intra_node_latency_ns",
       [](RunConfig& c) { c.net.topology.intra_node_latency_ns = 200.0; }},
      {"topology.inter_switch_latency_ns",
       [](RunConfig& c) { c.net.topology.inter_switch_latency_ns = 1900.0; }},
      {"coll.bcast",
       [](RunConfig& c) { c.coll.bcast = mpi::BcastAlg::Binomial; }},
      {"coll.allreduce",
       [](RunConfig& c) {
         c.coll.allreduce = mpi::AllreduceAlg::Rabenseifner;
       }},
      {"coll.allgather",
       [](RunConfig& c) { c.coll.allgather = mpi::AllgatherAlg::Ring; }},
      {"coll.alltoall",
       [](RunConfig& c) { c.coll.alltoall = mpi::AlltoallAlg::Bruck; }},
      {"coll.bcast_long_bytes",
       [](RunConfig& c) { c.coll.bcast_long_bytes *= 2; }},
      {"coll.allreduce_long_bytes",
       [](RunConfig& c) { c.coll.allreduce_long_bytes *= 2; }},
      {"coll.allgather_bruck_bytes",
       [](RunConfig& c) { c.coll.allgather_bruck_bytes *= 2; }},
      {"coll.alltoall_bruck_bytes",
       [](RunConfig& c) { c.coll.alltoall_bruck_bytes *= 2; }},
      {"faults(empty->one)",
       [](RunConfig& c) {
         c.faults.push_back({.slot = 2, .at_time = -1, .at_send = 3});
       }},
      {"faults.slot",
       [](RunConfig& c) {
         c.faults.push_back({.slot = 3, .at_time = -1, .at_send = 3});
       }},
      {"faults.at_time",
       [](RunConfig& c) {
         c.faults.push_back({.slot = 2, .at_time = 777, .at_send = 3});
       }},
      {"faults.at_send",
       [](RunConfig& c) {
         c.faults.push_back({.slot = 2, .at_time = -1, .at_send = 4});
       }},
      {"sdc(empty->one)",
       [](RunConfig& c) { c.sdc.push_back({.slot = 1, .at_send = 2}); }},
      {"sdc.slot",
       [](RunConfig& c) { c.sdc.push_back({.slot = 2, .at_send = 2}); }},
      {"sdc.at_send",
       [](RunConfig& c) { c.sdc.push_back({.slot = 1, .at_send = 3}); }},
      {"ckpt.interval",
       [](RunConfig& c) { c.ckpt.interval = timeunits::milliseconds(10.0); }},
      {"ckpt.checkpoint_cost",
       [](RunConfig& c) { c.ckpt.checkpoint_cost += 1000; }},
      {"ckpt.restart_cost", [](RunConfig& c) { c.ckpt.restart_cost += 1000; }},
      {"auto_recover", [](RunConfig& c) { c.auto_recover = true; }},
      {"ack_on_wait", [](RunConfig& c) { c.ack_on_wait = true; }},
      {"eager_copy_completion",
       [](RunConfig& c) { c.eager_copy_completion = true; }},
      {"time_limit", [](RunConfig& c) { c.time_limit += 1000; }},
      {"seed", [](RunConfig& c) { c.seed ^= 0x1; }},
  };
}

TEST(ConfigKey, EqualConfigsSerializeAndDigestIdentically) {
  auto make = [] {
    core::RunConfig cfg = test::quick_config(3, 2, core::ProtocolKind::Sdr);
    cfg.faults.push_back({.slot = 4, .at_time = -1, .at_send = 2});
    cfg.net.topology = net::TopologySpec::fat_tree();
    return cfg;
  };
  const core::RunConfig a = make();
  const core::RunConfig b = make();
  ASSERT_EQ(a, b);
  EXPECT_EQ(sweep::serialize_config(a), sweep::serialize_config(b));
  EXPECT_EQ(sweep::config_key(a), sweep::config_key(b));
}

TEST(ConfigKey, EveryFieldMovesTheDigest) {
  const core::RunConfig base;  // all defaults
  const auto base_bytes = sweep::serialize_config(base);
  const auto base_key = sweep::config_key(base);

  std::vector<std::uint64_t> keys{base_key};
  std::vector<std::string> names{"base"};
  for (const Mutation& m : all_field_mutations()) {
    core::RunConfig mutated = base;
    m.apply(mutated);
    ASSERT_NE(mutated, base) << m.field << ": mutation was a no-op";
    EXPECT_NE(sweep::serialize_config(mutated), base_bytes)
        << m.field << " not covered by the canonical serialization";
    EXPECT_NE(sweep::config_key(mutated), base_key) << m.field;
    keys.push_back(sweep::config_key(mutated));
    names.push_back(m.field);
  }
  // No accidental collisions among the whole mutant family either.
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t j = i + 1; j < keys.size(); ++j) {
      EXPECT_NE(keys[i], keys[j])
          << names[i] << " collides with " << names[j];
    }
  }
}

TEST(ConfigKey, VersionByteLeadsTheSerialization) {
  // Format changes must invalidate old stores: the version byte is folded
  // into every digest via byte 0 of the canonical serialization.
  const auto bytes = sweep::serialize_config(core::RunConfig{});
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(std::to_integer<std::uint8_t>(bytes[0]), sweep::kConfigKeyVersion);
}

/// A RunConfig with every field away from its default: each mutation of
/// all_field_mutations() applied in turn (so 4 faults and 3 SDC specs).
core::RunConfig fully_populated_config() {
  core::RunConfig c;
  for (const Mutation& m : all_field_mutations()) m.apply(c);
  return c;
}

TEST(ConfigKey, CanonicalBytesArePinned) {
  // Round trips cannot see a reordered field list: both directions move
  // together. These pins can. Change them only with a kConfigKeyVersion
  // bump, since every stored digest moves with them.
  const auto def = sweep::serialize_config(core::RunConfig{});
  EXPECT_EQ(def.size(), 179u);
  EXPECT_EQ(util::fnv1a(def), 0xfe96824692902c14ULL);
  const auto full = sweep::serialize_config(fully_populated_config());
  EXPECT_EQ(full.size(), 295u);
  EXPECT_EQ(util::fnv1a(full), 0x125e9cfb7384b7b3ULL);
}

// ------------------------------------------------------------ result_codec

/// A RunResult with every field (and nested struct) away from its default.
core::RunResult fully_populated_result() {
  core::RunResult r;
  r.deadlock = true;
  r.time_limit_hit = true;
  r.rank_lost = true;
  r.errors = {"first error", "second\nerror"};
  r.makespan = 123456789;
  for (int s = 0; s < 3; ++s) {
    core::SlotResult slot;
    slot.slot = s;
    slot.rank = s % 2;
    slot.world = s / 2;
    slot.final_state = s == 2 ? "Crashed" : "Finished";
    slot.finish_time = 1000 + s;
    slot.checksum = 0xdeadbeefULL + static_cast<std::uint64_t>(s);
    slot.reported_checksum = s != 2;
    slot.values["mbps"] = 1234.5 + s;
    slot.values["iters"] = 17;
    r.slots.push_back(slot);
  }
  r.app_sends = 11;
  r.data_frames = 22;
  r.ctl_frames = 33;
  r.unexpected = 44;
  r.duplicates_dropped = 55;
  r.events_executed = 66;
  r.context_switches = 77;
  r.bytes_copied = 88;
  r.bytes_hashed = 99;
  r.protocol = {.acks_sent = 1,
                .acks_received = 2,
                .stale_acks = 3,
                .resends = 4,
                .decisions_sent = 5,
                .decisions_used = 6,
                .hashes_sent = 7,
                .hashes_compared = 8,
                .sdc_detected = 9,
                .failures_observed = 10,
                .recoveries = 11,
                .extra_copies = 12,
                .checkpoints_taken = 13,
                .restarts = 14,
                .rework_ns = 15};
  r.fabric = {.frames_sent = 13,
              .payload_bytes = 14,
              .frames_dropped_dead_dst = 15,
              .intra_node_frames = 16,
              .intra_switch_frames = 17,
              .inter_switch_frames = 18,
              .link_stalls = 19,
              .link_stall_ns = 20,
              .link_busy_ns = 21};
  r.mem = {.stack_bytes_reserved = 101,
           .stack_bytes_peak = 102,
           .stack_depth_peak = 103,
           .endpoint_bytes = 104,
           .fabric_bytes = 105,
           .payload_slab_bytes = 106};
  return r;
}

TEST(ResultCodec, RoundTripsEveryField) {
  const core::RunResult r = fully_populated_result();
  const auto bytes = sweep::encode_result(r);
  const core::RunResult back = sweep::decode_result(bytes);
  EXPECT_EQ(back, r);  // field-wise via RunResult::operator==

  // operator== deliberately ignores MemStats (host-side, not simulated
  // outcome), so pin its round trip field by field.
  EXPECT_EQ(back.mem.stack_bytes_reserved, r.mem.stack_bytes_reserved);
  EXPECT_EQ(back.mem.stack_bytes_peak, r.mem.stack_bytes_peak);
  EXPECT_EQ(back.mem.stack_depth_peak, r.mem.stack_depth_peak);
  EXPECT_EQ(back.mem.endpoint_bytes, r.mem.endpoint_bytes);
  EXPECT_EQ(back.mem.fabric_bytes, r.mem.fabric_bytes);
  EXPECT_EQ(back.mem.payload_slab_bytes, r.mem.payload_slab_bytes);

  // Defaults round-trip too (empty vectors, zero counters).
  const core::RunResult empty;
  EXPECT_EQ(sweep::decode_result(sweep::encode_result(empty)), empty);
}

TEST(ResultCodec, RoundTripsRealRunOutput) {
  auto res = core::run(test::quick_config(3, 2, core::ProtocolKind::Sdr),
                       test::small_workload("cg"));
  ASSERT_TRUE(test::run_clean(res));
  EXPECT_EQ(sweep::decode_result(sweep::encode_result(res)), res);
}

TEST(ResultCodec, RejectsTruncationAndVersionMismatch) {
  auto bytes = sweep::encode_result(fully_populated_result());
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, bytes.size() - 1}) {
    const std::vector<std::byte> truncated(bytes.begin(),
                                           bytes.begin() +
                                               static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW({ auto r = sweep::decode_result(truncated); },
                 sweep::CodecError)
        << "cut at " << cut;
  }
  bytes[0] ^= std::byte{0xff};  // corrupt the version tag
  EXPECT_THROW({ auto r = sweep::decode_result(bytes); }, sweep::CodecError);
}

TEST(ResultCodec, EncodedBytesArePinned) {
  // As ConfigKey.CanonicalBytesArePinned: a reordered field list still
  // round-trips, but moves these. Change them only with a
  // kResultCodecVersion bump.
  const auto full = sweep::encode_result(fully_populated_result());
  EXPECT_EQ(full.size(), 599u);
  EXPECT_EQ(util::fnv1a(full), 0xed8188f4051cf12cULL);
}

// ------------------------------------------------------------- ResultStore

class StoreFile {
 public:
  explicit StoreFile(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("sdrmpi_" + name + ".store"))
                  .string()) {
    std::filesystem::remove(path_);
  }
  ~StoreFile() { std::filesystem::remove(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(ResultStore, PersistsAcrossReopen) {
  StoreFile f("persist");
  const core::RunResult r = fully_populated_result();
  {
    sweep::ResultStore store(f.path());
    EXPECT_TRUE(store.persistent());
    EXPECT_EQ(store.loaded(), 0u);
    store.put(1, r);
    store.put(2, core::RunResult{});
    store.put(1, core::RunResult{});  // duplicate digest: ignored
    EXPECT_EQ(store.size(), 2u);
  }
  sweep::ResultStore store(f.path());
  EXPECT_EQ(store.loaded(), 2u);
  ASSERT_TRUE(store.contains(1));
  ASSERT_TRUE(store.contains(2));
  EXPECT_EQ(*store.lookup(1), r);  // first put won
  EXPECT_EQ(*store.lookup(2), core::RunResult{});
  EXPECT_FALSE(store.lookup(3).has_value());
}

TEST(ResultStore, RepairsTornTailRecord) {
  StoreFile f("torn");
  {
    sweep::ResultStore store(f.path());
    for (std::uint64_t d = 1; d <= 3; ++d) {
      store.put(d, fully_populated_result());
    }
  }
  const auto intact_size = std::filesystem::file_size(f.path());
  {
    // Simulate a crash mid-append: half a record of garbage at the tail.
    std::FILE* file = std::fopen(f.path().c_str(), "ab");
    ASSERT_NE(file, nullptr);
    const unsigned char garbage[13] = {0xff, 0x01, 0xfe, 0x02};
    std::fwrite(garbage, 1, sizeof garbage, file);
    std::fclose(file);
  }
  ASSERT_GT(std::filesystem::file_size(f.path()), intact_size);
  {
    sweep::ResultStore store(f.path());
    EXPECT_EQ(store.loaded(), 3u);  // intact prefix survives
    EXPECT_TRUE(store.contains(1));
    EXPECT_TRUE(store.contains(3));
  }
  // The torn tail was truncated away, not just skipped.
  EXPECT_EQ(std::filesystem::file_size(f.path()), intact_size);
  {
    sweep::ResultStore store(f.path());
    store.put(4, core::RunResult{});  // appends after the repaired tail
  }
  sweep::ResultStore store(f.path());
  EXPECT_EQ(store.loaded(), 4u);
  EXPECT_EQ(*store.lookup(4), core::RunResult{});
}

TEST(ResultStore, OversizedRecordLengthIsATornTail) {
  // A tail record header whose length claims ~4 GiB: the store must cut it
  // as torn without allocating the claim.
  StoreFile f("oversized");
  {
    sweep::ResultStore store(f.path());
    store.put(1, fully_populated_result());
  }
  const auto intact_size = std::filesystem::file_size(f.path());
  {
    std::FILE* file = std::fopen(f.path().c_str(), "ab");
    ASSERT_NE(file, nullptr);
    unsigned char header[20] = {};
    for (int i = 8; i < 12; ++i) header[i] = 0xff;  // u32 length
    std::fwrite(header, 1, sizeof header, file);
    std::fclose(file);
  }
  const std::uint64_t before = util::alloc_bytes();
  {
    sweep::ResultStore store(f.path());
    EXPECT_EQ(store.loaded(), 1u);
  }
  if (util::alloc_counting_enabled()) {
    EXPECT_LT(util::alloc_bytes() - before, std::uint64_t{16} << 20);
  }
  EXPECT_EQ(std::filesystem::file_size(f.path()), intact_size);
}

TEST(ResultStore, FileBytesArePinned) {
  // The whole file: magic and version header, then one record (digest,
  // length, payload checksum, encoded result). Stores written by earlier
  // builds must keep opening, so these move only with kStoreVersion, or
  // with the kResultCodecVersion tag inside the encoded result (a record
  // of another codec version is dropped on open, never served).
  StoreFile f("pinned");
  {
    sweep::ResultStore store(f.path());
    store.put(0x0123456789abcdefULL, fully_populated_result());
  }
  std::vector<std::byte> file(std::filesystem::file_size(f.path()));
  std::FILE* in = std::fopen(f.path().c_str(), "rb");
  ASSERT_NE(in, nullptr);
  ASSERT_EQ(std::fread(file.data(), 1, file.size(), in), file.size());
  std::fclose(in);
  EXPECT_EQ(file.size(), 627u);
  EXPECT_EQ(util::fnv1a(file), 0xb2858af5772a6d42ULL);
}

TEST(ResultStore, SecondOpenOfBusyStoreFails) {
  StoreFile f("lock");
  {
    sweep::ResultStore first(f.path());
    first.put(1, fully_populated_result());
    // flock is per open file description, so a second instance conflicts
    // even within one process — exactly the two-concurrent-sweeps
    // corruption the lock exists to prevent.
    try {
      sweep::ResultStore second(f.path());
      FAIL() << "expected the second open to fail while the store is locked";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("busy"), std::string::npos)
          << "message was: " << e.what();
    }
    // The rejected open must not have disturbed the live store.
    first.put(2, core::RunResult{});
  }
  // Closing releases the lock; the store replays intact.
  sweep::ResultStore reopened(f.path());
  EXPECT_EQ(reopened.loaded(), 2u);
  EXPECT_EQ(*reopened.lookup(1), fully_populated_result());
}

TEST(ResultStore, InMemoryStoreIsNotPersistent) {
  sweep::ResultStore store;
  EXPECT_FALSE(store.persistent());
  store.put(9, core::RunResult{});
  EXPECT_TRUE(store.contains(9));
  EXPECT_EQ(store.loaded(), 0u);
}

// ------------------------------------------------------------ SweepService

/// 50 fuzzed configs (protocol x topology x tuning x faults x seed) with
/// small deterministic apps — the shard-layout invariance workload.
struct FuzzSweep {
  std::vector<core::RunConfig> configs;
  std::vector<core::AppFn> apps;
};

core::AppFn tiny_ring_app(int iters) {
  return [iters](mpi::Env& env) {
    auto& w = env.world();
    const int n = w.size();
    double acc = env.rank() + 1.0;
    for (int it = 0; it < iters; ++it) {
      auto sreq = w.isend(std::span<const double>(&acc, 1),
                          (env.rank() + 1) % n, 5);
      acc += w.recv_value<double>((env.rank() + n - 1) % n, 5);
      w.wait(sreq);
    }
    util::Checksum cs;
    cs.add_double(acc);
    env.report_checksum(cs.digest());
  };
}

core::AppFn tiny_funnel_app(int msgs) {
  return [msgs](mpi::Env& env) {
    auto& w = env.world();
    const int n = w.size();
    if (env.rank() == 0) {
      double acc = 0.0;
      for (int i = 0; i < (n - 1) * msgs; ++i) {
        acc += w.recv_value<double>(mpi::kAnySource, 3);
      }
      util::Checksum cs;
      cs.add_double(acc);
      env.report_checksum(cs.digest());
    } else {
      for (int i = 0; i < msgs; ++i) {
        w.send_value(env.rank() * 0.75 + i, 0, 3);
      }
      env.report_checksum(0x5eedULL);
    }
  };
}

FuzzSweep draw_sweep(int count) {
  util::Rng rng(0xca5cadeULL);
  const core::ProtocolKind kinds[] = {
      core::ProtocolKind::Native, core::ProtocolKind::Sdr,
      core::ProtocolKind::Mirror, core::ProtocolKind::Leader,
      core::ProtocolKind::RedMpiSd};
  FuzzSweep s;
  for (int i = 0; i < count; ++i) {
    core::RunConfig cfg;
    const auto proto = kinds[rng.below(5)];
    cfg.protocol = proto;
    cfg.replication = proto == core::ProtocolKind::Native ? 1 : 2;
    cfg.nranks = static_cast<int>(2 + rng.below(3));
    if (rng.below(3) == 0) {
      cfg.net.topology = net::TopologySpec::fat_tree(
          static_cast<int>(1 + rng.below(3)), 2, 2.0);
    }
    if (rng.below(4) == 0) {
      cfg.coll.allreduce_long_bytes = 1u << (4 + rng.below(8));
    }
    cfg.seed = rng();
    cfg.time_limit = timeunits::seconds(30.0);
    if (proto == core::ProtocolKind::Sdr && rng.below(4) == 0) {
      cfg.faults.push_back(
          {.slot = cfg.nranks + static_cast<int>(rng.below(cfg.nranks)),
           .at_time = -1,
           .at_send = static_cast<std::int64_t>(1 + rng.below(4))});
    }
    s.configs.push_back(cfg);
    s.apps.push_back(rng.below(2) == 0
                         ? tiny_ring_app(static_cast<int>(2 + rng.below(4)))
                         : tiny_funnel_app(static_cast<int>(2 + rng.below(4))));
  }
  return s;
}

TEST(SweepService, ShardLayoutNeverChangesResults) {
  const FuzzSweep s = draw_sweep(50);
  auto factory = [&s](const core::RunConfig&, std::size_t i) {
    return s.apps[i];
  };
  const auto baseline = core::run_many(s.configs, factory, {.threads = 4});

  for (const int workers : {1, 3, 4}) {
    sweep::SweepService service({.workers = workers});
    std::unordered_map<std::uint64_t, int> streamed;
    const auto runs =
        service.run(s.configs, factory, [&](const sweep::PointOutcome& out) {
          EXPECT_FALSE(out.cached) << "workers=" << workers;
          ++streamed[out.digest];
        });
    ASSERT_EQ(runs.size(), baseline.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i], baseline[i])
          << "config " << i << " diverged (workers=" << workers << ")";
    }
    EXPECT_LE(service.stats().max_dispatches_per_digest, 1u);
    // Each unique digest streams exactly once, fresh.
    EXPECT_EQ(streamed.size(), service.stats().unique_points);
    for (const auto& [digest, count] : streamed) {
      EXPECT_EQ(count, 1) << "digest " << digest << " streamed " << count
                          << " times (workers=" << workers << ")";
    }
  }
}

TEST(SweepService, DedupeDispatchesEachDigestOnce) {
  FuzzSweep s = draw_sweep(10);
  // Duplicate the whole sweep three times over: 40 points, 10 digests.
  const std::size_t unique = s.configs.size();
  for (int copy = 0; copy < 3; ++copy) {
    for (std::size_t i = 0; i < unique; ++i) {
      s.configs.push_back(s.configs[i]);
      s.apps.push_back(s.apps[i]);
    }
  }
  std::vector<std::size_t> factory_calls;
  auto factory = [&s, &factory_calls](const core::RunConfig&, std::size_t i) {
    factory_calls.push_back(i);
    return s.apps[i];
  };
  sweep::SweepService service({.workers = 4});
  const auto runs = service.run(s.configs, factory);

  const auto& st = service.stats();
  EXPECT_EQ(st.points, 4 * unique);
  EXPECT_EQ(st.unique_points, unique);
  EXPECT_EQ(st.duplicates, 3 * unique);
  EXPECT_EQ(st.dispatched, unique);
  EXPECT_EQ(st.max_dispatches_per_digest, 1u);
  // Apps were built only for the first occurrences, in ascending order.
  ASSERT_EQ(factory_calls.size(), unique);
  for (std::size_t i = 0; i < unique; ++i) EXPECT_EQ(factory_calls[i], i);
  // Duplicates share the first occurrence's result bit-for-bit.
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i], runs[i % unique]) << "duplicate " << i;
  }
}

TEST(ConfigKey, AppSpecSaltsTheDigest) {
  core::RunConfig cfg;
  cfg.nranks = 4;
  // Empty spec is the identity: single-app sweeps keep their digests.
  EXPECT_EQ(sweep::config_key(cfg, ""), sweep::config_key(cfg));
  EXPECT_NE(sweep::config_key(cfg, "cg"), sweep::config_key(cfg));
  EXPECT_NE(sweep::config_key(cfg, "cg"), sweep::config_key(cfg, "ft"));
  EXPECT_EQ(sweep::config_key(cfg, "cg"), sweep::config_key(cfg, "cg"));
}

TEST(SweepService, SpecKeepsSameConfigDifferentAppsApart) {
  // Two points with byte-identical configs running different programs are
  // different experiments. With the spec callback installed the service
  // simulates both; without it, config-only digests collapse them onto
  // one simulation (sound only when every point runs the same app).
  core::RunConfig cfg;
  cfg.nranks = 3;
  cfg.time_limit = timeunits::seconds(30.0);
  const std::vector<core::RunConfig> configs = {cfg, cfg};
  std::vector<core::AppFn> apps = {tiny_ring_app(3), tiny_funnel_app(2)};
  auto factory = [&apps](const core::RunConfig&, std::size_t i) {
    return apps[i];
  };

  sweep::ServiceOptions opts;
  opts.workers = 1;
  opts.spec = [](const core::RunConfig&, std::size_t i) {
    return std::string(i == 0 ? "ring" : "funnel");
  };
  sweep::SweepService salted(std::move(opts));
  const auto runs = salted.run(configs, factory);
  EXPECT_EQ(salted.stats().unique_points, 2u);
  EXPECT_EQ(salted.stats().dispatched, 2u);
  EXPECT_NE(runs[0], runs[1]) << "both programs must actually have run";

  sweep::SweepService unsalted({.workers = 1});
  const auto collapsed = unsalted.run(configs, factory);
  EXPECT_EQ(unsalted.stats().unique_points, 1u);
  EXPECT_EQ(collapsed[0], collapsed[1]);
}

TEST(SweepService, ResumeCompletesOnlyMissingDigests) {
  StoreFile f("resume");
  const FuzzSweep s = draw_sweep(50);
  auto factory = [&s](const core::RunConfig&, std::size_t i) {
    return s.apps[i];
  };

  // A "killed" sweep that only got through the first 20 points.
  std::vector<core::RunConfig> prefix(s.configs.begin(),
                                      s.configs.begin() + 20);
  std::size_t prefix_unique = 0;
  {
    sweep::SweepService service({.workers = 2, .cache_path = f.path()});
    auto partial = service.run(prefix, factory);
    prefix_unique = service.stats().unique_points;
    EXPECT_EQ(service.store().size(), prefix_unique);
  }

  // The resumed sweep simulates exactly the digests the store is missing.
  sweep::SweepService service({.workers = 2, .cache_path = f.path()});
  EXPECT_EQ(service.store().loaded(), prefix_unique);
  const auto runs = service.run(s.configs, factory);
  const auto& st = service.stats();
  EXPECT_EQ(st.cache_hits, prefix_unique);
  EXPECT_EQ(st.dispatched, st.unique_points - prefix_unique);
  ASSERT_GT(st.dispatched, 0u);  // the resume actually had work to do

  // And the cached-plus-fresh mix equals a from-scratch baseline.
  const auto baseline = core::run_many(s.configs, factory, {.threads = 4});
  ASSERT_EQ(runs.size(), baseline.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i], baseline[i]) << "config " << i;
  }
}

TEST(SweepService, CachedRerunStreamsEveryPointAsCached) {
  StoreFile f("warm");
  const FuzzSweep s = draw_sweep(12);
  auto factory = [&s](const core::RunConfig&, std::size_t i) {
    return s.apps[i];
  };
  {
    sweep::SweepService cold({.workers = 2, .cache_path = f.path()});
    auto first = cold.run(s.configs, factory);
  }
  sweep::SweepService warm({.workers = 2, .cache_path = f.path()});
  std::size_t streamed = 0, streamed_cached = 0;
  auto runs = warm.run(s.configs, factory,
                       [&](const sweep::PointOutcome& out) {
                         ++streamed;
                         if (out.cached) ++streamed_cached;
                         EXPECT_NE(out.result, nullptr);
                       });
  EXPECT_EQ(warm.stats().dispatched, 0u);
  EXPECT_EQ(warm.stats().cache_hits, warm.stats().unique_points);
  EXPECT_EQ(streamed, warm.stats().unique_points);
  EXPECT_EQ(streamed_cached, streamed);
}

TEST(SweepService, ErrorNamesTheFailingInputIndex) {
  FuzzSweep s = draw_sweep(6);
  s.configs[4].nranks = 0;  // invalid: run() rejects it
  auto factory = [&s](const core::RunConfig&, std::size_t i) {
    return s.apps[i];
  };
  sweep::SweepService service({.workers = 2});
  try {
    auto runs = service.run(s.configs, factory);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("config[4]: ", 0), 0u)
        << "message was: " << e.what();
  }
}

// ------------------------------------------------------- worker hardening

TEST(WorkerFrames, OversizedPayloadBecomesRuntimeErrorFrame) {
  // A payload longer than the u32 length field used to be cast down
  // silently, tearing the stream for every following frame. It must now
  // surface as an explicit runtime-error frame for the same point id.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::size_t oversized = sweep::frame::kMaxFramePayload + 1;
  // The payload pointer is never dereferenced on the reject path.
  EXPECT_TRUE(sweep::frame::write_frame(fds[1], sweep::frame::kFrameResult,
                                        42, nullptr, oversized));
  sweep::frame::FrameHeader h;
  ASSERT_TRUE(sweep::frame::read_frame_header(fds[0], h));
  EXPECT_EQ(h.kind, sweep::frame::kFrameRuntimeError);
  EXPECT_EQ(h.id, 42u);
  std::string msg(h.len, '\0');
  ASSERT_TRUE(sweep::frame::read_all(fds[0], msg.data(), msg.size()));
  EXPECT_NE(msg.find("exceeds"), std::string::npos) << "message: " << msg;
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(WorkerFrames, MaximumLengthHeaderRoundTrips) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::byte b{0x5a};
  // Header-only check: claim 1 byte, the largest-representable length
  // stays for the reject test above (we can't allocate 4 GiB here).
  EXPECT_TRUE(sweep::frame::write_frame(fds[1], sweep::frame::kFrameResult,
                                        0xfeedface12345678ULL, &b, 1));
  sweep::frame::FrameHeader h;
  ASSERT_TRUE(sweep::frame::read_frame_header(fds[0], h));
  EXPECT_EQ(h.kind, sweep::frame::kFrameResult);
  EXPECT_EQ(h.id, 0xfeedface12345678ULL);
  EXPECT_EQ(h.len, 1u);
  ::close(fds[0]);
  ::close(fds[1]);
}

// -------------------------------------------------- config wire round-trip

TEST(ConfigKey, DeserializeInvertsSerializeForEveryMutation) {
  // The remote protocol ships configs as canonical bytes; a dispatched
  // point must simulate from a RunConfig bit-identical to the
  // coordinator's, for every field the digest covers.
  const core::RunConfig base;
  EXPECT_EQ(sweep::deserialize_config(sweep::serialize_config(base)), base);
  for (const Mutation& m : all_field_mutations()) {
    core::RunConfig mutated = base;
    m.apply(mutated);
    const auto bytes = sweep::serialize_config(mutated);
    const core::RunConfig back = sweep::deserialize_config(bytes);
    EXPECT_EQ(back, mutated) << m.field;
    EXPECT_EQ(sweep::serialize_config(back), bytes) << m.field;
  }
  core::RunConfig rich = test::quick_config(3, 2, core::ProtocolKind::Sdr);
  rich.faults.push_back({.slot = 4, .at_time = -1, .at_send = 2});
  rich.sdc.push_back({.slot = 1, .at_send = 2});
  rich.net.topology = net::TopologySpec::fat_tree();
  EXPECT_EQ(sweep::deserialize_config(sweep::serialize_config(rich)), rich);
}

TEST(ConfigKey, DeserializeRejectsMalformedBytes) {
  core::RunConfig cfg = test::quick_config(3, 2, core::ProtocolKind::Sdr);
  cfg.faults.push_back({.slot = 4, .at_time = -1, .at_send = 2});
  auto bytes = sweep::serialize_config(cfg);
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, std::size_t{9},
                          bytes.size() - 1}) {
    const std::vector<std::byte> truncated(
        bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW({ auto c = sweep::deserialize_config(truncated); },
                 sweep::CodecError)
        << "cut at " << cut;
  }
  auto trailing = bytes;
  trailing.push_back(std::byte{0});
  EXPECT_THROW({ auto c = sweep::deserialize_config(trailing); },
               sweep::CodecError);
  auto wrong_version = bytes;
  wrong_version[0] ^= std::byte{0xff};
  EXPECT_THROW({ auto c = sweep::deserialize_config(wrong_version); },
               sweep::CodecError);
}

// ------------------------------------------------- frame transport on TCP

/// The exact wire bytes write_frame would emit, captured through a pipe.
std::vector<unsigned char> frame_image(std::uint8_t kind, std::uint64_t id,
                                       const std::string& payload) {
  int p[2];
  EXPECT_EQ(::pipe(p), 0);
  EXPECT_TRUE(sweep::frame::write_frame(p[1], kind, id, payload.data(),
                                        payload.size()));
  ::close(p[1]);
  std::vector<unsigned char> bytes(13 + payload.size());
  EXPECT_TRUE(sweep::frame::read_all(p[0], bytes.data(), bytes.size()));
  ::close(p[0]);
  return bytes;
}

TEST(FrameIo, ReassemblesDribbledSocketTransfers) {
  // On TCP, partial reads are the norm: a frame written byte-at-a-time
  // must reassemble losslessly, and the close after the last byte ends
  // the stream (the next header read fails).
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const std::string payload = "short transfers are the norm, not the edge";
  const auto image = frame_image(sweep::frame::kFrameResult, 77, payload);
  std::thread dribbler([&image, fd = sv[1]] {
    for (const unsigned char b : image) {
      EXPECT_TRUE(sweep::frame::write_all(fd, &b, 1));
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    ::close(fd);
  });
  sweep::frame::FrameHeader h;
  ASSERT_TRUE(sweep::frame::read_frame_header(sv[0], h));
  EXPECT_EQ(h.kind, sweep::frame::kFrameResult);
  EXPECT_EQ(h.id, 77u);
  ASSERT_EQ(h.len, payload.size());
  std::string got(h.len, '\0');
  ASSERT_TRUE(sweep::frame::read_all(sv[0], got.data(), got.size()));
  EXPECT_EQ(got, payload);
  EXPECT_FALSE(sweep::frame::read_frame_header(sv[0], h));
  dribbler.join();
  ::close(sv[0]);
}

TEST(FrameIo, TornFrameReadsFalse) {
  const auto image = frame_image(sweep::frame::kFrameResult, 9, "payload!");
  // EOF after 5 of 13 header bytes: the header read fails.
  {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    ASSERT_TRUE(sweep::frame::write_all(sv[1], image.data(), 5));
    ::close(sv[1]);
    sweep::frame::FrameHeader h;
    EXPECT_FALSE(sweep::frame::read_frame_header(sv[0], h));
    ::close(sv[0]);
  }
  // EOF mid-payload: the header parses, the payload read reports the tear.
  {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    ASSERT_TRUE(sweep::frame::write_all(sv[1], image.data(), 13 + 3));
    ::close(sv[1]);
    sweep::frame::FrameHeader h;
    ASSERT_TRUE(sweep::frame::read_frame_header(sv[0], h));
    std::string got(h.len, '\0');
    EXPECT_FALSE(sweep::frame::read_all(sv[0], got.data(), got.size()));
    ::close(sv[0]);
  }
}

TEST(FrameIo, WriteToLostPeerFailsWithoutSigpipe) {
  // Writing to a peer that vanished must come back as a failed write the
  // scheduler maps to worker-lost — never as SIGPIPE death.
  sweep::ignore_sigpipe();
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ::close(sv[0]);
  const std::string payload(1 << 16, 'x');
  bool wrote = true;
  for (int i = 0; i < 4 && wrote; ++i) {
    wrote = sweep::frame::write_frame(sv[1], sweep::frame::kFrameResult, 1,
                                      payload.data(), payload.size());
  }
  ASSERT_FALSE(wrote);
  ::close(sv[1]);
}

// ---------------------------------------------------------- remote backend

/// Tuning shrunk to test scale: the default (minutes long) lease unless a
/// scenario opts in, generous deadlines so a loaded CI machine cannot
/// declare a healthy worker dead.
sweep::RemoteTuning fast_tuning() {
  sweep::RemoteTuning t;
  t.registration_wait_ms = 8000;
  t.heartbeat_deadline_ms = 4000;
  t.redispatch_budget = 5;
  return t;
}

/// Remote-backend layout: loopback listener on an ephemeral port, specs
/// of the form "p<input index>".
sweep::ServiceOptions remote_options(sweep::RemoteTuning tuning) {
  sweep::ServiceOptions o;
  o.listen = "127.0.0.1:0";
  o.remote = tuning;
  o.spec = [](const core::RunConfig&, std::size_t i) {
    return std::string("p").append(std::to_string(i));
  };
  return o;
}

/// Resolves "p<index>" against the sweep's app table. Closures cannot
/// cross a real network; in-process worker threads share the table, which
/// keeps the full TCP protocol (handshake, heartbeats, leases, frames)
/// under test without spawning binaries.
sweep::AppResolver table_resolver(const FuzzSweep& s) {
  return [&s](const core::RunConfig&, const std::string& spec) {
    if (spec.size() < 2 || spec[0] != 'p') {
      throw std::invalid_argument("unknown spec: " + spec);
    }
    const std::size_t i = std::stoul(spec.substr(1));
    if (i >= s.apps.size()) throw std::invalid_argument("spec out of range");
    return s.apps[i];
  };
}

std::vector<core::RunResult> pool1_baseline(const FuzzSweep& s) {
  auto factory = [&s](const core::RunConfig&, std::size_t i) {
    return s.apps[i];
  };
  return core::run_many(s.configs, factory, {.threads = 1});
}

void expect_matches_baseline(const std::vector<core::RunResult>& runs,
                             const std::vector<core::RunResult>& baseline,
                             const std::string& what) {
  ASSERT_EQ(runs.size(), baseline.size()) << what;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i], baseline[i]) << what << ": config " << i << " diverged";
  }
}

/// A remote-backend service plus in-process threads running the real
/// run_worker loop. Destruction order matters and is owned here: the
/// service goes first (its destructor sends Shutdown frames), then the
/// worker threads join (run_worker returns once the coordinator is gone)
/// — members alone would destruct in the reverse, deadlocking order when
/// an ASSERT returns early.
class RemoteRig {
 public:
  explicit RemoteRig(sweep::ServiceOptions opts)
      : service(std::make_unique<sweep::SweepService>(std::move(opts))) {}
  ~RemoteRig() { shutdown(); }

  void start_worker(sweep::AppResolver resolver,
                    sweep::WorkerOptions wopts = {}) {
    errors_.push_back(std::make_unique<std::string>());
    std::string* err = errors_.back().get();
    threads_.emplace_back([addr = service->remote_address(),
                           resolver = std::move(resolver), wopts, err] {
      try {
        sweep::run_worker(addr, resolver, wopts);
      } catch (const std::exception& e) {
        *err = e.what();
      }
    });
  }

  [[nodiscard]] bool wait_for_workers(std::size_t n, int timeout_ms = 10000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (service->connected_workers() < n) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
  }

  void shutdown() {
    service.reset();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  /// Valid after shutdown() (the join is the synchronization point).
  [[nodiscard]] const std::string& worker_error(std::size_t i) const {
    return *errors_[i];
  }

  std::unique_ptr<sweep::SweepService> service;

 private:
  std::vector<std::thread> threads_;
  std::vector<std::unique_ptr<std::string>> errors_;
};

TEST(RemoteBackend, WorkerFleetsReproducePoolBaseline) {
  const FuzzSweep s = draw_sweep(24);
  auto factory = [&s](const core::RunConfig&, std::size_t i) {
    return s.apps[i];
  };
  const auto baseline = pool1_baseline(s);

  for (const std::size_t nworkers : {1u, 2u, 3u}) {
    RemoteRig rig(remote_options(fast_tuning()));
    for (std::size_t w = 0; w < nworkers; ++w) {
      rig.start_worker(table_resolver(s));
    }
    ASSERT_TRUE(rig.wait_for_workers(nworkers));
    const auto runs = rig.service->run(s.configs, factory);
    const auto& st = rig.service->stats();
    EXPECT_EQ(st.remote_workers, nworkers);
    EXPECT_EQ(st.remote.workers_lost, 0u);
    EXPECT_EQ(st.remote.heartbeats_missed, 0u);
    EXPECT_EQ(st.remote.duplicate_results, 0u);
    EXPECT_EQ(st.remote.local_fallback_points, 0u);
    EXPECT_LE(st.max_dispatches_per_digest, 1u);
    expect_matches_baseline(
        runs, baseline, "fleet of " + std::to_string(nworkers) + " workers");
    rig.shutdown();
  }
}

TEST(RemoteBackend, KilledWorkerMidChunkIsInvisibleInResults) {
  const FuzzSweep s = draw_sweep(24);
  auto factory = [&s](const core::RunConfig&, std::size_t i) {
    return s.apps[i];
  };
  const auto baseline = pool1_baseline(s);

  RemoteRig rig(remote_options(fast_tuning()));
  // The doomed worker fail-stops while resolving its third point — the
  // coordinator sees the same torn stream a SIGKILLed workerd produces.
  auto calls = std::make_shared<std::atomic<int>>(0);
  auto inner = table_resolver(s);
  rig.start_worker(
      [inner, calls](const core::RunConfig& cfg, const std::string& spec) {
        if (calls->fetch_add(1) == 2) throw sweep::WorkerAbort{};
        return inner(cfg, spec);
      });
  // The survivor holds its first point until the doomed worker reached its
  // third (2 s at most): otherwise a busy host can let the survivor drain
  // the sweep first, and no kill happens at all.
  rig.start_worker(
      [inner, calls](const core::RunConfig& cfg, const std::string& spec) {
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(2);
        while (calls->load() < 3 && std::chrono::steady_clock::now() < give_up) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return inner(cfg, spec);
      });
  ASSERT_TRUE(rig.wait_for_workers(2));

  const auto runs = rig.service->run(s.configs, factory);
  const auto& st = rig.service->stats();
  EXPECT_EQ(st.remote.workers_lost, 1u);
  EXPECT_EQ(st.remote.heartbeats_missed, 0u);  // EOF death, not a silent deadline
  EXPECT_GE(st.remote.chunks_redispatched, 1u);
  EXPECT_EQ(st.remote.local_fallback_points, 0u);  // the survivor carried the sweep
  expect_matches_baseline(runs, baseline, "kill-a-worker-mid-chunk");
  rig.shutdown();
}

TEST(RemoteBackend, LeaseExpiryRedispatchesAndSuppressesTheLateTwin) {
  const FuzzSweep s = draw_sweep(12);
  auto factory = [&s](const core::RunConfig&, std::size_t i) {
    return s.apps[i];
  };
  const auto baseline = pool1_baseline(s);

  auto tuning = fast_tuning();
  tuning.lease_ms = 120;
  tuning.redispatch_budget = 10;  // slow-CI slack: bouncing must not error
  RemoteRig rig(remote_options(tuning));
  // Whichever worker resolves a point first stalls well past the lease,
  // then answers anyway; its heartbeats keep flowing the whole time
  // (stalled != dead), so this exercises lease re-dispatch in isolation.
  auto stalled = std::make_shared<std::atomic<bool>>(false);
  auto inner = table_resolver(s);
  auto stalling =
      [inner, stalled](const core::RunConfig& cfg, const std::string& spec) {
        if (!stalled->exchange(true)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(700));
        }
        return inner(cfg, spec);
      };
  rig.start_worker(stalling);
  rig.start_worker(stalling);
  ASSERT_TRUE(rig.wait_for_workers(2));

  std::unordered_map<std::uint64_t, int> streamed;
  const auto runs = rig.service->run(
      s.configs, factory,
      [&streamed](const sweep::PointOutcome& out) { ++streamed[out.digest]; });
  const auto& st = rig.service->stats();
  EXPECT_EQ(st.remote.workers_lost, 0u);  // the stalled worker never died
  EXPECT_EQ(st.remote.heartbeats_missed, 0u);
  EXPECT_GE(st.remote.chunks_redispatched, 1u);
  EXPECT_EQ(st.remote.local_fallback_points, 0u);
  // Exactly one stream delivery and one store record per digest: the late
  // twin is suppressed, never double-delivered, never double-stored.
  EXPECT_EQ(streamed.size(), st.unique_points);
  for (const auto& [digest, count] : streamed) {
    EXPECT_EQ(count, 1) << "digest " << digest << " delivered twice";
  }
  EXPECT_EQ(rig.service->store().size(), st.unique_points);
  EXPECT_LE(st.max_dispatches_per_digest, 1u);
  expect_matches_baseline(runs, baseline, "lease-expiry schedule");

  // The stalled worker's late answer may land after run() returned; the
  // lifetime counters record the suppression whenever it arrives.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rig.service->remote_snapshot().duplicate_results == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(rig.service->remote_snapshot().duplicate_results, 1u);
  rig.shutdown();
}

TEST(RemoteBackend, SilentWorkerIsDeclaredDeadByHeartbeatDeadline) {
  const FuzzSweep s = draw_sweep(12);
  auto factory = [&s](const core::RunConfig&, std::size_t i) {
    return s.apps[i];
  };
  const auto baseline = pool1_baseline(s);

  auto tuning = fast_tuning();
  tuning.heartbeat_deadline_ms = 250;  // the healthy worker beats every 50 ms
  RemoteRig rig(remote_options(tuning));
  // The silent worker never heartbeats (test hook) and hangs on its first
  // point: no frame of any kind after registration. Only the deadline
  // detector can reclaim its points — the socket stays open throughout.
  auto inner = table_resolver(s);
  auto hung = std::make_shared<std::atomic<bool>>(false);
  rig.start_worker(
      [inner, hung](const core::RunConfig& cfg, const std::string& spec) {
        if (!hung->exchange(true)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1500));
        }
        return inner(cfg, spec);
      },
      {.max_heartbeats = 0});
  rig.start_worker(table_resolver(s));
  ASSERT_TRUE(rig.wait_for_workers(2));

  const auto runs = rig.service->run(s.configs, factory);
  const auto& st = rig.service->stats();
  EXPECT_EQ(st.remote.workers_lost, 1u);
  EXPECT_EQ(st.remote.heartbeats_missed, 1u);  // a deadline death, not an EOF
  EXPECT_GE(st.remote.chunks_redispatched, 1u);
  EXPECT_EQ(st.remote.local_fallback_points, 0u);
  expect_matches_baseline(runs, baseline, "heartbeat-deadline schedule");
  rig.shutdown();
}

TEST(RemoteBackend, LastWorkerDeathDegradesToLocalExecution) {
  const FuzzSweep s = draw_sweep(12);
  auto factory = [&s](const core::RunConfig&, std::size_t i) {
    return s.apps[i];
  };
  const auto baseline = pool1_baseline(s);

  auto tuning = fast_tuning();
  tuning.registration_wait_ms = 100;  // no replacement is coming
  RemoteRig rig(remote_options(tuning));
  auto calls = std::make_shared<std::atomic<int>>(0);
  auto inner = table_resolver(s);
  rig.start_worker(
      [inner, calls](const core::RunConfig& cfg, const std::string& spec) {
        if (calls->fetch_add(1) == 2) throw sweep::WorkerAbort{};
        return inner(cfg, spec);
      });
  ASSERT_TRUE(rig.wait_for_workers(1));

  // The fleet dies mid-sweep with nobody left; the sweep must complete
  // in-process, bit-identically.
  const auto runs = rig.service->run(s.configs, factory);
  const auto& st = rig.service->stats();
  EXPECT_EQ(st.remote.workers_lost, 1u);
  EXPECT_GT(st.remote.local_fallback_points, 0u);
  expect_matches_baseline(runs, baseline, "last-worker-death schedule");
  rig.shutdown();
}

TEST(RemoteBackend, EmptyFleetFallsBackToLocalAfterTheWindow) {
  const FuzzSweep s = draw_sweep(8);
  auto factory = [&s](const core::RunConfig&, std::size_t i) {
    return s.apps[i];
  };
  const auto baseline = pool1_baseline(s);

  auto tuning = fast_tuning();
  tuning.registration_wait_ms = 100;  // nobody is coming
  RemoteRig rig(remote_options(tuning));
  const auto runs = rig.service->run(s.configs, factory);
  const auto& st = rig.service->stats();
  EXPECT_EQ(st.remote_workers, 0u);
  EXPECT_EQ(st.remote.workers_lost, 0u);
  EXPECT_EQ(st.remote.local_fallback_points, st.unique_points);
  expect_matches_baseline(runs, baseline, "empty fleet");
  rig.shutdown();
}

TEST(RemoteBackend, FallbackPointsRunOnTheServicePool) {
  FuzzSweep s = draw_sweep(12);
  const auto baseline = pool1_baseline(s);
  // Handed-back points run on the service's pool threads, never on the
  // thread that called run().
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> rank_runs{0};
  std::atomic<int> on_caller{0};
  auto factory = [&](const core::RunConfig&, std::size_t i) -> core::AppFn {
    return [&, app = s.apps[i]](mpi::Env& env) {
      ++rank_runs;
      if (std::this_thread::get_id() == caller) ++on_caller;
      app(env);
    };
  };

  auto opts = remote_options(fast_tuning());
  opts.remote.registration_wait_ms = 100;  // nobody is coming
  opts.workers = 4;
  sweep::SweepService service(std::move(opts));
  const auto runs = service.run(s.configs, factory);
  const auto& st = service.stats();
  EXPECT_EQ(st.remote_workers, 0u);
  EXPECT_EQ(st.remote.local_fallback_points, st.unique_points);
  EXPECT_GT(rank_runs.load(), 0);
  EXPECT_EQ(on_caller.load(), 0);
  expect_matches_baseline(runs, baseline, "fallback on the service pool");

  // Errors surface exactly as on the local path: the lowest failing input
  // index, "config[i]: " prefixed, type kept.
  s.configs[7].nranks = 0;
  s.configs[3].nranks = 0;
  try {
    auto failed = service.run(s.configs, factory);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("config[3]: ", 0), 0u)
        << "message was: " << e.what();
  }
}

TEST(RemoteBackend, NonPositiveLeaseIsRejected) {
  // A lease of 0 would expire every point the moment it is dispatched.
  for (const int lease_ms : {0, -1}) {
    auto tuning = fast_tuning();
    tuning.lease_ms = lease_ms;
    EXPECT_THROW(sweep::SweepService service(remote_options(tuning)),
                 std::invalid_argument)
        << "lease_ms=" << lease_ms;
  }
}

TEST(RemoteBackend, NonPositiveHeartbeatDeadlineIsRejected) {
  // A deadline of 0 would clear the handshake read bound (a negative one
  // fails in setsockopt): a peer stalled mid-Hello would then wedge the
  // acceptor for every later worker.
  for (const int deadline_ms : {0, -1}) {
    auto tuning = fast_tuning();
    tuning.heartbeat_deadline_ms = deadline_ms;
    EXPECT_THROW(sweep::SweepService service(remote_options(tuning)),
                 std::invalid_argument)
        << "heartbeat_deadline_ms=" << deadline_ms;
  }
}

TEST(RemoteBackend, ExhaustedRedispatchBudgetIsAHardError) {
  const FuzzSweep s = draw_sweep(4);
  auto factory = [&s](const core::RunConfig&, std::size_t i) {
    return s.apps[i];
  };

  auto tuning = fast_tuning();
  tuning.lease_ms = 50;
  tuning.redispatch_budget = 1;
  RemoteRig rig(remote_options(tuning));
  // Every resolve stalls past the lease on both workers: each unit burns
  // attempt 1 on one worker and attempt 2 on the other, then must surface
  // as a hard error instead of bouncing forever.
  auto inner = table_resolver(s);
  auto molasses =
      [inner](const core::RunConfig& cfg, const std::string& spec) {
        std::this_thread::sleep_for(std::chrono::milliseconds(400));
        return inner(cfg, spec);
      };
  rig.start_worker(molasses);
  rig.start_worker(molasses);
  ASSERT_TRUE(rig.wait_for_workers(2));

  try {
    auto runs = rig.service->run(s.configs, factory);
    FAIL() << "expected the exhausted budget to surface as a hard error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.rfind("config[", 0), 0u) << msg;
    EXPECT_NE(msg.find("abandoned after"), std::string::npos) << msg;
    EXPECT_NE(msg.find("re-dispatch budget 1"), std::string::npos) << msg;
  }
  rig.shutdown();
}

TEST(RemoteBackend, VersionMismatchIsRejectedAtRegistration) {
  sweep::SweepService service(remote_options(fast_tuning()));
  // 2 is the previous wire format (multi-point Dispatch frames); 99 is a
  // binary from the future.
  for (const std::uint32_t version : {2u, 99u}) {
    try {
      sweep::run_worker(service.remote_address(), sweep::registry_resolver(),
                        {.protocol_version = version});
      FAIL() << "expected registration of v" << version << " to be rejected";
    } catch (const sweep::RegistrationRejected& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("registration rejected"), std::string::npos) << msg;
      EXPECT_NE(msg.find("protocol version " + std::to_string(version)),
                std::string::npos)
          << msg;
    }
  }
  EXPECT_EQ(service.connected_workers(), 0u);
}

TEST(RemoteBackend, PullSchedulingKeepsFastAndSlowWorkersBusy) {
  const FuzzSweep s = draw_sweep(24);
  auto factory = [&s](const core::RunConfig&, std::size_t i) {
    return s.apps[i];
  };
  const auto baseline = pool1_baseline(s);

  RemoteRig rig(remote_options(fast_tuning()));
  // A ~30 ms-per-point worker next to an unthrottled one. Every pull is
  // answered with exactly one point, so the fast worker simply asks more
  // often — and each worker asks for its next point as soon as one
  // arrives, so both keep a point queued behind the one running.
  auto fast_points = std::make_shared<std::atomic<int>>(0);
  auto slow_points = std::make_shared<std::atomic<int>>(0);
  auto inner = table_resolver(s);
  sweep::WorkerStats fast_stats;
  // The fast worker holds its first point until the slow worker got one
  // (2 s at most): otherwise a busy host can let the fast worker drain
  // all 24 points before the slow worker's first pull is served.
  rig.start_worker(
      [inner, fast_points, slow_points](const core::RunConfig& cfg,
                                        const std::string& sp) {
        if (fast_points->fetch_add(1) == 0) {
          const auto give_up =
              std::chrono::steady_clock::now() + std::chrono::seconds(2);
          while (slow_points->load() < 1 &&
                 std::chrono::steady_clock::now() < give_up) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
        return inner(cfg, sp);
      },
      {.stats = &fast_stats});
  sweep::WorkerStats slow_stats;
  rig.start_worker(
      [inner, slow_points](const core::RunConfig& cfg, const std::string& sp) {
        slow_points->fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        return inner(cfg, sp);
      },
      {.stats = &slow_stats});
  ASSERT_TRUE(rig.wait_for_workers(2));

  const auto runs = rig.service->run(s.configs, factory);
  const auto& st = rig.service->stats();
  EXPECT_EQ(st.remote.workers_lost, 0u);
  EXPECT_EQ(st.remote.local_fallback_points, 0u);
  // Pull scheduling fed both ends of the speed spectrum.
  EXPECT_GE(fast_points->load(), 1);
  EXPECT_GE(slow_points->load(), 1);
  expect_matches_baseline(runs, baseline, "fast+slow pull schedule");
  const std::size_t dispatched = st.dispatched;
  rig.shutdown();  // joins the worker threads: the stats are now stable
  for (const auto* ws : {&fast_stats, &slow_stats}) {
    EXPECT_GE(ws->points_executed, 1u);
    // One point per Dispatch, and one WorkRequest per Dispatch plus the
    // opening one (the last request is still unanswered at shutdown).
    EXPECT_EQ(ws->dispatches, ws->points_executed);
    EXPECT_EQ(ws->work_requests, ws->dispatches + 1);
  }
  EXPECT_EQ(fast_stats.points_executed + slow_stats.points_executed,
            dispatched);
}

// ---------------------------------------------------------- SO_REUSEADDR

TEST(TransportReuse, BindAfterCloseRebindsTheSamePort) {
  // A restarted coordinator must re-acquire its fixed port immediately.
  // The listener-side socket of a served connection parks in TIME_WAIT
  // when the server closes first; without SO_REUSEADDR the rebind below
  // dies to EADDRINUSE for minutes.
  sweep::ignore_sigpipe();
  std::uint16_t port = 0;
  {
    sweep::TcpListener first("127.0.0.1", 0);
    port = first.port();
    const int client = sweep::connect_tcp("127.0.0.1", port, 2000);
    const int served = first.accept_fd(2000);
    ASSERT_GE(served, 0);
    ::close(served);  // server closes first: TIME_WAIT lands on this side
    ::close(client);
    first.close();
  }
  sweep::TcpListener second("127.0.0.1", port);
  EXPECT_EQ(second.port(), port);
}

// ----------------------------------------------------------------- auth

TEST(Auth, Sha256MatchesTheFipsVector) {
  const auto d = sweep::auth::sha256("abc", 3);
  EXPECT_EQ(
      sweep::auth::to_hex(d),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  const auto empty = sweep::auth::sha256("", 0);
  EXPECT_EQ(
      sweep::auth::to_hex(empty),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Auth, HmacMatchesTheRfc4231Vectors) {
  // RFC 4231 test case 1: key = 20 x 0x0b, data = "Hi There".
  const std::string key1(20, '\x0b');
  const auto mac1 =
      sweep::auth::hmac_sha256(key1.data(), key1.size(), "Hi There", 8);
  EXPECT_EQ(
      sweep::auth::to_hex(mac1),
      "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  // RFC 4231 test case 2: short key ("Jefe"), longer data.
  const std::string data2 = "what do ya want for nothing?";
  const auto mac2 =
      sweep::auth::hmac_sha256("Jefe", 4, data2.data(), data2.size());
  EXPECT_EQ(
      sweep::auth::to_hex(mac2),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  // RFC 4231 test case 6: a key longer than the 64-byte HMAC block (must
  // be hashed down, not truncated).
  const std::string key6(131, '\xaa');
  const std::string data6 = "Test Using Larger Than Block-Size Key - "
                            "Hash Key First";
  const auto mac6 = sweep::auth::hmac_sha256(key6.data(), key6.size(),
                                             data6.data(), data6.size());
  EXPECT_EQ(
      sweep::auth::to_hex(mac6),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Auth, ConstantTimeEqualComparesEveryByte) {
  const unsigned char a[4] = {1, 2, 3, 4};
  unsigned char b[4] = {1, 2, 3, 4};
  EXPECT_TRUE(sweep::auth::constant_time_equal(a, b, sizeof a));
  for (std::size_t i = 0; i < sizeof a; ++i) {
    b[i] ^= 0x80;
    EXPECT_FALSE(sweep::auth::constant_time_equal(a, b, sizeof a))
        << "difference at byte " << i << " not detected";
    b[i] ^= 0x80;
  }
  EXPECT_TRUE(sweep::auth::constant_time_equal(a, b, 0));  // empty = equal
}

TEST(Auth, NoncesAreFresh) {
  const auto a = sweep::auth::make_nonce();
  const auto b = sweep::auth::make_nonce();
  EXPECT_NE(a, b);
}

TEST(Auth, SecretFileStripsOneTrailingNewlineAndRejectsEmpty) {
  StoreFile f("secret");
  auto write_file = [&f](const std::string& contents) {
    std::FILE* file = std::fopen(f.path().c_str(), "wb");
    ASSERT_NE(file, nullptr);
    std::fwrite(contents.data(), 1, contents.size(), file);
    std::fclose(file);
  };
  write_file("hunter2\n");  // echo-created file
  EXPECT_EQ(sweep::auth::load_secret_file(f.path()), "hunter2");
  write_file("hunter2\r\n");
  EXPECT_EQ(sweep::auth::load_secret_file(f.path()), "hunter2");
  write_file("no newline");
  EXPECT_EQ(sweep::auth::load_secret_file(f.path()), "no newline");
  write_file("\n");  // empty after stripping: a silent no-auth foot-gun
  EXPECT_THROW({ auto x = sweep::auth::load_secret_file(f.path()); },
               std::runtime_error);
  EXPECT_THROW(
      { auto x = sweep::auth::load_secret_file(f.path() + ".missing"); },
      std::runtime_error);
}

TEST(Auth, WrongSecretIsRejectedWithAReason) {
  auto opts = remote_options(fast_tuning());
  opts.remote.secret = "correct horse battery staple";
  sweep::SweepService service(std::move(opts));
  try {
    sweep::run_worker(service.remote_address(), sweep::registry_resolver(),
                      {.secret = "incorrect horse"});
    FAIL() << "expected the registration to be rejected";
  } catch (const sweep::RegistrationRejected& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("registration rejected"), std::string::npos) << msg;
    EXPECT_NE(msg.find("authentication failed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("bad shared-secret MAC"), std::string::npos) << msg;
  }
  EXPECT_EQ(service.connected_workers(), 0u);
}

TEST(Auth, MissingSecretIsRefusedBeforeAnyConfigBytes) {
  auto opts = remote_options(fast_tuning());
  opts.remote.secret = "correct horse battery staple";
  sweep::SweepService service(std::move(opts));
  try {
    sweep::run_worker(service.remote_address(), sweep::registry_resolver());
    FAIL() << "expected the worker to refuse the challenge";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("requires authentication"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(service.connected_workers(), 0u);
}

TEST(Auth, WorkerWithSecretRefusesAnUnauthenticatedCoordinator) {
  // No secret on the coordinator: it never challenges. A worker that was
  // provisioned with one must not silently serve it.
  sweep::SweepService service(remote_options(fast_tuning()));
  try {
    sweep::run_worker(service.remote_address(), sweep::registry_resolver(),
                      {.secret = "provisioned"});
    FAIL() << "expected the worker to refuse the unauthenticated coordinator";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("did not request authentication"),
              std::string::npos)
        << e.what();
  }
  // The coordinator side of this handshake is legitimate — it registers
  // the worker before the worker's verdict arrives. The refusal shows up
  // as an immediate hangup: the fleet must be empty again shortly.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (service.connected_workers() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(service.connected_workers(), 0u);
}

TEST(Auth, AuthenticatedFleetReproducesThePoolBaseline) {
  const FuzzSweep s = draw_sweep(16);
  auto factory = [&s](const core::RunConfig&, std::size_t i) {
    return s.apps[i];
  };
  const auto baseline = pool1_baseline(s);

  auto opts = remote_options(fast_tuning());
  opts.remote.secret = "fleet-secret";
  RemoteRig rig(std::move(opts));
  rig.start_worker(table_resolver(s),
                   {.secret = "fleet-secret"});
  rig.start_worker(table_resolver(s),
                   {.secret = "fleet-secret"});
  ASSERT_TRUE(rig.wait_for_workers(2));

  const auto runs = rig.service->run(s.configs, factory);
  const auto& st = rig.service->stats();
  EXPECT_EQ(st.remote_workers, 2u);
  EXPECT_EQ(st.remote.workers_lost, 0u);
  EXPECT_EQ(st.remote.local_fallback_points, 0u);
  expect_matches_baseline(runs, baseline, "authenticated fleet");
  rig.shutdown();
}

// ------------------------------------------------------- handshake fuzz

/// The 13-byte frame header exactly as the wire carries it.
std::vector<unsigned char> raw_header(std::uint8_t kind, std::uint64_t id,
                                      std::uint32_t len) {
  std::vector<unsigned char> h(13);
  h[0] = kind;
  for (int i = 0; i < 8; ++i) {
    h[1 + i] = static_cast<unsigned char>(id >> (8 * i));
  }
  for (int i = 0; i < 4; ++i) {
    h[9 + i] = static_cast<unsigned char>(len >> (8 * i));
  }
  return h;
}

/// A byte-exact valid Hello frame (header + payload), the fuzz baseline.
std::vector<unsigned char> hello_image() {
  sweep::ByteWriter w;
  w(sweep::kRemoteProtocolVersion, sweep::kConfigKeyVersion,
    sweep::kResultCodecVersion);
  const auto payload = w.take();
  auto image = raw_header(sweep::kFrameHello, 0,
                          static_cast<std::uint32_t>(payload.size()));
  for (const std::byte b : payload) {
    image.push_back(std::to_integer<unsigned char>(b));
  }
  return image;
}

struct AttackReply {
  bool rejected = false;  ///< coordinator answered with a HelloReject
  std::string reason;
};

/// Connects, sends `bytes` verbatim, half-closes, and reports how the
/// coordinator answered. Must always return: every malformed prefix has
/// to end in a reject or a close, never a hang.
AttackReply attack(const std::string& address,
                   const std::vector<unsigned char>& bytes) {
  const sweep::Endpoint ep = sweep::parse_endpoint(address);
  const int fd = sweep::connect_tcp(ep.host.empty() ? "127.0.0.1" : ep.host,
                                    ep.port, 5000);
  sweep::frame::write_all(fd, bytes.data(), bytes.size());
  ::shutdown(fd, SHUT_WR);  // we are done talking; the verdict follows
  AttackReply out;
  sweep::frame::FrameHeader h;
  if (sweep::frame::read_frame_header(fd, h) &&
      h.kind == sweep::kFrameHelloReject && h.len <= 4096) {
    out.reason.resize(h.len);
    out.rejected =
        sweep::frame::read_all(fd, out.reason.data(), out.reason.size());
  }
  ::close(fd);
  return out;
}

TEST(HandshakeFuzz, MalformedHellosNeverKillTheCoordinator) {
  const FuzzSweep s = draw_sweep(8);
  auto factory = [&s](const core::RunConfig&, std::size_t i) {
    return s.apps[i];
  };
  const auto baseline = pool1_baseline(s);

  // Some bit flips below still form a valid Hello, registering a phantom
  // worker we immediately hang up on; the empty-fleet window keeps an
  // unlucky phantom-death-just-before-run from tripping local fallback
  // before the real worker registers.
  auto tuning = fast_tuning();
  tuning.registration_wait_ms = 4000;
  RemoteRig rig(remote_options(tuning));
  const std::string addr = rig.service->remote_address();
  const auto good = hello_image();

  // Truncations: every proper prefix of a valid Hello (torn header, torn
  // payload, empty connection).
  for (std::size_t cut = 0; cut < good.size(); cut += 3) {
    const std::vector<unsigned char> torn(good.begin(),
                                          good.begin() +
                                              static_cast<std::ptrdiff_t>(cut));
    attack(addr, torn);
  }
  // Hostile length claim: a header announcing a ~4 GiB Hello. The
  // coordinator must drop it by the control-payload cap, not allocate.
  attack(addr, raw_header(sweep::kFrameHello, 0, 0xffffffffu));
  // Out-of-protocol openers: a result frame, an AuthResponse before any
  // challenge, an unknown kind.
  attack(addr, raw_header(sweep::frame::kFrameResult, 7, 0));
  attack(addr, raw_header(sweep::kFrameAuthResponse, 0, 0));
  attack(addr, raw_header(0x63, 0, 0));
  // A payload one byte short of its length claim parses as a torn field.
  {
    auto malformed = good;
    malformed.pop_back();
    const std::uint32_t len =
        static_cast<std::uint32_t>(malformed.size() - 13);
    for (int i = 0; i < 4; ++i) {
      malformed[9 + i] = static_cast<unsigned char>(len >> (8 * i));
    }
    const AttackReply r = attack(addr, malformed);
    EXPECT_TRUE(r.rejected);
    EXPECT_NE(r.reason.find("malformed hello"), std::string::npos)
        << r.reason;
  }
  // Bit flips across the whole image. Some flips still form a valid
  // Hello (id bytes) — the point is that no flip hangs or kills the
  // coordinator, whatever the verdict.
  for (std::size_t i = 0; i < good.size(); ++i) {
    auto flipped = good;
    flipped[i] ^= 0x80;
    attack(addr, flipped);
  }

  // The coordinator survived all of it: a real worker registers and the
  // sweep still reproduces the baseline without local fallback.
  rig.start_worker(table_resolver(s));
  ASSERT_TRUE(rig.wait_for_workers(1));
  const auto runs = rig.service->run(s.configs, factory);
  EXPECT_EQ(rig.service->stats().remote.local_fallback_points, 0u);
  expect_matches_baseline(runs, baseline, "post-fuzz sweep");
  rig.shutdown();
}

TEST(HandshakeFuzz, StalledHelloPrefixDoesNotBlockLaterWorkers) {
  const FuzzSweep s = draw_sweep(8);
  auto factory = [&s](const core::RunConfig&, std::size_t i) {
    return s.apps[i];
  };
  const auto baseline = pool1_baseline(s);

  auto tuning = fast_tuning();
  tuning.heartbeat_deadline_ms = 1000;  // also bounds each handshake read
  RemoteRig rig(remote_options(tuning));
  const std::string addr = rig.service->remote_address();
  const sweep::Endpoint ep = sweep::parse_endpoint(addr);

  // A peer sends 5 of the 13 Hello header bytes and then holds the
  // socket open without another byte or a FIN.
  const int stalled = sweep::connect_tcp(
      ep.host.empty() ? "127.0.0.1" : ep.host, ep.port, 5000);
  const auto hello = hello_image();
  ASSERT_TRUE(sweep::frame::write_all(stalled, hello.data(), 5));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  rig.start_worker(table_resolver(s));
  const bool registered = rig.wait_for_workers(1, 5000);
  // Closed before any assertion can return early: a coordinator wedged
  // on this socket would otherwise hang the rig's teardown.
  ::close(stalled);
  ASSERT_TRUE(registered) << "a stalled Hello prefix blocked registration";

  const auto runs = rig.service->run(s.configs, factory);
  EXPECT_EQ(rig.service->stats().remote.local_fallback_points, 0u);
  expect_matches_baseline(runs, baseline, "sweep behind a stalled hello");
  rig.shutdown();
}

TEST(HandshakeFuzz, WorkerRejectsAnOversizedRegistrationReply) {
  // A hostile coordinator claiming a ~4 GiB HelloAck must be refused by
  // length — the worker must not try to allocate it.
  sweep::ignore_sigpipe();
  sweep::TcpListener evil("127.0.0.1", 0);
  std::thread coordinator([&evil] {
    const int fd = evil.accept_fd(5000);
    if (fd < 0) return;
    sweep::frame::FrameHeader h;
    if (sweep::frame::read_frame_header(fd, h) && h.len <= 4096) {
      std::vector<std::byte> hello(h.len);
      if (h.len > 0) sweep::frame::read_all(fd, hello.data(), h.len);
    }
    const auto hdr = raw_header(sweep::kFrameHelloAck, 0, 0xffffffffu);
    sweep::frame::write_all(fd, hdr.data(), hdr.size());
    ::close(fd);
  });
  try {
    sweep::run_worker(evil.address(), sweep::registry_resolver(),
                      {.connect_timeout_ms = 5000});
    FAIL() << "expected the worker to refuse the oversized reply";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("oversized registration frame"),
              std::string::npos)
        << e.what();
  }
  coordinator.join();
}

TEST(HandshakeFuzz, WorkerThrowsOnAGarbageRegistrationReply) {
  sweep::ignore_sigpipe();
  sweep::TcpListener evil("127.0.0.1", 0);
  std::thread coordinator([&evil] {
    const int fd = evil.accept_fd(5000);
    if (fd < 0) return;
    sweep::frame::FrameHeader h;
    if (sweep::frame::read_frame_header(fd, h) && h.len <= 4096) {
      std::vector<std::byte> hello(h.len);
      if (h.len > 0) sweep::frame::read_all(fd, hello.data(), h.len);
    }
    const unsigned char junk[4] = {0xde, 0xad, 0xbe, 0xef};
    const auto hdr = raw_header(0x63, 0, sizeof junk);
    sweep::frame::write_all(fd, hdr.data(), hdr.size());
    sweep::frame::write_all(fd, junk, sizeof junk);
    ::close(fd);
  });
  try {
    sweep::run_worker(evil.address(), sweep::registry_resolver(),
                      {.connect_timeout_ms = 5000});
    FAIL() << "expected the worker to refuse the garbage reply";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unexpected registration frame"),
              std::string::npos)
        << e.what();
  }
  coordinator.join();
}

TEST(HandshakeFuzz, WorkerBoundsADispatchLengthClaimByItsFrame) {
  // A coordinator registers the worker, then sends a Dispatch whose
  // 4-byte payload claims 64 MiB of config bytes. The worker must end the
  // session as a torn stream, without allocating what the claim names.
  if (!util::alloc_counting_enabled()) {
    GTEST_SKIP() << "allocation counting is compiled out in this build";
  }
  sweep::ignore_sigpipe();
  sweep::TcpListener evil("127.0.0.1", 0);
  std::thread coordinator([&evil] {
    const int fd = evil.accept_fd(5000);
    if (fd < 0) return;
    sweep::frame::FrameHeader h;
    if (sweep::frame::read_frame_header(fd, h) && h.len <= 4096) {
      std::vector<std::byte> hello(h.len);
      if (h.len > 0) sweep::frame::read_all(fd, hello.data(), h.len);
    }
    const unsigned char interval_ms[4] = {0xe8, 0x03, 0x00, 0x00};  // 1000
    auto hdr = raw_header(sweep::kFrameHelloAck, 0, sizeof interval_ms);
    sweep::frame::write_all(fd, hdr.data(), hdr.size());
    sweep::frame::write_all(fd, interval_ms, sizeof interval_ms);
    const unsigned char claim[4] = {0x00, 0x00, 0x00, 0x04};  // u32 64 MiB
    hdr = raw_header(sweep::kFrameDispatch, 1, sizeof claim);
    sweep::frame::write_all(fd, hdr.data(), hdr.size());
    sweep::frame::write_all(fd, claim, sizeof claim);
    unsigned char sink[256];
    while (::read(fd, sink, sizeof sink) > 0) {
    }  // drain the work requests until the worker hangs up
    ::close(fd);
  });
  sweep::WorkerOptions victim;
  victim.connect_timeout_ms = 5000;
  const std::uint64_t before = util::alloc_bytes();
  EXPECT_NO_THROW(
      sweep::run_worker(evil.address(), sweep::registry_resolver(), victim));
  const std::uint64_t grown = util::alloc_bytes() - before;
  coordinator.join();
  EXPECT_LT(grown, std::uint64_t{16} << 20)
      << "the worker allocated the Dispatch's claimed length";
}

// ------------------------------------------------------------ supervisor

TEST(Supervisor, RestartPolicyByExitCode) {
  EXPECT_FALSE(sweep::exit_is_restartable(0));    // clean stop
  EXPECT_FALSE(sweep::exit_is_restartable(2));    // usage: re-exec can't fix
  EXPECT_TRUE(sweep::exit_is_restartable(1));
  EXPECT_TRUE(sweep::exit_is_restartable(128 + SIGKILL));
  EXPECT_TRUE(sweep::exit_is_restartable(128 + SIGSEGV));
}

TEST(Supervisor, CleanChildExitEndsSupervisionWithoutRestart) {
  std::vector<int> attempts;
  sweep::SuperviseOptions o;
  o.restart_budget = 5;
  o.backoff_base_ms = 1;
  o.backoff_cap_ms = 2;
  o.on_spawn = [&attempts](pid_t pid, int attempt) {
    EXPECT_GT(pid, 0);
    attempts.push_back(attempt);
  };
  const auto out = sweep::supervise_call([] { return 0; }, o);
  EXPECT_EQ(out.exit_code, 0);
  EXPECT_EQ(out.launches, 1);
  EXPECT_FALSE(out.budget_spent);
  ASSERT_EQ(attempts.size(), 1u);
  EXPECT_EQ(attempts[0], 1);
}

TEST(Supervisor, SignalDeathIsRestartedUntilTheBudgetIsSpent) {
  sweep::SuperviseOptions o;
  o.restart_budget = 3;
  o.backoff_base_ms = 1;
  o.backoff_cap_ms = 2;
  const auto out = sweep::supervise_call(
      [] {
        ::kill(::getpid(), SIGKILL);
        return 0;  // unreachable
      },
      o);
  EXPECT_EQ(out.exit_code, 128 + SIGKILL);
  EXPECT_EQ(out.launches, 4);  // 1 launch + 3 restarts
  EXPECT_TRUE(out.budget_spent);
}

TEST(Supervisor, UsageErrorsAreNeverRestarted) {
  sweep::SuperviseOptions o;
  o.restart_budget = 5;
  o.backoff_base_ms = 1;
  o.backoff_cap_ms = 2;
  const auto out = sweep::supervise_call([] { return 2; }, o);
  EXPECT_EQ(out.exit_code, 2);
  EXPECT_EQ(out.launches, 1);
  EXPECT_FALSE(out.budget_spent);
}

TEST(Supervisor, SigkilledWorkerIsReplacedAndTheSweepCompletes) {
  const FuzzSweep s = draw_sweep(16);
  auto factory = [&s](const core::RunConfig&, std::size_t i) {
    return s.apps[i];
  };
  const auto baseline = pool1_baseline(s);

  auto tuning = fast_tuning();
  // Replacement window: the supervised worker's re-exec must beat the
  // local-fallback degradation, not race it.
  tuning.registration_wait_ms = 8000;
  auto opts = remote_options(tuning);
  auto service = std::make_unique<sweep::SweepService>(std::move(opts));
  const std::string addr = service->remote_address();

  // Marker file: only the first child SIGKILLs itself mid-point; its
  // replacement (a fresh fork) finds the marker and behaves. Fork-copied
  // memory cannot carry this flag — only the filesystem spans processes.
  StoreFile marker("supervisor_kill_marker");
  sweep::SuperviseOutcome outcome;
  std::thread supervisor([&] {
    sweep::SuperviseOptions so;
    so.restart_budget = 5;
    so.backoff_base_ms = 10;
    so.backoff_cap_ms = 50;
    outcome = sweep::supervise_call(
        [&] {
          auto inner = table_resolver(s);
          int resolved = 0;
          try {
            sweep::run_worker(
                addr,
                [&](const core::RunConfig& cfg, const std::string& sp) {
                  if (++resolved == 3 &&
                      !std::filesystem::exists(marker.path())) {
                    if (std::FILE* f =
                            std::fopen(marker.path().c_str(), "wb")) {
                      std::fclose(f);
                    }
                    ::kill(::getpid(), SIGKILL);  // fail-stop, mid-point
                  }
                  return inner(cfg, sp);
                });
          } catch (...) {
            return 1;
          }
          return 0;
        },
        so);
  });

  // One live worker before the sweep starts...
  const auto reg_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (service->connected_workers() < 1 &&
         std::chrono::steady_clock::now() < reg_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(service->connected_workers(), 1u);

  const auto runs = service->run(s.configs, factory);
  // ...and one live worker after it: the kill test ends with the fleet
  // size it started with, because the supervisor put the replica back.
  EXPECT_EQ(service->connected_workers(), 1u);
  const auto& st = service->stats();
  EXPECT_GE(st.remote.workers_lost, 1u);
  EXPECT_GE(st.remote.chunks_redispatched, 1u);
  EXPECT_EQ(st.remote.local_fallback_points, 0u);  // the replacement did the work
  expect_matches_baseline(runs, baseline, "supervised-SIGKILL schedule");

  service.reset();  // Shutdown frame: the replacement child exits 0
  supervisor.join();
  EXPECT_EQ(outcome.exit_code, 0);
  EXPECT_GE(outcome.launches, 2);  // the original + at least the replacement
  EXPECT_FALSE(outcome.budget_spent);
}

TEST(Supervisor, SpentRestartBudgetDegradesToLocalFallback) {
  const FuzzSweep s = draw_sweep(8);
  auto factory = [&s](const core::RunConfig&, std::size_t i) {
    return s.apps[i];
  };
  const auto baseline = pool1_baseline(s);

  auto tuning = fast_tuning();
  tuning.registration_wait_ms = 1000;  // longer than the supervisor backoff
  tuning.redispatch_budget = 10;       // deaths must not exhaust a point
  auto opts = remote_options(tuning);
  auto service = std::make_unique<sweep::SweepService>(std::move(opts));
  const std::string addr = service->remote_address();

  // Every child dies on its first resolve: the supervisor burns its whole
  // budget mid-sweep, the fleet stays dead past the window, and the
  // sweep must complete locally — degraded, never failed. Dispatches only
  // flow while run() is active, so the sweep and the supervisor must run
  // concurrently (and the deltas the service reports only cover deaths
  // that happen inside the run).
  sweep::SuperviseOutcome outcome;
  std::thread supervisor([&] {
    sweep::SuperviseOptions so;
    so.restart_budget = 2;
    so.backoff_base_ms = 5;
    so.backoff_cap_ms = 20;
    outcome = sweep::supervise_call(
        [&] {
          try {
            sweep::run_worker(
                addr,
                [](const core::RunConfig&,
                   const std::string&) -> core::AppFn {
                  ::kill(::getpid(), SIGKILL);  // die on the first dispatch
                  throw std::runtime_error("unreachable");
                });
          } catch (...) {
            return 1;
          }
          return 0;
        },
        so);
  });

  // First doomed worker is live before the sweep starts.
  const auto reg_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (service->connected_workers() < 1 &&
         std::chrono::steady_clock::now() < reg_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(service->connected_workers(), 1u);

  const auto runs = service->run(s.configs, factory);
  supervisor.join();  // budget spent: three launches, three corpses

  const auto& st = service->stats();
  EXPECT_EQ(st.remote_workers, 1u);  // fleet size when the sweep started
  EXPECT_EQ(st.remote.workers_lost, 3u);    // every launch died holding a lease
  EXPECT_EQ(st.remote.local_fallback_points, st.unique_points);
  expect_matches_baseline(runs, baseline, "spent-budget schedule");
  EXPECT_EQ(outcome.exit_code, 128 + SIGKILL);
  EXPECT_EQ(outcome.launches, 3);
  EXPECT_TRUE(outcome.budget_spent);
  service.reset();
}

// ----------------------------------------------------- fault summary line

TEST(ServiceStats, FaultSummaryIsDeterministicAndOmitsZeroCounters) {
  sweep::ServiceStats st;
  EXPECT_EQ(sweep::format_fault_summary(st), "faults: none");
  st.remote.workers_lost = 2;
  st.remote.chunks_redispatched = 3;
  EXPECT_EQ(sweep::format_fault_summary(st),
            "faults: workers_lost=2 chunks_redispatched=3");
  st.remote.heartbeats_missed = 1;
  st.remote.duplicate_results = 4;
  st.remote.local_fallback_points = 5;
  EXPECT_EQ(sweep::format_fault_summary(st),
            "faults: workers_lost=2 heartbeats_missed=1 "
            "chunks_redispatched=3 duplicate_results=4 "
            "local_fallback_points=5");
  // Fleet size is not a fault: a clean remote sweep still reads "none".
  sweep::ServiceStats clean;
  clean.remote_workers = 3;
  EXPECT_EQ(sweep::format_fault_summary(clean), "faults: none");
}

}  // namespace
}  // namespace sdrmpi
