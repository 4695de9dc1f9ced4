// Run configuration and result types for replicated executions.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sdrmpi/mpi/coll/tuning.hpp"
#include "sdrmpi/net/params.hpp"
#include "sdrmpi/sim/time.hpp"

namespace sdrmpi::core {

/// Which replication protocol drives the run.
enum class ProtocolKind : int {
  Native,       ///< no replication machinery at all (baseline)
  Sdr,          ///< the paper: parallel protocol + send-determinism
  Mirror,       ///< MR-MPI-style: every replica sends to every replica
  Leader,       ///< rMPI-style: parallel protocol + leader-decided wildcards
  RedMpiLeader, ///< redMPI SDC detection, leader-based wildcards
  RedMpiSd,     ///< redMPI SDC detection using send-determinism (paper §2.4:
                ///< "the solutions we propose could also be used by redMPI")
  Ckpt,         ///< coordinated checkpoint/restart — the paper's rival
                ///< (replication==1; periodic global checkpoints, failures
                ///< charge restart + rework instead of killing the rank)
};

[[nodiscard]] const char* to_string(ProtocolKind k) noexcept;

/// A fail-stop fault: crash `slot` either at an absolute virtual time or
/// right before its nth application send (deterministic test placement).
struct FaultSpec {
  int slot = -1;
  Time at_time = -1;           ///< crash at this virtual time (if >= 0)
  std::int64_t at_send = -1;   ///< crash before this (0-based) app send

  [[nodiscard]] bool operator==(const FaultSpec&) const = default;
};

/// Silent-data-corruption injection: flip one byte in the payload of the
/// nth application send of `slot` (exercises redMPI detection).
struct SdcSpec {
  int slot = -1;
  std::int64_t at_send = 0;

  [[nodiscard]] bool operator==(const SdcSpec&) const = default;
};

/// Coordinated checkpoint/restart parameters (ProtocolKind::Ckpt).
///
/// Cost model ("charge-forward"): every `interval` of virtual time, all
/// live processes are charged `checkpoint_cost`; a fail-stop fault at Tf
/// charges every process `restart_cost + (Tf - last_checkpoint)` at
/// detection time — restart plus lost rework — and execution continues
/// without killing anyone. Exact for send-deterministic applications: the
/// paper's own premise is that re-execution from a checkpoint replays the
/// identical sends, so the rolled-back interval costs exactly the virtual
/// time it originally took.
struct CkptConfig {
  Time interval = 0;  ///< 0 disables the boundary chain (still a valid run)
  Time checkpoint_cost = timeunits::milliseconds(250.0);
  Time restart_cost = timeunits::seconds(2.0);

  [[nodiscard]] bool operator==(const CkptConfig&) const = default;
};

struct RunConfig {
  int nranks = 2;        ///< logical MPI ranks the application sees
  int replication = 1;   ///< replicas per rank (paper evaluates r=2)
  ProtocolKind protocol = ProtocolKind::Native;
  net::NetParams net = net::NetParams::infiniband_20g();
  /// Collective algorithm selection (mpi/coll/tuning.hpp). Algorithm
  /// choice moves virtual time, so it is run configuration — a Sweep axis
  /// with golden-trace variants — not an implementation detail.
  mpi::CollTuning coll;

  /// Checkpoint/restart knobs; consulted only when protocol == Ckpt.
  CkptConfig ckpt;

  std::vector<FaultSpec> faults;
  std::vector<SdcSpec> sdc;
  Time detection_delay = timeunits::microseconds(50.0);  ///< detector latency
  bool auto_recover = false;  ///< fork a fresh replica at the next safe point

  // Ablations (paper §3.2/§3.3 discussion).
  bool ack_on_wait = false;    ///< ack at app-level completion => can deadlock
  bool eager_copy_completion = false;  ///< complete sends early, extra copy
  double copy_cost_ns_per_byte = 0.05; ///< modeled memcpy cost for the above

  Time time_limit = timeunits::seconds(600.0);  ///< virtual-time failsafe
  std::uint64_t seed = 0x5dbULL;                ///< workload RNG seed

  /// Field-wise equality over every knob that can move a run's outcome.
  /// The sweep service's content-addressed cache relies on the contract
  /// that two configs serialize (and digest) identically iff they are ==
  /// (sweep/config_key.hpp); adding a field here means extending the
  /// canonical serialization and bumping its format version.
  [[nodiscard]] bool operator==(const RunConfig&) const = default;
};

/// Protocol-level counters aggregated over all physical processes.
/// Field-wise comparable: the determinism fuzzer asserts bit-identical
/// stats across run_many pool sizes.
struct ProtocolStats {
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t stale_acks = 0;       // acks for already-released records
  std::uint64_t resends = 0;          // failover retransmissions
  std::uint64_t decisions_sent = 0;   // leader protocol
  std::uint64_t decisions_used = 0;
  std::uint64_t hashes_sent = 0;      // redMPI
  std::uint64_t hashes_compared = 0;
  std::uint64_t sdc_detected = 0;
  std::uint64_t failures_observed = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t extra_copies = 0;     // eager_copy_completion ablation
  // Checkpoint/restart protocol (ProtocolKind::Ckpt).
  std::uint64_t checkpoints_taken = 0;
  std::uint64_t restarts = 0;         // fail-stop faults absorbed by restart
  std::uint64_t rework_ns = 0;        // virtual ns re-executed after restarts

  [[nodiscard]] bool operator==(const ProtocolStats&) const = default;
};

/// Per-physical-process outcome.
struct SlotResult {
  int slot = -1;
  int rank = -1;
  int world = -1;
  std::string final_state;     // Finished / Crashed / Failed
  Time finish_time = 0;
  std::uint64_t checksum = 0;  // 0 if the app reported nothing
  bool reported_checksum = false;
  std::map<std::string, double> values;

  [[nodiscard]] bool operator==(const SlotResult&) const = default;
};

/// Per-subsystem host-memory accounting for one run (bytes). Host-side
/// only: NOT part of the golden-trace digest, and excluded from RunResult
/// equality — unlike bytes_copied/bytes_hashed these depend on allocator
/// and cache state (a warm-forked engine reuses recycled stacks and pooled
/// buffers, so its totals legitimately differ from a cold run's). This is
/// the "what dominates next" instrument for the scaling work: when a rank
/// count stops fitting, the guilty subsystem is visible here instead of
/// guessed.
struct MemStats {
  std::uint64_t stack_bytes_reserved = 0;  ///< fiber stacks mapped at finish
  std::uint64_t stack_bytes_peak = 0;      ///< high-water mapped stack bytes
  std::uint64_t stack_depth_peak = 0;      ///< SDRMPI_STACK_WATERMARK only
  std::uint64_t endpoint_bytes = 0;   ///< seq/queue/comm state, all endpoints
  std::uint64_t fabric_bytes = 0;     ///< per-slot/per-link fabric state
  std::uint64_t payload_slab_bytes = 0;  ///< buffer-pool heap bytes drawn

  [[nodiscard]] bool operator==(const MemStats&) const = default;
};

struct RunResult {
  bool deadlock = false;
  bool time_limit_hit = false;
  bool rank_lost = false;        ///< all replicas of some rank died
  std::vector<std::string> errors;

  Time makespan = 0;             ///< max finish time over surviving processes
  std::vector<SlotResult> slots;

  // Traffic totals.
  std::uint64_t app_sends = 0;        // logical isend operations
  std::uint64_t data_frames = 0;      // physical data copies on the wire
  std::uint64_t ctl_frames = 0;
  std::uint64_t unexpected = 0;
  std::uint64_t duplicates_dropped = 0;
  // Engine totals (host-side determinism fingerprint: bit-identical runs
  // must agree on these as well as on makespan and checksums).
  std::uint64_t events_executed = 0;
  std::uint64_t context_switches = 0;
  // Host bytes touched for simulated payload contents during this run
  // (util::byte_counter deltas): memcpy/fill traffic and digest hashing.
  // Deterministic per run (the digest memo is reset at run start), but
  // deliberately NOT folded into the golden-trace digest: they measure
  // host-side work, which performance PRs change on purpose.
  std::uint64_t bytes_copied = 0;
  std::uint64_t bytes_hashed = 0;
  ProtocolStats protocol;
  net::FabricStats fabric;  ///< traffic + link-contention counters
  MemStats mem;             ///< per-subsystem host-memory accounting

  /// Bit-level equality over the simulated result (slots, counters,
  /// errors). The sweep service's cache round-trip tests assert
  /// decode(encode(r)) == r for every field; sweep-layout invariance tests
  /// assert sharded executions reproduce the single-chunk results exactly.
  /// `mem` is deliberately left out: host-memory accounting tracks
  /// allocator/cache state, not simulated outcome (see MemStats).
  [[nodiscard]] bool operator==(const RunResult& o) const {
    return deadlock == o.deadlock && time_limit_hit == o.time_limit_hit &&
           rank_lost == o.rank_lost && errors == o.errors &&
           makespan == o.makespan && slots == o.slots &&
           app_sends == o.app_sends && data_frames == o.data_frames &&
           ctl_frames == o.ctl_frames && unexpected == o.unexpected &&
           duplicates_dropped == o.duplicates_dropped &&
           events_executed == o.events_executed &&
           context_switches == o.context_switches &&
           bytes_copied == o.bytes_copied && bytes_hashed == o.bytes_hashed &&
           protocol == o.protocol && fabric == o.fabric;
  }

  [[nodiscard]] bool clean() const noexcept {
    return !deadlock && !time_limit_hit && !rank_lost && errors.empty();
  }

  /// Seconds of virtual time for the whole run.
  [[nodiscard]] double seconds() const noexcept {
    return timeunits::to_sec(makespan);
  }

  /// Checksum of rank `r` in world `w`; 0 if that process reported none.
  [[nodiscard]] std::uint64_t checksum_of(int rank, int world = 0) const;

  /// True when every process that reported a checksum agrees per rank.
  [[nodiscard]] bool checksums_consistent() const;
};

}  // namespace sdrmpi::core
