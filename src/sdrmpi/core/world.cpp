#include "sdrmpi/core/world.hpp"

#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "sdrmpi/core/ckpt.hpp"
#include "sdrmpi/core/protocol.hpp"
#include "sdrmpi/core/recovery.hpp"
#include "sdrmpi/util/hash.hpp"
#include "sdrmpi/util/log.hpp"

namespace sdrmpi::core {

namespace {

void validate(const RunConfig& cfg) {
  if (cfg.nranks < 1) throw std::invalid_argument("nranks must be >= 1");
  if (cfg.replication < 1) {
    throw std::invalid_argument("replication must be >= 1");
  }
  if (cfg.protocol == ProtocolKind::Native && cfg.replication != 1) {
    throw std::invalid_argument("native protocol requires replication == 1");
  }
  if (cfg.protocol == ProtocolKind::Ckpt) {
    if (cfg.replication != 1) {
      throw std::invalid_argument("ckpt protocol requires replication == 1");
    }
    for (const FaultSpec& f : cfg.faults) {
      if (f.at_time < 0) {
        // No process actually dies under the charge-forward model, so a
        // send-count placement has nothing to attach to.
        throw std::invalid_argument(
            "ckpt protocol supports at_time faults only");
      }
    }
  }
}

[[nodiscard]] const RunConfig& validated(const RunConfig& cfg) {
  validate(cfg);
  return cfg;
}

}  // namespace

World::World(RunConfig config, AppFn app)
    : app_(std::move(app)),
      fabric_(net::make_fabric(engine_, validated(config).net,
                               Topology{config.nranks, config.replication}
                                   .nslots(),
                               config.nranks)),
      detector_(job_) {
  engine_.set_time_limit(config.time_limit);

  const Topology topo{config.nranks, config.replication};
  const int nslots = topo.nslots();
  job_.engine = &engine_;
  job_.fabric = fabric_.get();
  job_.config = std::move(config);
  job_.topo = topo;
  job_.endpoints.resize(static_cast<std::size_t>(nslots));
  job_.pids.assign(static_cast<std::size_t>(nslots), -1);
  job_.results.resize(static_cast<std::size_t>(nslots));
  job_.snapshots.resize(static_cast<std::size_t>(nslots));
  job_.restart_state.resize(static_cast<std::size_t>(nslots));
  job_.fault_fired.assign(job_.config.faults.size(), false);
  job_.sdc_fired.assign(job_.config.sdc.size(), false);
  for (int s = 0; s < nslots; ++s) {
    auto& res = job_.results[static_cast<std::size_t>(s)];
    res.slot = s;
    res.rank = topo.rank_of(s);
    res.world = topo.world_of(s);
  }

  job_.trigger_crash = [this](int slot) { detector_.crash_now(slot); };

  build_endpoints();
  install_recovery();
}

World::~World() = default;

// ---- endpoints and communicators (Figure 6 world layout) ----
void World::build_endpoints() {
  const Topology& topo = job_.topo;
  const int nslots = topo.nslots();
  // Both launch-time mappings are affine, so every endpoint carries an O(1)
  // iota descriptor instead of its own O(nslots) table.
  const mpi::RankMap all_slots = mpi::RankMap::iota(0, nslots);
  for (int s = 0; s < nslots; ++s) {
    const int w = topo.world_of(s);
    const int r = topo.rank_of(s);
    auto ep = std::make_unique<mpi::Endpoint>(*fabric_, s, w, topo.nworlds);
    // ctx 0/1: the internal launch-time world (kept inside the protocol).
    job_.internal_comm_handle = ep->register_comm_fixed(0, 1, s, all_slots);
    // ctx 2/3: this replica's application world.
    job_.app_comm_handle = ep->register_comm_fixed(
        2, 3, r, mpi::RankMap::iota(w * topo.nranks, topo.nranks));
    ep->set_coll_tuning(job_.config.coll);
    ep->set_protocol(make_protocol(job_, s));
    job_.endpoints[static_cast<std::size_t>(s)] = std::move(ep);
  }
}

// ---- the per-slot application body ----
void World::slot_body(int slot) {
  mpi::Endpoint& ep = job_.endpoint(slot);
  mpi::Comm world(&ep, job_.app_comm_handle);
  mpi::Env::Hooks hooks;
  hooks.report_checksum = [this, slot](std::uint64_t d) {
    auto& res = job_.results[static_cast<std::size_t>(slot)];
    res.checksum = res.reported_checksum ? util::hash_combine(res.checksum, d)
                                         : d;
    res.reported_checksum = true;
  };
  hooks.report_value = [this, slot](const std::string& k, double v) {
    job_.results[static_cast<std::size_t>(slot)].values[k] = v;
  };
  hooks.offer_snapshot = [this, slot](std::vector<std::byte> state) {
    job_.snapshots[static_cast<std::size_t>(slot)] = std::move(state);
  };
  mpi::Env env(ep, world, std::move(hooks),
               job_.restart_state[static_cast<std::size_t>(slot)]);
  app_(env);
  job_.results[static_cast<std::size_t>(slot)].finish_time = engine_.now();
  // Implicit MPI_Finalize: serve a last recovery safe point, then keep
  // progressing until every buffered message has been acknowledged (or
  // its receiver's failure cancelled the expectation). Without this a
  // finished process could no longer retransmit on a sibling's crash.
  ep.recovery_point();
  ep.progress_until([&ep] { return ep.protocol().quiescent(); }, "finalize");
}

// ---- recovery respawn (paper §3.4) ----
void World::install_recovery() {
  job_.respawn = [this](int slot, std::vector<std::byte> state,
                        int from_slot) {
    auto cloned = clone_endpoint_for_recovery(job_, slot, from_slot);
    if (cloned == nullptr) {
      // The protocol checks fork feasibility before calling respawn; this
      // is a safety net.
      throw std::logic_error("respawn: recovery cut not clean");
    }
    job_.endpoints[static_cast<std::size_t>(slot)] = std::move(cloned);
    auto proto = make_protocol(job_, slot);
    // The recovered replica adopts the substitute's (consistent) view of
    // which processes are alive; its own tables start from world defaults.
    auto* sub_proto = dynamic_cast<ReplicatedProtocol*>(
        &job_.endpoint(from_slot).protocol());
    auto* new_proto = dynamic_cast<ReplicatedProtocol*>(proto.get());
    if (sub_proto != nullptr && new_proto != nullptr) {
      for (int s = 0; s < job_.topo.nslots(); ++s) {
        new_proto->map().set_alive(s, sub_proto->map().alive(s));
      }
      new_proto->map().set_alive(slot, true);
    }
    job_.endpoint(slot).set_protocol(std::move(proto));
    if (util::log_level() >= util::LogLevel::Debug && state.size() >= 4) {
      int iter = 0;
      std::memcpy(&iter, state.data(), sizeof(int));
      SDR_LOG(Debug, "core") << "respawn slot " << slot << " app-iter~" << iter
                             << " exp(ctx2,src0)="
                             << job_.endpoint(slot).next_recv_seq(2, 0)
                             << " exp(ctx2,src1)="
                             << job_.endpoint(slot).next_recv_seq(2, 1)
                             << " send(ctx2,dst0)="
                             << job_.endpoint(slot).next_send_seq(2, 0)
                             << " send(ctx2,dst1)="
                             << job_.endpoint(slot).next_send_seq(2, 1);
    }
    job_.restart_state[static_cast<std::size_t>(slot)] = std::move(state);

    const std::string name = "r" + std::to_string(job_.topo.rank_of(slot)) +
                             ".w" + std::to_string(job_.topo.world_of(slot)) +
                             ".rec";
    const int pid = engine_.spawn(name, [this, slot] { slot_body(slot); });
    job_.endpoint(slot).rebind_process(pid);
    job_.pids[static_cast<std::size_t>(slot)] = pid;
  };
}

sim::RunOutcome World::drive() {
  if (!spawned_) {
    spawned_ = true;
    // Every run starts with a cold digest memo so bytes_hashed is a pure
    // function of the run (independent of which pool thread executes it or
    // what ran on that thread before); within the run, repeated symbolic
    // shapes still digest for free.
    net::clear_pattern_digest_memo();
    bytes_at_start_ = util::byte_counters();
    const Topology& topo = job_.topo;
    for (int s = 0; s < topo.nslots(); ++s) {
      const std::string name = "r" + std::to_string(topo.rank_of(s)) + ".w" +
                               std::to_string(topo.world_of(s));
      const int pid = engine_.spawn(name, [this, s] { slot_body(s); });
      job_.endpoint(s).bind_process(pid);
      job_.pids[static_cast<std::size_t>(s)] = pid;
    }
    if (job_.config.protocol == ProtocolKind::Ckpt) {
      ckpt_ = std::make_unique<CkptController>(job_);
      job_.ckpt = ckpt_.get();
      ckpt_->arm();
    }
    detector_.arm_time_faults();
  }
  return engine_.run();
}

void World::arm_faults(std::vector<FaultSpec> faults) {
  job_.config.faults = std::move(faults);
  job_.fault_fired.assign(job_.config.faults.size(), false);
  detector_.arm_time_faults();
}

RunResult World::collect(const sim::RunOutcome& outcome) {
  const int nslots = job_.topo.nslots();
  RunResult res;
  res.deadlock = outcome.deadlock;
  res.time_limit_hit = outcome.time_limit_hit;
  if (outcome.deadlock) {
    for (int s = 0; s < nslots; ++s) {
      const int pid = job_.pids[static_cast<std::size_t>(s)];
      if (engine_.process(pid).state() == sim::ProcState::Blocked) {
        SDR_LOG(Warn, "core") << job_.endpoint(s).debug_state()
                              << job_.endpoint(s).protocol().debug_state();
      }
    }
  }
  res.rank_lost = job_.rank_lost;
  res.errors = std::move(job_.errors);
  res.protocol = job_.pstats;
  res.fabric = fabric_->stats();
  res.events_executed = outcome.events_executed;
  res.context_switches = outcome.context_switches;
  const util::ByteCounters& bc = util::byte_counters();
  res.bytes_copied = bc.bytes_copied - bytes_at_start_.bytes_copied;
  res.bytes_hashed = bc.bytes_hashed - bytes_at_start_.bytes_hashed;

  // Per-subsystem host-memory accounting (MemStats docs in run_config.hpp).
  const sim::StackStats& ss = engine_.stack_stats();
  res.mem.stack_bytes_reserved = ss.bytes_mapped;
  res.mem.stack_bytes_peak = ss.bytes_mapped_peak;
  res.mem.stack_depth_peak = ss.stack_depth_peak;
  res.mem.fabric_bytes = fabric_->footprint_bytes();
  res.mem.payload_slab_bytes = engine_.buffer_pool().stats().bytes_allocated;

  for (int s = 0; s < nslots; ++s) {
    SlotResult& sr = job_.results[static_cast<std::size_t>(s)];
    const int pid = job_.pids[static_cast<std::size_t>(s)];
    const sim::Process& proc = engine_.process(pid);
    sr.final_state = sim::to_string(proc.state());
    if (proc.state() == sim::ProcState::Finished) {
      res.makespan = std::max(res.makespan, sr.finish_time);
    }
    if (proc.state() == sim::ProcState::Failed && proc.error() != nullptr) {
      try {
        std::rethrow_exception(proc.error());
      } catch (const std::exception& e) {
        res.errors.push_back(proc.name() + ": " + e.what());
      } catch (...) {
        res.errors.push_back(proc.name() + ": unknown error");
      }
    }
    res.mem.endpoint_bytes += job_.endpoint(s).footprint_bytes();
    const mpi::EndpointStats& st = job_.endpoint(s).stats();
    res.app_sends += st.app_sends;
    res.data_frames += st.data_frames_sent;
    res.ctl_frames += st.ctl_frames_sent;
    res.unexpected += st.unexpected;
    res.duplicates_dropped += st.duplicates_dropped;
    res.slots.push_back(std::move(sr));
  }
  return res;
}

}  // namespace sdrmpi::core
