// The simulated interconnect: reliable FIFO channels between process slots.
//
// Slots are stable addresses (0..nslots-1). The physical process occupying a
// slot can change across recovery (a respawned replica re-attaches), which
// mirrors a recovered MPI process rejoining the job. Frames addressed to a
// dead slot are dropped; frames already in flight when the *sender* dies are
// still delivered (the paper's reliable-channel crash model).
//
// Fabric is the backend interface: attachment, liveness, injection and
// delivery are common; only route() — where and when a frame lands given the
// fabric's link state — is backend-specific. FlatFabric is the original
// LogGP model (per-NIC egress serialization, uniform latency); FatTreeFabric
// adds a node → leaf switch → spine hierarchy with per-link serialization
// queues, so frames sharing a node uplink or an oversubscribed spine link
// contend in virtual time. make_fabric() dispatches on
// NetParams::topology.kind.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sdrmpi/net/params.hpp"
#include "sdrmpi/net/payload.hpp"
#include "sdrmpi/sim/engine.hpp"
#include "sdrmpi/sim/time.hpp"

namespace sdrmpi::net {

/// Frame kinds. Data-path kinds (Eager/Rts/Cts/RdvData) implement the two
/// standard MPI point-to-point protocols. The remaining kinds carry
/// replication-protocol control traffic (acks, leader decisions, redMPI
/// hashes, failure and recovery notifications); the MPI layer routes them
/// to the active protocol's on_ctl hook without interpreting them.
enum class FrameKind : std::uint8_t {
  Eager = 1,      // full payload attached
  Rts,            // rendezvous request-to-send (value = payload bytes)
  Cts,            // clear-to-send (value = rdv id)
  RdvData,        // rendezvous payload (value = rdv id)
  Ack,            // SDR receiver-side acknowledgement
  Decision,       // leader protocol: resolved ANY_SOURCE (value = src rank)
  Hash,           // redMPI payload hash (value = digest)
  Failure,        // failure-detector notification (value = failed slot)
  RecoverNotify,  // recovery marker broadcast by the substitute
  RecoverState,   // recovery snapshot transfer (payload = serialized state)
  Ctl,            // protocol-specific control
};

/// A frame's envelope. It travels by value from the sender to the
/// receiver's matching queues; its modeled wire size is a params.hpp
/// constant (kDataEnvelopeBytes, kHeaderBytes, kCtlFrameBytes), not its
/// sizeof.
struct FrameHeader {
  FrameKind kind = FrameKind::Eager;
  std::uint8_t world = 0;       // sender's replica world id
  std::uint16_t reserved = 0;
  std::uint32_t ctx = 0;        // matching context (mpi::CommCtx)
  std::int32_t src_rank = -1;   // logical sender rank within ctx
  std::int32_t dst_rank = -1;   // logical destination rank within ctx
  std::int32_t tag = 0;
  std::int32_t src_slot = -1;   // physical slot that injected the frame
  std::uint64_t seq = 0;        // per (ctx, src_rank -> dst_rank) sequence
  std::uint64_t value = 0;      // kind-specific
  std::uint64_t aux = 0;        // kind-specific
};

/// One frame at a slot: arriving in its inbox, then parked or queued as
/// unexpected until a receive matches it. `bulk` is the payload (message
/// contents, or a control frame's bytes) as a refcounted handle: a data
/// frame shares the sender's buffer instead of copying it. Its slab
/// returns to the engine's pool when the last handle goes.
struct Delivery {
  FrameHeader h;
  Payload bulk;
  Time arrival = 0;
};

class Fabric {
 public:
  /// Non-owning delivery consumer: a plain function pointer plus context,
  /// invoked once per arriving frame. Replaces the per-slot std::function
  /// of the seed code (one heap-boxed closure per attach, an indirect
  /// virtual-ish call plus a move per frame).
  struct Sink {
    using Fn = void (*)(void* ctx, Delivery&& d);

    Fn fn = nullptr;
    void* ctx = nullptr;

    [[nodiscard]] explicit operator bool() const noexcept {
      return fn != nullptr;
    }
    void operator()(Delivery&& d) const { fn(ctx, std::move(d)); }

    /// Adapts a member function: `Sink::of<&Endpoint::on_delivery>(this)`.
    template <auto Member, class T>
    [[nodiscard]] static Sink of(T* obj) noexcept {
      return Sink{[](void* c, Delivery&& d) {
                    (static_cast<T*>(c)->*Member)(std::move(d));
                  },
                  obj};
    }
  };

  virtual ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Registers the consumer for a slot. `owner_pid` is the engine pid woken
  /// on delivery when it is blocked inside an MPI progress loop.
  void attach(int slot, int owner_pid, Sink sink);

  /// Recovery support: point the slot at a new incarnation.
  void reattach(int slot, int owner_pid, Sink sink);

  /// Marks a slot dead (crash) or alive again (recovery).
  void set_alive(int slot, bool alive);
  [[nodiscard]] bool alive(int slot) const;

  /// Injects a frame from slot `h.src_slot`, run by the *currently running
  /// process* (charges o_send to its clock and serialises on its egress).
  /// `bulk` is shared with the sender (see Delivery); `wire_bytes` is the
  /// modeled size the backend routes.
  void send(int dst_slot, const FrameHeader& h, Payload bulk,
            std::size_t wire_bytes);

  /// Delivers an out-of-band notification at absolute time `at` without
  /// consuming network resources (the paper's external failure-detection
  /// service). FIFO with respect to nothing.
  void inject_oob(int dst_slot, const FrameHeader& h, Time at);

  /// The engine's buffer pool; all payload buffers should draw from it so
  /// they recycle instead of hitting the heap.
  [[nodiscard]] util::BufferPool& pool() noexcept {
    return engine_.buffer_pool();
  }

  /// The per-call and per-frame costs (kCallCostNs, params()), rounded to
  /// whole ns once at construction: every MPI call and frame charges them.
  struct FixedCosts {
    Time call = 0;     ///< kCallCostNs: entering any MPI call
    Time o_send = 0;   ///< o_send_ns: sender CPU per injected frame
    Time o_recv = 0;   ///< o_recv_ns: receiver CPU per processed frame
    Time latency = 0;  ///< latency_ns: flat-model wire/switch latency
  };

  [[nodiscard]] const NetParams& params() const noexcept { return params_; }
  [[nodiscard]] const FixedCosts& fixed_costs() const noexcept {
    return costs_;
  }
  [[nodiscard]] const FabricStats& stats() const noexcept { return stats_; }
  [[nodiscard]] int nslots() const noexcept {
    return static_cast<int>(slots_.size());
  }
  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }

  /// Host bytes held by the fabric's per-slot (and, for tree backends,
  /// per-link) state. Feeds MemStats::fabric_bytes.
  [[nodiscard]] virtual std::size_t footprint_bytes() const noexcept;

 protected:
  Fabric(sim::Engine& engine, NetParams params, int nslots);

  /// Backend hook: given a frame ready for injection at `ready` (sender
  /// clock after o_send), advance the backend's link horizons and return
  /// the arrival time at `dst_slot`. Called once per send, in deterministic
  /// engine order.
  [[nodiscard]] virtual Time route(int src_slot, int dst_slot,
                                   Time ready, std::size_t wire_bytes) = 0;

  /// Passes a frame through one serializing link: waits for the horizon,
  /// occupies it for `ser` ns, records stall/busy stats. A non-positive
  /// `ser` never queues (infinite-bandwidth link).
  [[nodiscard]] Time pass_link(Time t, Time& link_free, Time ser);

  /// The per-slot NIC egress horizon (both backends serialise on it).
  [[nodiscard]] Time& egress_free(int slot) {
    return slots_[static_cast<std::size_t>(slot)].egress_free;
  }

  FabricStats stats_;

 private:
  struct Slot {
    int owner_pid = -1;
    bool alive = true;
    Sink sink;
    Time egress_free = 0;  // NIC serialisation horizon
  };

  /// Event context: hands the frame to the slot's sink, stamped with the
  /// event's time as its arrival.
  void deliver(int dst_slot, const FrameHeader& h, Payload&& bulk);

  sim::Engine& engine_;
  NetParams params_;
  FixedCosts costs_;
  std::vector<Slot> slots_;
};

/// The original flat LogGP model: every pair of slots is one hop apart,
/// only the sender's NIC serialises.
class FlatFabric final : public Fabric {
 public:
  FlatFabric(sim::Engine& engine, NetParams params, int nslots);

 protected:
  [[nodiscard]] Time route(int src_slot, int dst_slot, Time ready,
                           std::size_t wire_bytes) override;
};

/// k-ary fat-tree: slots map to nodes (per TopologySpec::placement), nodes
/// to leaf switches, leaves to one spine. A frame store-and-forwards
/// through NIC → node uplink [→ spine uplink → spine downlink] → node
/// downlink, each with its own serialization horizon; spine links are
/// slowed by the oversubscription factor.
class FatTreeFabric final : public Fabric {
 public:
  /// How a (src, dst) pair relates in the tree.
  enum class PathClass : int { Loopback, IntraNode, IntraSwitch, InterSwitch };

  /// `nranks` is the application world size (slot = world * nranks + rank),
  /// used by the PackRanks placement; pass 0 for single-world layouts.
  FatTreeFabric(sim::Engine& engine, NetParams params, int nslots,
                int nranks = 0);

  [[nodiscard]] int node_of(int slot) const {
    return node_of_.at(static_cast<std::size_t>(slot));
  }
  [[nodiscard]] int switch_of(int slot) const {
    return node_of(slot) / spec_.nodes_per_switch;
  }
  [[nodiscard]] PathClass path_class(int src_slot, int dst_slot) const;
  /// Topological distance in the tree: 0 same slot, 1 same node (loopback
  /// NIC hop), 2 via the shared leaf switch (node up + node down), 4 via
  /// the spine (+ leaf up/down pair). A distance metric, not a
  /// serialization count — loopback and intra-node frames serialize on
  /// exactly the same link (the sender's NIC).
  [[nodiscard]] int hop_count(int src_slot, int dst_slot) const;
  [[nodiscard]] int nnodes() const noexcept {
    return static_cast<int>(node_up_free_.size());
  }

  [[nodiscard]] std::size_t footprint_bytes() const noexcept override;

 protected:
  [[nodiscard]] Time route(int src_slot, int dst_slot, Time ready,
                           std::size_t wire_bytes) override;

 private:
  TopologySpec spec_;
  double link_ns_per_byte_ = 0.0;   // resolved node↔leaf inverse bandwidth
  double spine_ns_per_byte_ = 0.0;  // resolved (oversubscribed) spine bw
  Time lat_intra_node_ = 0;
  Time lat_inter_switch_ = 0;

  std::vector<int> node_of_;        // slot → node
  std::vector<Time> node_up_free_;  // node → leaf link horizon
  std::vector<Time> node_down_free_;
  std::vector<Time> leaf_up_free_;  // leaf → spine link horizon
  std::vector<Time> leaf_down_free_;
};

/// Builds the backend selected by `params.topology.kind`. `nranks` is the
/// application world size (see FatTreeFabric); 0 treats the whole fabric as
/// one world.
[[nodiscard]] std::unique_ptr<Fabric> make_fabric(sim::Engine& engine,
                                                  NetParams params, int nslots,
                                                  int nranks = 0);

}  // namespace sdrmpi::net
