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

/// One frame arriving at a slot's inbox. `data` is the wire frame (the
/// envelope, plus any inline payload); `bulk` is an optional zero-copy
/// attachment for large transfers — it shares the sender's buffer instead
/// of copying it, while still being charged as wire bytes by the cost
/// model. Both return their slabs to the engine's pool on destruction.
struct Delivery {
  int src_slot = -1;
  int dst_slot = -1;
  Time sent_at = 0;
  Time arrival = 0;
  std::uint64_t frame_no = 0;  // global injection order (diagnostics)
  bool out_of_band = false;    // true for failure-detector notifications
  Payload data;
  Payload bulk;
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

  /// Injects a frame from the *currently running process* (charges o_send
  /// to its clock and serialises on its egress). `frame` is the wire
  /// envelope (+ inline payload); `bulk` an optional zero-copy attachment
  /// shared with the sender (see Delivery). `wire_bytes` is the modeled
  /// size; pass 0 to use frame.size() + bulk.size() + kHeaderBytes.
  void send(int src_slot, int dst_slot, Payload frame, Payload bulk,
            std::size_t wire_bytes = 0);
  void send(int src_slot, int dst_slot, Payload frame,
            std::size_t wire_bytes = 0) {
    send(src_slot, dst_slot, std::move(frame), Payload{}, wire_bytes);
  }

  /// Delivers an out-of-band notification at absolute time `at` without
  /// consuming network resources (the paper's external failure-detection
  /// service). FIFO with respect to nothing; marked out_of_band.
  void inject_oob(int dst_slot, Payload frame, Time at);

  /// The engine's buffer pool; all frame/payload buffers should draw from
  /// it so they recycle instead of hitting the heap.
  [[nodiscard]] util::BufferPool& pool() noexcept {
    return engine_.buffer_pool();
  }

  /// Pool-backed copy of `bytes` (convenience for raw-fabric callers).
  [[nodiscard]] Payload make_payload(std::span<const std::byte> bytes) {
    return Payload::copy_of(&pool(), bytes);
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

  void deliver(Delivery&& d);

  sim::Engine& engine_;
  NetParams params_;
  FixedCosts costs_;
  std::vector<Slot> slots_;
  std::uint64_t frame_no_ = 0;
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
