// Contention study: flat IB-20G abstraction vs a k-ary fat-tree with
// oversubscribed spine links, across the four protocol families
// (Native / SDR / Leader / redMPI-SD).
//
// The paper's evaluation assumes a flat fabric; replication doubles the
// physical processes and re-routes acks and duplicate data across the
// machine, so the interesting question is how much of the measured
// replication overhead is protocol cost vs network contention. This sweep
// reports, per protocol, the flat-model makespan, the fat-tree makespan
// under spread and packed replica placement, and the per-link stall totals
// the fat-tree backend accumulates.
#include <iostream>

#include "bench_support.hpp"

static int bench_main(const sdrmpi::util::Options& opts) {
  using namespace sdrmpi;
  bench::check_options(
      opts, bench::with_workload_flags({"nranks", "rpn", "nps", "oversub"}));
  bench::banner(opts, "Fabric contention sweep (flat vs fat-tree)",
                "section 5 discussion (network model sensitivity)");

  const int nranks = static_cast<int>(opts.get_int("nranks", 8));
  const int ranks_per_node = static_cast<int>(opts.get_int("rpn", 2));
  const int nodes_per_switch = static_cast<int>(opts.get_int("nps", 2));
  const double oversub = opts.get_double("oversub", 4.0);

  net::TopologySpec spread =
      net::TopologySpec::fat_tree(ranks_per_node, nodes_per_switch, oversub);
  net::TopologySpec packed = spread;
  packed.placement = net::PlacementPolicy::PackRanks;

  // HPCCG is the comm-heaviest Table 2 app (halo exchanges + dot-product
  // allreduces every iteration) — the regime where shared links queue.
  util::Options wl_opts = opts;
  if (!opts.has("nx")) wl_opts.set("nx", "16");
  if (!opts.has("ny")) wl_opts.set("ny", "16");
  if (!opts.has("nz")) wl_opts.set("nz", "8");
  if (!opts.has("iters")) wl_opts.set("iters", "24");
  const auto app = wl::make_workload("hpccg", wl_opts);

  core::Sweep sweep;
  sweep.base.nranks = nranks;
  sweep.base.replication = 2;
  sweep.protocols = {core::ProtocolKind::Native, core::ProtocolKind::Sdr,
                     core::ProtocolKind::Leader, core::ProtocolKind::RedMpiSd};
  sweep.topologies = {net::TopologySpec::flat(), spread, packed};

  std::vector<bench::Point> points;
  for (core::RunConfig& cfg : sweep.expand()) {
    // Native is unreplicated (one world), where placement is the identity
    // mapping — the packed point would duplicate the spread one.
    if (cfg.protocol == core::ProtocolKind::Native &&
        cfg.net.topology.placement == net::PlacementPolicy::PackRanks) {
      continue;
    }
    std::string label = std::string(core::to_string(cfg.protocol)) + "/" +
                        net::to_string(cfg.net.topology.kind);
    if (cfg.net.topology.kind == net::TopologyKind::FatTree) {
      label += "/";
      label += net::to_string(cfg.net.topology.placement);
    }
    points.push_back({std::move(label), std::move(cfg), app});
  }
  const auto results = bench::run_points(points, opts);
  if (bench::json_mode(opts)) {
    bench::emit_json(std::cout, "fig_contention", points, results);
    return 0;
  }

  util::Table table({"Protocol", "Topology", "Time (ms)", "vs flat (%)",
                     "Link stalls", "Stall (ms)", "Spine frames"});
  double flat_ms = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    const auto& r = results[i].run;
    const double ms = results[i].mean_sec * 1e3;
    const bool is_flat =
        p.cfg.net.topology.kind == net::TopologyKind::Flat;
    if (is_flat) flat_ms = ms;
    std::string topo = net::to_string(p.cfg.net.topology.kind);
    if (!is_flat) {
      topo += "/";
      topo += net::to_string(p.cfg.net.topology.placement);
    }
    table.add_row(
        {core::to_string(p.cfg.protocol), topo, util::format_double(ms, 3),
         is_flat ? "-" : util::format_double(100.0 * (ms - flat_ms) / flat_ms,
                                             1),
         std::to_string(r.fabric.link_stalls),
         util::format_double(static_cast<double>(r.fabric.link_stall_ns) / 1e6,
                             3),
         std::to_string(r.fabric.inter_switch_frames)});
  }
  table.print(std::cout);
  std::cout << "\nfat-tree: " << ranks_per_node << " ranks/node, "
            << nodes_per_switch << " nodes/switch, " << oversub
            << ":1 oversubscribed spine; spread = replicas across switches, "
               "pack = replicas share nodes\n";
  return 0;
}

int main(int argc, char** argv) {
  return sdrmpi::bench::run_main(argc, argv, bench_main);
}
