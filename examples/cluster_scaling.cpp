// Mirror of the paper artifact's workflow: `./compile.sh 222 444` selects
// 2x2x2 cells per FPGA within a 4x4x4 global space. This example accepts
// the same configuration strings (plus the XxYxZ form for axes >= 10),
// builds the corresponding cluster through the engine registry, runs it,
// and prints the counters the artifact's run.py dumps over AXI-Lite
// (operation cycles, per-component activity, packet traffic).
//
//   ./cluster_scaling [--cells 222] [--space 444] [--pes N] [--spes N]
//                     [--iters N]

#include <cstdio>
#include <stdexcept>
#include <string>

#include "fasda/engine/registry.hpp"
#include "fasda/md/dataset.hpp"
#include "fasda/util/cli.hpp"

namespace {

int run_cluster_scaling(const fasda::util::Cli& cli) {
  using namespace fasda;
  const geom::IVec3 space = util::parse_dims(cli.get_or("space", "444"));
  const int iters = static_cast<int>(cli.get_or("iters", 2L));

  engine::EngineSpec spec;
  spec.engine = "cycle";
  spec.cells_per_node = util::parse_dims(cli.get_or("cells", "222"));
  spec.pes_per_spe = static_cast<int>(cli.get_or("pes", 1L));
  spec.spes = static_cast<int>(cli.get_or("spes", 1L));

  const md::ForceField ff = md::ForceField::sodium();
  md::DatasetParams params;
  params.particles_per_cell = 64;
  const auto state = md::generate_dataset(space, 8.5, ff, params);

  std::unique_ptr<engine::Engine> eng;
  try {
    eng = engine::Registry::instance().create(state, ff, spec);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  const auto& cycle = dynamic_cast<const engine::CycleEngine&>(*eng);
  const auto cluster = engine::cluster_config_for(spec, state);

  std::printf("configuration: %dx%dx%d cells per FPGA, %dx%dx%d space, "
              "%d FPGAs, %d SPE x %d PE\n",
              cluster.cells_per_node.x, cluster.cells_per_node.y,
              cluster.cells_per_node.z, space.x, space.y, space.z,
              cluster.node_dims.product(), cluster.spes, cluster.pes_per_spe);

  eng->step(iters);

  // The counters the artifact reads back over AXI-Lite. StepMetrics carries
  // the headline numbers; the full per-component breakdown comes from the
  // underlying cycle-level simulation.
  const auto& sim = cycle.simulation();
  const auto u = sim.utilization();
  const auto t = sim.traffic();
  std::printf("\noperation_cycle_cnt      : %llu (%d iterations)\n",
              static_cast<unsigned long long>(sim.last_run_cycles()), iters);
  std::printf("PE_cycle_cnt (time util) : %.0f%%\n", 100 * u.pe_time);
  std::printf("filter activity          : %.0f%%\n", 100 * u.filter_time);
  std::printf("PR / FR occupancy        : %.0f%% / %.0f%%\n",
              100 * u.pr_hardware, 100 * u.fr_hardware);
  std::printf("out_traffic_packets_pos  : %llu\n",
              static_cast<unsigned long long>(t.positions.total_packets));
  std::printf("out_traffic_packets_frc  : %llu\n",
              static_cast<unsigned long long>(t.forces.total_packets));
  std::printf("bandwidth demand         : %.1f / %.1f Gbps (pos / frc)\n",
              t.position_gbps_per_node, t.force_gbps_per_node);
  std::printf("simulation rate          : %.2f us/day\n",
              eng->metrics().microseconds_per_day);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return fasda::util::Cli::run(
      argc, argv, "cluster_scaling",
      {"cells", "iters", "pes", "space", "spes"},
      run_cluster_scaling);
}
