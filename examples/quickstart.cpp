// Quickstart: simulate the paper's standard workload — 64 sodium atoms per
// (8.5 Å)³ cell, R_c = 8.5 Å, Δt = 2 fs — on a single simulated FPGA and
// report the Fig. 16 metric (µs of MD per day of wall clock at 200 MHz).
//
// Engines are built through the engine registry: swap spec.engine for
// "functional" or "reference" and the identical program drives those back
// ends instead.
//
//   ./quickstart [--iters N] [--engine cycle]

#include <cstdio>

#include "fasda/engine/registry.hpp"
#include "fasda/md/dataset.hpp"
#include "fasda/util/cli.hpp"

namespace {

int run_quickstart(const fasda::util::Cli& cli) {
  using namespace fasda;
  const int iters = static_cast<int>(cli.get_or("iters", 5L));

  // 1. Build the force field and the dataset (3x3x3 cells = 1728 atoms).
  const md::ForceField ff = md::ForceField::sodium();
  md::DatasetParams params;
  params.particles_per_cell = 64;
  params.temperature = 300.0;
  const md::SystemState state = md::generate_dataset({3, 3, 3}, 8.5, ff, params);

  // 2. One FPGA owning all 27 cells: one CBB per cell, one PE per CBB, 6
  //    filters per force pipeline (the paper's baseline). cells_per_node
  //    defaults to the whole space, i.e. a single node.
  engine::EngineSpec spec;
  spec.engine = cli.get_or("engine", "cycle");

  // 3. Run timesteps through the selected engine.
  auto engine = engine::Registry::instance().create(state, ff, spec);
  const double e0 = engine->total_energy();
  engine->step(iters);

  // 4. Report.
  const engine::StepMetrics& m = engine->metrics();
  std::printf("engine           : %s\n", engine->name().c_str());
  std::printf("particles        : %zu\n", state.size());
  std::printf("iterations       : %d\n", iters);
  std::printf("energy drift     : %.3e (relative)\n",
              std::abs(engine->total_energy() - e0) / std::abs(e0));
  if (m.has_cycle_counters) {
    std::printf("cycles/timestep  : %llu\n",
                static_cast<unsigned long long>(m.total_cycles / iters));
    std::printf("simulation rate  : %.2f us/day (paper: ~2 us/day)\n",
                m.microseconds_per_day);
    std::printf("PE utilization   : %.0f%% hardware, %.0f%% time\n",
                100 * m.pe_hardware_utilization, 100 * m.pe_time_utilization);
  } else {
    std::printf("wall time        : %.2f s (%.1f ms/step)\n", m.wall_seconds,
                1000.0 * m.wall_seconds / iters);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return fasda::util::Cli::run(
      argc, argv, "quickstart", {"engine", "iters"}, run_quickstart);
}
