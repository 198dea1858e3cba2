// The paper's generality claim in action (§3.4: the table-lookup method
// "supports generality by enabling different force models to be implemented
// with trivial modification"): a molten NaCl system with BOTH range-limited
// components enabled — Lennard-Jones plus the Ewald real-space
// electrostatic term — running through the same pipelines with one extra
// table. The run is driven through the engine layer: the XYZ trajectory and
// the energy table come from step observers instead of a hand-rolled loop.
// Prints the Na-Cl radial distribution function, whose contact peak shows
// the expected unlike-ion ordering.
//
//   ./custom_force_model [--steps N] [--out /tmp/nacl.xyz]

#include <cstdio>

#include "fasda/engine/observers.hpp"
#include "fasda/engine/registry.hpp"
#include "fasda/md/analysis.hpp"
#include "fasda/md/dataset.hpp"
#include "fasda/util/cli.hpp"

namespace {

int run_custom_force_model(const fasda::util::Cli& cli) {
  using namespace fasda;
  const int steps = static_cast<int>(cli.get_or("steps", 400L));
  const std::string out_path = cli.get_or("out", "/tmp/nacl_trajectory.xyz");

  const md::ForceField ff = md::ForceField::sodium_chloride();
  md::DatasetParams params;
  // 8 ions per cell: a 2x2x2 rock-salt checkerboard, 4.25 Å Na-Cl contact —
  // comfortably integrable at Δt = 2 fs even at melt temperatures.
  params.particles_per_cell = 8;
  params.temperature = 1200.0;  // molten salt
  params.elements = md::ElementAssignment::kAlternating;
  const auto state = md::generate_dataset({4, 4, 4}, 8.5, ff, params);

  engine::EngineSpec spec;
  spec.engine = "functional";
  spec.threads = 2;
  spec.terms.lj = true;
  spec.terms.ewald_real = true;  // the PME short-range component (§2.1)
  spec.terms.ewald_beta = 0.3;

  auto engine = engine::Registry::instance().create(state, ff, spec);
  std::printf("molten NaCl: %zu ions, LJ + Ewald real-space (beta=%.2f)\n",
              state.size(), spec.terms.ewald_beta);

  engine::EnergyTablePrinter table;
  engine::XyzObserver xyz(out_path, ff);
  const auto result = engine::run(*engine, steps, 100, {&table, &xyz});

  std::printf("energy drift: %.2e (relative)\n",
              std::abs(result.final_energies.total - result.initial.total) /
                  std::abs(result.initial.total));
  std::printf("trajectory  : %s (%d frames)\n", out_path.c_str(),
              xyz.frames_written());

  // Unlike-ion structure: g(r) for Na-Cl peaks at contact, Na-Na is pushed
  // outward by the Coulomb repulsion.
  const auto final_state = engine->state();
  const auto na_cl = md::radial_distribution(final_state, 8.0, 32, 0, 1);
  const auto na_na = md::radial_distribution(final_state, 8.0, 32, 0, 0);
  std::printf("\n%6s %10s %10s\n", "r (A)", "g(Na-Cl)", "g(Na-Na)");
  for (std::size_t b = 6; b < 32; b += 2) {
    std::printf("%6.2f %10.2f %10.2f\n", na_cl.r(b), na_cl.g[b], na_na.g[b]);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return fasda::util::Cli::run(
      argc, argv, "custom_force_model",
      {"out", "steps"},
      run_custom_force_model);
}
