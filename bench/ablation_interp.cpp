// Ablation of the interpolation depth (§3.4): bins per section versus the
// worst-case relative error of the r^-14 table, the measured per-particle
// force error of the functional engine, and the coefficient-storage cost
// the resource model charges per pipeline. Shows why the default (14
// sections x 256 bins) sits at the knee: error comfortably below float32
// working precision at ~7 BRAM per table pair.
//
//   ./ablation_interp [--per-cell N]

#include <cmath>

#include "bench_common.hpp"
#include "fasda/md/energy.hpp"
#include "fasda/md/functional_engine.hpp"

namespace {

int run_ablation_interp(const fasda::util::Cli& cli) {
  using namespace fasda;
  const int per_cell = static_cast<int>(cli.get_or("per-cell", 16L));

  bench::print_header("Ablation -- interpolation depth (Eqs. 8-10)");

  const auto ff = md::ForceField::sodium();
  const auto state = bench::standard_dataset({3, 3, 3}, per_cell);
  const auto exact = md::compute_forces(state, ff, 8.5);
  double force_scale = 0.0;
  for (const auto& f : exact) force_scale = std::max(force_scale, f.norm());

  std::printf("%8s | %14s %14s | %10s\n", "bins", "table max err",
              "force max err", "36Kb BRAMs");

  for (const int bins : {16, 32, 64, 128, 256, 512, 1024}) {
    interp::InterpConfig table_config;
    table_config.num_bins = bins;
    const auto table = interp::InterpTable::build_r_pow(14, table_config);
    const double table_err = table.max_relative_error(
        [](double x) { return std::pow(x, -7.0); }, 8);

    md::FunctionalConfig config;
    config.cutoff = 8.5;
    config.dt = 2.0;
    config.table = table_config;
    md::FunctionalEngine engine(state, ff, config);
    engine.evaluate_forces();
    const auto approx = engine.forces_by_particle();
    double worst = 0.0;
    for (std::size_t i = 0; i < exact.size(); ++i) {
      worst = std::max(worst, (approx[i].cast<double>() - exact[i]).norm());
    }
    // Two coefficients per bin, two tables (r^-14 and r^-8) per pipeline.
    const double brams =
        std::ceil(2.0 * table.storage_bits() / (36.0 * 1024.0));

    std::printf("%8d | %14.3e %14.3e | %10.0f%s\n", bins, table_err,
                worst / force_scale, brams, bins == 256 ? "   <- default" : "");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return fasda::util::Cli::run(
      argc, argv, "ablation_interp", {"per-cell"}, run_ablation_interp);
}
