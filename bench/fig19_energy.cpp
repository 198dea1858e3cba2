// Reproduces Figure 19: relative total-energy error of the FASDA numerics
// (fixed-point positions, float32 interpolated forces and accumulation)
// against a 64-bit double-precision simulation of the same system, on the
// 4x4x4 space. The paper runs 100,000 iterations and observes relative
// error always well under 1e-3 and generally below 1e-4.
//
// Flags:
//   --steps N       total timesteps (default 1000; --full = 100000)
//   --sample N      energy sampling period (default steps/20)
//   --bins N        ablation: interpolation bins per section (default 256)
//   --threads N     worker threads for both engines (default 2)

#include <algorithm>
#include <cmath>

#include "bench_common.hpp"
#include "fasda/md/energy.hpp"
#include "fasda/md/functional_engine.hpp"
#include "fasda/md/reference_engine.hpp"

namespace {

int run_fig19_energy(const fasda::util::Cli& cli) {
  using namespace fasda;
  int steps = static_cast<int>(cli.get_or("steps", 1000L));
  if (cli.has_switch("full")) steps = 100000;
  const int sample = static_cast<int>(cli.get_or("sample", std::max(1L, steps / 20L)));
  const int bins = static_cast<int>(cli.get_or("bins", 256L));
  const auto threads = static_cast<std::size_t>(cli.get_or("threads", 2L));

  bench::print_header("Figure 19 -- Energy relative error w.r.t. double precision");
  std::printf("4x4x4 space, 4096 Na, dt = 2 fs, %d steps, %d bins/section\n\n",
              steps, bins);

  const auto ff = md::ForceField::sodium();
  const auto state = bench::standard_dataset({4, 4, 4});

  md::FunctionalConfig config;
  config.cutoff = 8.5;
  config.dt = 2.0;
  config.table.num_bins = bins;
  config.threads = threads;
  md::FunctionalEngine fasda_engine(state, ff, config);
  md::ReferenceEngine reference(state, ff, 8.5, 2.0, threads);

  const double e0 = reference.total_energy();
  std::printf("initial total energy: %.8g internal units\n", e0);
  std::printf("%10s %16s %16s %12s\n", "step", "E(FASDA)", "E(double)",
              "rel. error");

  double worst = 0.0;
  for (int done = 0; done < steps;) {
    const int block = std::min(sample, steps - done);
    fasda_engine.step(block);
    reference.step(block);
    done += block;
    const double ef = fasda_engine.total_energy();
    const double er = reference.total_energy();
    // Both trajectories are measured with the same double-precision
    // observable, exactly like the paper's host-side energy dumps.
    const double rel = std::abs(ef - er) / std::abs(er);
    worst = std::max(worst, rel);
    std::printf("%10d %16.8g %16.8g %12.3e\n", done, ef, er, rel);
  }

  std::printf("\nworst relative error: %.3e  (paper: always << 1e-3, mostly < 1e-4)\n",
              worst);
  std::printf("energy is %s\n",
              worst < 1e-3 ? "conserved (PASS)" : "NOT conserved (FAIL)");
  return worst < 1e-3 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return fasda::util::Cli::run(
      argc, argv, "fig19_energy",
      {"bins", "full", "sample", "steps", "threads"},
      run_fig19_energy);
}
