// Reproduces Figure 17: hardware and time utilization of the key
// components (position ring, force ring, filters, PEs, motion-update
// units) for all seven design variants. Hardware utilization is work done
// versus capacity; time utilization is the fraction of cycles a component
// was active (§5.3).
//
// The table is sourced from the obs metrics registry (DESIGN.md §12): each
// variant runs with a hub attached and the bench reads the `util.*` gauges
// out of the snapshot — the same numbers any external scraper would see —
// instead of calling Simulation::utilization() directly.
//
// Flags:
//   --iters N     timesteps per variant (default 2)
//   --filters N   ablation: filters per pipeline (default 6; the paper
//                 argues 6 matches the one-force-per-cycle pipeline)

#include "bench_common.hpp"
#include "fasda/obs/obs.hpp"

namespace {

int run_fig17_utilization(const fasda::util::Cli& cli) {
  using namespace fasda;
  const int iters = static_cast<int>(cli.get_or("iters", 2L));
  const int filters = static_cast<int>(cli.get_or("filters", 6L));

  bench::print_header("Figure 17 -- Utilization of key components");
  if (filters != 6) std::printf("[ablation: %d filters per pipeline]\n", filters);
  std::printf("%-9s | %5s %5s | %5s %5s | %6s %6s | %5s %5s | %5s %5s\n",
              "variant", "PR-hw", "PR-t", "FR-hw", "FR-t", "Flt-hw", "Flt-t",
              "PE-hw", "PE-t", "MU-hw", "MU-t");

  for (const auto& variant : bench::table1_variants()) {
    auto config = variant.config;
    config.filters_per_pipeline = filters;
    obs::Hub hub;  // fresh per variant: each snapshot covers one design
    config.obs = &hub;
    const auto state = bench::standard_dataset(variant.cells);
    core::Simulation sim(state, md::ForceField::sodium(), config);
    sim.run(iters);
    const obs::MetricsSnapshot snap = hub.metrics().snapshot();
    std::printf(
        "%-9s | %5.2f %5.2f | %5.2f %5.2f | %6.2f %6.2f | %5.2f %5.2f | "
        "%5.3f %5.3f\n",
        variant.name.c_str(), snap.gauge_or("util.pr.hardware"),
        snap.gauge_or("util.pr.time"), snap.gauge_or("util.fr.hardware"),
        snap.gauge_or("util.fr.time"), snap.gauge_or("util.filter.hardware"),
        snap.gauge_or("util.filter.time"), snap.gauge_or("util.pe.hardware"),
        snap.gauge_or("util.pe.time"), snap.gauge_or("util.mu.hardware"),
        snap.gauge_or("util.mu.time"));
  }

  std::printf(
      "\nPaper reference points: PE time ~0.8, PE hardware 0.5-0.6, filters\n"
      "matching the PEs, MU < 0.05, PR underused (position locality), PR/FR\n"
      "utilization rising with node count in weak scaling.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return fasda::util::Cli::run(
      argc, argv, "fig17_utilization",
      {"filters", "iters"},
      run_fig17_utilization);
}
