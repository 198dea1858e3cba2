// Ablation of the §4.4 synchronization design: chained versus bulk
// synchronization on a 4-FPGA chain (12x3x3 space), with and without an
// injected straggler board. Chained sync decouples the nodes distant from
// the straggler — they start the next iteration early — while bulk sync
// couples every node to the slowest one plus the barrier release latency.
//
// Flags:
//   --iters N        timesteps (default 3)
//   --slowdown K     straggler factor for node 0 (default 2)
//   --barrier N      bulk barrier release latency in cycles (default 2000,
//                    a central-FPGA coordinator; a host round trip would be
//                    ~200000 cycles = 1 ms)

#include "bench_common.hpp"

namespace {

using namespace fasda;

struct Result {
  double us_per_day;
  sim::Cycle spread;  ///< max - min force-phase start of the last iteration
};

Result run(sync::SyncMode mode, int slowdown, int iters, sim::Cycle barrier) {
  // A 4x1x1 node chain (Fig. 12's example): node 2 is not a neighbour of
  // node 0, so chained sync can give it a head start when node 0 lags.
  auto config = bench::weak_config({4, 1, 1});
  config.sync_mode = mode;
  config.bulk_barrier_latency = barrier;
  if (slowdown > 1) config.stragglers.push_back({0, slowdown});
  const auto state = bench::standard_dataset({12, 3, 3});
  core::Simulation sim(state, md::ForceField::sodium(), config);
  sim.run(iters);
  sim::Cycle min_start = ~0ull, max_start = 0;
  for (int n = 0; n < sim.num_nodes(); ++n) {
    const auto& starts = sim.force_phase_starts(n);
    min_start = std::min(min_start, starts.back());
    max_start = std::max(max_start, starts.back());
  }
  return {sim.microseconds_per_day(), max_start - min_start};
}

int run_ablation_sync(const fasda::util::Cli& cli) {
  using namespace fasda;
  const int iters = static_cast<int>(cli.get_or("iters", 3L));
  const int slowdown = static_cast<int>(cli.get_or("slowdown", 2L));
  const auto barrier = static_cast<sim::Cycle>(cli.get_or("barrier", 2000L));

  bench::print_header(
      "Ablation -- chained vs bulk synchronization (12x3x3, 4-FPGA chain)");
  std::printf("%-34s %9s %18s\n", "configuration", "us/day", "phase-start spread");

  const Result chained = run(sync::SyncMode::kChained, 1, iters, barrier);
  const Result bulk = run(sync::SyncMode::kBulk, 1, iters, barrier);
  std::printf("%-34s %9.2f %15lu cyc\n", "chained, balanced", chained.us_per_day,
              static_cast<unsigned long>(chained.spread));
  std::printf("%-34s %9.2f %15lu cyc\n", "bulk, balanced", bulk.us_per_day,
              static_cast<unsigned long>(bulk.spread));

  const Result chained_s = run(sync::SyncMode::kChained, slowdown, iters, barrier);
  const Result bulk_s = run(sync::SyncMode::kBulk, slowdown, iters, barrier);
  std::printf("%-34s %9.2f %15lu cyc\n", "chained, node0 straggler",
              chained_s.us_per_day, static_cast<unsigned long>(chained_s.spread));
  std::printf("%-34s %9.2f %15lu cyc\n", "bulk, node0 straggler",
              bulk_s.us_per_day, static_cast<unsigned long>(bulk_s.spread));

  std::printf(
      "\nChained sync shows a nonzero phase-start spread under a straggler:\n"
      "nodes far from the slow board get a head start into the next\n"
      "iteration (Fig. 12), while bulk sync forces all starts together and\n"
      "pays the barrier latency every phase.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return fasda::util::Cli::run(
      argc, argv, "ablation_sync",
      {"barrier", "iters", "slowdown"},
      run_ablation_sync);
}
