// Reproduces Figure 16: simulation rate (µs/day) of FPGAs (cycle-level
// FASDA simulation), CPUs and GPUs (documented analytic models; see
// DESIGN.md) across the paper's weak-scaling spaces (3x3x3 .. 6x6x6), the
// strong-scaling 4x4x4 variants A/B/C, and the right-panel large spaces
// (8x8x8 on 64 FPGAs, 10x10x10 on 125 FPGAs).
//
// Flags:
//   --iters N      cycle-simulated timesteps per configuration (default 2)
//   --large        include the 8x8x8 / 10x10x10 simulated panel (slow)
//   --measure      additionally run the in-repo double-precision CPU engine
//                  and report real wall-clock rates for this machine
//   --sync bulk    run the FPGA configs under bulk synchronization instead
//                  of chained (ablation)
//   --workers N    simulator worker threads per cycle run (0 = auto, 1 =
//                  serial scheduler); results are bitwise identical for any
//                  N, only the host wall-clock changes
//   --timing       report host wall-clock seconds per cycle run alongside
//                  the simulated rate (for scheduler speedup measurements)

#include "bench_common.hpp"
#include "fasda/md/reference_engine.hpp"
#include "fasda/model/perf_models.hpp"
#include "fasda/util/stopwatch.hpp"

namespace {

using namespace fasda;

int g_workers = 1;      // --workers: simulator threads per cycle run
bool g_timing = false;  // --timing: print host wall-clock per run
double g_last_wall_seconds = 0.0;

double fpga_rate(core::ClusterConfig config, geom::IVec3 cells, int iters) {
  config.num_worker_threads = g_workers;
  const auto state = bench::standard_dataset(cells);
  util::Stopwatch sw;
  core::Simulation sim(state, md::ForceField::sodium(), config);
  sim.run(iters);
  g_last_wall_seconds = sw.seconds();
  if (g_timing) {
    std::printf("  [%dx%dx%d cells, %d workers: %.3f s wall]\n", cells.x,
                cells.y, cells.z, sim.num_workers(), g_last_wall_seconds);
  }
  return sim.microseconds_per_day();
}

double measured_cpu_rate(geom::IVec3 cells, int threads, int steps) {
  const auto state = bench::standard_dataset(cells);
  md::ReferenceEngine engine(state, md::ForceField::sodium(), 8.5, 2.0,
                             static_cast<std::size_t>(threads));
  engine.step(1);  // warm up caches and the thread pool
  util::Stopwatch sw;
  engine.step(steps);
  return model::us_per_day_from_step_seconds(sw.seconds() / steps);
}

int run_fig16_scalability(const fasda::util::Cli& cli) {
  using namespace fasda;
  const int iters = static_cast<int>(cli.get_or("iters", 2L));
  const bool large = cli.has_switch("large");
  const bool measure = cli.has_switch("measure");
  const bool bulk = cli.get_or("sync", "chained") == std::string("bulk");
  g_workers = static_cast<int>(cli.get_or("workers", 1L));
  g_timing = cli.has_switch("timing");

  const model::GpuModel gpu;
  const model::CpuModel cpu;

  bench::print_header(
      "Figure 16 -- Scalability comparison (us/day, dt = 2 fs, 64 Na/cell)");
  if (bulk) std::printf("[ablation: bulk synchronization]\n");
  if (g_workers != 1) {
    std::printf("[parallel scheduler: --workers %d (0 = auto)]\n", g_workers);
  }

  std::printf("\n-- Weak scaling (3x3x3 cells per FPGA) --\n");
  std::printf("%-8s %8s | %9s %9s %9s | %8s %8s %8s\n", "space", "FPGAs",
              "FPGA", "1xA100", "2xA100", "CPU-1t", "CPU-4t", "CPU-16t");
  struct Weak {
    geom::IVec3 nodes;
    geom::IVec3 cells;
  };
  for (const Weak& w : {Weak{{1, 1, 1}, {3, 3, 3}}, Weak{{2, 1, 1}, {6, 3, 3}},
                        Weak{{2, 2, 1}, {6, 6, 3}}, Weak{{2, 2, 2}, {6, 6, 6}}}) {
    auto config = bench::weak_config(w.nodes);
    if (bulk) config.sync_mode = sync::SyncMode::kBulk;
    const double fpga = fpga_rate(config, w.cells, iters);
    const std::size_t n = static_cast<std::size_t>(w.cells.product()) * 64;
    std::printf("%dx%dx%d %8d | %9.2f %9.2f %9.2f | %8.3f %8.3f %8.3f\n",
                w.cells.x, w.cells.y, w.cells.z, w.nodes.product(), fpga,
                gpu.us_per_day(n, 1, model::GpuKind::kA100),
                gpu.us_per_day(n, 2, model::GpuKind::kA100),
                cpu.us_per_day(n, 1), cpu.us_per_day(n, 4),
                cpu.us_per_day(n, 16));
  }

  std::printf("\n-- Strong scaling (4x4x4 space, 8 FPGAs x 2x2x2 cells) --\n");
  std::printf("%-22s %9s\n", "configuration", "us/day");
  const std::size_t n444 = 64 * 64;
  double best_fpga = 0.0, rate_a = 0.0;
  for (const auto& [name, pes, spes] :
       {std::tuple{"4x4x4-A (1 SPE, 1 PE)", 1, 1},
        std::tuple{"4x4x4-B (1 SPE, 3 PE)", 3, 1},
        std::tuple{"4x4x4-C (2 SPE, 3 PE)", 3, 2}}) {
    auto config = bench::strong_config(pes, spes);
    if (bulk) config.sync_mode = sync::SyncMode::kBulk;
    const double rate = fpga_rate(config, {4, 4, 4}, iters);
    if (rate_a == 0.0) rate_a = rate;
    best_fpga = std::max(best_fpga, rate);
    std::printf("%-22s %9.2f\n", name, rate);
  }
  const double gpu1 = gpu.us_per_day(n444, 1, model::GpuKind::kA100);
  const double gpu2 = gpu.us_per_day(n444, 2, model::GpuKind::kA100);
  const double gpu4 = gpu.us_per_day(n444, 4, model::GpuKind::kV100);
  std::printf("%-22s %9.2f\n", "1x A100", gpu1);
  std::printf("%-22s %9.2f  (%+.0f%% vs 1 GPU)\n", "2x A100", gpu2,
              100.0 * (gpu2 / gpu1 - 1.0));
  std::printf("%-22s %9.2f  (%+.0f%% vs 1 GPU)\n", "4x V100", gpu4,
              100.0 * (gpu4 / gpu1 - 1.0));
  for (int t : {1, 2, 4, 8, 16, 32}) {
    std::printf("CPU %2d threads         %9.3f\n", t, cpu.us_per_day(n444, t));
  }
  std::printf("\nFPGA strong-scaling gain C vs A : %.2fx (paper: 5.26x)\n",
              best_fpga / rate_a);
  std::printf("FPGA best vs best GPU           : %.2fx (paper: 4.67x)\n",
              best_fpga / gpu1);

  if (large) {
    std::printf("\n-- Simulated large clusters (2x2x2 cells per FPGA) --\n");
    std::printf("%-10s %6s | %9s | %9s %9s\n", "space", "FPGAs", "FPGA",
                "1xA100", "2xA100");
    struct Large {
      geom::IVec3 nodes;
      geom::IVec3 cells;
    };
    for (const Large& l :
         {Large{{4, 4, 4}, {8, 8, 8}}, Large{{5, 5, 5}, {10, 10, 10}}}) {
      auto config = bench::large_config(l.nodes);
      if (bulk) config.sync_mode = sync::SyncMode::kBulk;
      const double fpga = fpga_rate(config, l.cells, std::max(1, iters / 2));
      const std::size_t n = static_cast<std::size_t>(l.cells.product()) * 64;
      std::printf("%dx%dx%d %8d | %9.2f | %9.2f %9.2f\n", l.cells.x, l.cells.y,
                  l.cells.z, l.nodes.product(), fpga,
                  gpu.us_per_day(n, 1, model::GpuKind::kA100),
                  gpu.us_per_day(n, 2, model::GpuKind::kA100));
    }
  }

  if (measure) {
    std::printf(
        "\n-- Measured CPU (in-repo double-precision engine, this machine) --\n");
    for (int t : {1, 2, 4}) {
      std::printf("3x3x3, %d threads: %.4f us/day\n", t,
                  measured_cpu_rate({3, 3, 3}, t, 5));
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return fasda::util::Cli::run(
      argc, argv, "fig16_scalability",
      {"iters", "large", "measure", "sync", "timing", "workers"},
      run_fig16_scalability);
}
