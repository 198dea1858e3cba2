// Microbenchmark for the idle-cycle elision scheduler (DESIGN.md §13):
// ticks/sec of the naive every-component-every-cycle loop versus the elided
// loop, as a function of how idle the simulated cluster actually is.
//
// Two panels:
//
//   synthetic   A sharded Scheduler over timer components whose busy/idle
//               mix is controlled exactly. Sweeps the idle fraction and
//               reports equivalent component-ticks per wall second for both
//               modes. This isolates the scheduler: at high idle fractions
//               the elided loop jumps whole windows and sleeps whole
//               shards, so the speedup approaches period/1; at zero
//               idleness it shows the sweep overhead the oracle costs.
//
//   cluster     The real MD cluster (8 FPGAs, 2x2x2 cells each) with the
//               inter-FPGA link latency swept upward. Longer links mean
//               more cycles where every component is waiting on packets in
//               flight — the distributed-deployment regime the elision
//               tentpole targets — and the wall-clock ratio shows how much
//               of each configuration the oracle proves dead. Simulated
//               results are bitwise identical between the two modes by
//               contract (tests/tick_elision_test.cpp enforces it).
//
// Flags:
//   --cycles N     synthetic panel budget per run (default 100000)
//   --iters N      cluster panel timesteps (default 2)
//   --per-cell N   cluster panel particles per cell (default 16)

#include <chrono>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "fasda/sim/kernel.hpp"

namespace {

using namespace fasda;

/// Self-timed component: acts every `period` cycles and sleeps in between,
/// with work cheap enough that scheduling overhead dominates — the regime
/// that separates the two loops.
class TimerComponent : public sim::Component {
 public:
  TimerComponent(std::string name, sim::Cycle period)
      : Component(std::move(name)), period_(period) {}

  void tick(sim::Cycle now) override {
    if (now % period_ == 0) work_ += now ^ (work_ << 1);
    ++ticks_;
  }

  sim::Cycle next_wake(sim::Cycle now) const override {
    return ((now + period_ - 1) / period_) * period_;
  }

  void skip_idle(sim::Cycle from, sim::Cycle to) override {
    ticks_ += to - from;
  }

  std::uint64_t work() const { return work_; }
  std::uint64_t ticks() const { return ticks_; }

 private:
  sim::Cycle period_;
  std::uint64_t work_ = 0;
  std::uint64_t ticks_ = 0;  ///< real + replayed; must equal cycles run
};

struct SyntheticResult {
  double wall_seconds;
  std::uint64_t checksum;        ///< folded component state (mode-invariant)
  sim::ElisionStats stats;
};

/// `idle_out_of_64` components per 64 sleep on a long period; the rest tick
/// every cycle. Shards are homogeneous so the idle ones sleep as whole
/// shards, exercising the group fast path.
SyntheticResult run_synthetic(int idle_out_of_64, sim::Cycle cycles,
                              sim::TickMode mode) {
  constexpr int kShards = 64;
  constexpr int kPerShard = 16;
  constexpr sim::Cycle kIdlePeriod = 256;
  sim::Scheduler sched;
  sched.set_tick_mode(mode);
  std::vector<std::unique_ptr<TimerComponent>> comps;
  for (int s = 0; s < kShards; ++s) {
    const sim::Cycle period = s < idle_out_of_64 ? kIdlePeriod : 1;
    for (int k = 0; k < kPerShard; ++k) {
      comps.push_back(std::make_unique<TimerComponent>(
          "t" + std::to_string(s) + "." + std::to_string(k), period));
      sched.add(comps.back().get(), s);
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  sched.run_until([&] { return sched.cycle() >= cycles; }, cycles + 1);
  const auto t1 = std::chrono::steady_clock::now();
  SyntheticResult r;
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.checksum = 0;
  for (const auto& c : comps) {
    r.checksum ^= c->work() + c->ticks();  // ticks() must count every cycle
  }
  r.stats = sched.elision_stats();
  return r;
}

struct ClusterResult {
  double wall_seconds;
  sim::Cycle total_cycles;
  sim::ElisionStats stats;
};

ClusterResult run_cluster(int link_latency, int iters, int per_cell,
                          bool naive) {
  auto config = bench::large_config({2, 2, 2});
  config.num_worker_threads = 1;
  config.channel.link_latency = link_latency;
  if (naive) config.tick_mode = sim::TickMode::kNaive;
  const auto state = bench::standard_dataset({4, 4, 4}, per_cell);
  const auto t0 = std::chrono::steady_clock::now();
  core::Simulation sim(state, md::ForceField::sodium(), config);
  sim.run(iters);
  const auto t1 = std::chrono::steady_clock::now();
  return {std::chrono::duration<double>(t1 - t0).count(), sim.total_cycles(),
          sim.elision_stats()};
}

int run_micro_tick(const fasda::util::Cli& cli) {
  using namespace fasda;
  const auto cycles = static_cast<sim::Cycle>(cli.get_or("cycles", 100000L));
  const int iters = static_cast<int>(cli.get_or("iters", 2L));
  const int per_cell = static_cast<int>(cli.get_or("per-cell", 16L));

  bench::print_header("micro_tick -- naive vs elided scheduler throughput");

  std::printf("-- Synthetic (64 shards x 16 components, %lu cycles) --\n",
              static_cast<unsigned long>(cycles));
  std::printf("%-12s %14s %14s %9s %12s\n", "idle frac", "naive Mt/s",
              "elided Mt/s", "speedup", "elided cyc");
  for (const int idle : {0, 32, 58, 63, 64}) {
    const auto naive = run_synthetic(idle, cycles, sim::TickMode::kNaive);
    const auto elided = run_synthetic(idle, cycles, sim::TickMode::kElide);
    if (naive.checksum != elided.checksum) {
      std::printf("CHECKSUM MISMATCH at idle=%d\n", idle);
      return 1;
    }
    // Equivalent throughput: the 1024 components x `cycles` schedule,
    // divided by wall time — replayed (skipped) ticks count as served.
    const double denom = 1e6;
    const double total =
        static_cast<double>(cycles) * 1024.0;
    std::printf("%-12.3f %14.1f %14.1f %8.2fx %12lu\n", idle / 64.0,
                total / naive.wall_seconds / denom,
                total / elided.wall_seconds / denom,
                naive.wall_seconds / elided.wall_seconds,
                static_cast<unsigned long>(elided.stats.elided_cycles));
  }

  std::printf(
      "\n-- Cluster (8 FPGAs, 2x2x2 cells, %d particles/cell, %d iters) --\n",
      per_cell, iters);
  std::printf("%-14s %11s %11s %9s %11s %11s\n", "link latency", "naive s",
              "elided s", "speedup", "exec cyc", "elided cyc");
  for (const int latency : {1, 200, 2000, 20000}) {
    const auto naive = run_cluster(latency, iters, per_cell, true);
    const auto elided = run_cluster(latency, iters, per_cell, false);
    if (naive.total_cycles != elided.total_cycles) {
      std::printf("CYCLE COUNT MISMATCH at latency=%d\n", latency);
      return 1;
    }
    std::printf("%-14d %11.3f %11.3f %8.2fx %11lu %11lu\n", latency,
                naive.wall_seconds, elided.wall_seconds,
                naive.wall_seconds / elided.wall_seconds,
                static_cast<unsigned long>(elided.stats.executed_cycles),
                static_cast<unsigned long>(elided.stats.elided_cycles));
  }

  std::printf(
      "\nThe elided loop wins exactly where cycles are provably dead: long\n"
      "link latencies (packets in flight, every component asleep) and idle\n"
      "shards. Dense always-busy workloads pay only the oracle sweep.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return fasda::util::Cli::run(
      argc, argv, "micro_tick",
      {"cycles", "iters", "per-cell"},
      run_micro_tick);
}
