// Lead-evaluation workflow sketched in the paper's introduction: drug
// discovery iterates MD over many small candidate systems (~thousands of
// atoms), so what matters is time-to-solution per candidate — the strong
// scaling regime where FASDA's 8-FPGA configuration beats GPUs.
//
// This example screens an ensemble of candidate systems (different seeds
// and temperatures standing in for different ligand poses) as a batched
// engine::BatchRunner workload: every candidate is an independent replica
// (equilibration with velocity rescaling, then a scoring window using the
// FASDA numerics), and replicas run concurrently on the shared thread
// pool. The screen executes twice — sequentially (1 worker) and batched
// (all cores) — and verifies the per-candidate results are bitwise
// identical, the BatchRunner determinism contract. The projected
// wall-clock per candidate on the 8-FPGA variant C cluster is measured
// once with the cycle-level engine.
//
//   ./drug_screening [--candidates N] [--steps N]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "fasda/engine/batch_runner.hpp"
#include "fasda/md/analysis.hpp"
#include "fasda/md/dataset.hpp"
#include "fasda/md/units.hpp"
#include "fasda/util/cli.hpp"

namespace {

int run_drug_screening(const fasda::util::Cli& cli) {
  using namespace fasda;
  const int num_candidates = static_cast<int>(cli.get_or("candidates", 4L));
  const int steps = static_cast<int>(cli.get_or("steps", 100L));

  const md::ForceField ff = md::ForceField::sodium();

  // One BatchJob per candidate: the body equilibrates (velocity rescaling
  // every 25 steps, re-importing the rescaled state), then scores by mean
  // potential energy over the production window.
  std::vector<engine::BatchJob> jobs;
  for (int i = 0; i < num_candidates; ++i) {
    const double temperature = 280.0 + 10.0 * (i % 4);
    engine::BatchJob job;
    job.label = std::to_string(0x1000 + i);
    md::DatasetParams params;
    params.particles_per_cell = 64;
    params.seed = 0x1000 + static_cast<std::uint64_t>(i);
    params.temperature = temperature;
    job.state = md::generate_dataset({3, 3, 3}, 8.5, ff, params);
    job.ff = ff;
    job.spec.engine = "functional";
    job.body = [temperature, steps](engine::ReplicaContext& ctx) {
      for (int block = 0; block < 4; ++block) {
        ctx.engine().step(25);
        auto snapshot = ctx.engine().state();
        md::rescale_to_temperature(snapshot, ctx.job().ff, temperature);
        ctx.rebuild(snapshot);
      }
      double pe_sum = 0.0;
      int samples = 0;
      for (int done = 0; done < steps; done += 50) {
        ctx.engine().step(std::min(50, steps - done));
        pe_sum += ctx.engine().potential_energy();
        ++samples;
      }
      return md::units::to_kcal_per_mol(pe_sum / samples) /
             static_cast<double>(ctx.job().state.size());
    };
    jobs.push_back(std::move(job));
  }

  std::printf("screening %d candidates, %d production steps each\n\n",
              num_candidates, steps);

  // Sequential baseline, then the batched screen on all cores.
  engine::BatchRunner sequential(1);
  const auto seq = sequential.run(jobs);
  engine::BatchRunner batched(0);
  const auto par = batched.run(jobs);

  std::printf("%-10s %8s %16s %14s\n", "candidate", "T (K)", "score (kcal/mol)",
              "E total");
  for (int i = 0; i < num_candidates; ++i) {
    const auto& r = par.replicas[i];
    if (!r.ok) {
      std::printf("%-10s failed: %s\n", r.label.c_str(), r.error.c_str());
      return 1;
    }
    std::printf("%-10s %8.0f %16.4f %14.6g\n", r.label.c_str(),
                280.0 + 10.0 * (i % 4), r.score, r.final_energies.total);
  }

  // The determinism contract: per-candidate results must not depend on the
  // worker count.
  bool identical = true;
  for (int i = 0; i < num_candidates; ++i) {
    identical = identical && seq.replicas[i].ok && par.replicas[i].ok &&
                seq.replicas[i].score == par.replicas[i].score &&
                seq.replicas[i].final_energies.total ==
                    par.replicas[i].final_energies.total;
  }
  std::printf("\nsequential: %.2f s | batched (%zu workers): %.2f s | "
              "speedup %.2fx | %.0f replicas/hour\n",
              seq.wall_seconds, par.workers, par.wall_seconds,
              seq.wall_seconds / par.wall_seconds, par.replicas_per_hour);
  std::printf("per-candidate results bitwise-identical across worker counts: %s\n",
              identical ? "yes" : "NO");
  if (!identical) return 1;

  const auto best = std::min_element(
      par.replicas.begin(), par.replicas.end(),
      [](const auto& a, const auto& b) { return a.score < b.score; });
  std::printf("best candidate by mean PE: seed %s\n", best->label.c_str());

  // Projected turnaround on the hardware: variant C, 8 FPGAs (§5.2's
  // strongest configuration), measured by the cycle-level engine.
  md::DatasetParams params;
  params.particles_per_cell = 64;
  params.seed = static_cast<std::uint64_t>(std::stoll(best->label));
  const auto state = md::generate_dataset({4, 4, 4}, 8.5, ff, params);
  engine::EngineSpec cluster;
  cluster.engine = "cycle";
  cluster.cells_per_node = geom::IVec3{2, 2, 2};
  cluster.pes_per_spe = 3;
  cluster.spes = 2;
  auto sim = engine::Registry::instance().create(state, ff, cluster);
  sim->step(2);
  const double rate = sim->metrics().microseconds_per_day;
  const double us_per_candidate = 10.0;  // a long-timescale scoring run
  const double days = us_per_candidate / rate;
  std::printf(
      "\n8-FPGA variant C: %.1f us/day -> a %.0f us scoring run per candidate "
      "takes %.1f days\n",
      rate, us_per_candidate, days);
  std::printf("(the paper's best GPU manages ~2 us/day: %.1f days, %.1fx longer)\n",
              us_per_candidate / 2.0, rate / 2.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return fasda::util::Cli::run(
      argc, argv, "drug_screening",
      {"candidates", "steps"},
      run_drug_screening);
}
