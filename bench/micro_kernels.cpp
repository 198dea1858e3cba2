// Google-benchmark microbenchmarks for FASDA's numeric kernels: the
// section/bin interpolation lookup (Eq. 8-10), fixed-point r² (the filter
// datapath), the full pair-force evaluation (Fig. 6), the double-precision
// potential-energy pair walk, and whole-engine timestep throughput for the
// reference and functional engines.

#include <benchmark/benchmark.h>

#include "fasda/fixed/fixed_point.hpp"
#include "fasda/interp/interp_table.hpp"
#include "fasda/md/datapath.hpp"
#include "fasda/md/dataset.hpp"
#include "fasda/md/energy.hpp"
#include "fasda/md/functional_engine.hpp"
#include "fasda/md/reference_engine.hpp"
#include "fasda/util/rng.hpp"

namespace {

using namespace fasda;

void BM_InterpEval(benchmark::State& state) {
  const auto table = interp::InterpTable::build_r_pow(
      14, interp::InterpConfig{14, static_cast<int>(state.range(0))});
  util::Xoshiro256 rng(1);
  std::vector<float> inputs(4096);
  for (auto& x : inputs) x = static_cast<float>(rng.uniform(1e-3, 1.0));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.eval(inputs[i++ & 4095]));
  }
}
BENCHMARK(BM_InterpEval)->Arg(64)->Arg(256)->Arg(1024);

void BM_FixedR2(benchmark::State& state) {
  util::Xoshiro256 rng(2);
  std::vector<fixed::FixedVec3> pts(1024);
  for (auto& p : pts) {
    p = {fixed::FixedCoord::from_real(rng.uniform(1.0, 4.0)),
         fixed::FixedCoord::from_real(rng.uniform(1.0, 4.0)),
         fixed::FixedCoord::from_real(rng.uniform(1.0, 4.0))};
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixed::r2_fixed(pts[i & 1023], pts[(i + 7) & 1023]));
    ++i;
  }
}
BENCHMARK(BM_FixedR2);

void BM_PairForce(benchmark::State& state) {
  const md::Datapath datapath(md::ForceField::sodium(), 8.5,
                              interp::InterpConfig{}, md::ForceTerms{}, 2.0,
                              8.5);
  util::Xoshiro256 rng(3);
  std::vector<fixed::FixedVec3> pts(1024);
  for (auto& p : pts) {
    p = {fixed::FixedCoord::from_real(rng.uniform(1.8, 2.2)),
         fixed::FixedCoord::from_real(rng.uniform(1.8, 2.2)),
         fixed::FixedCoord::from_real(rng.uniform(1.8, 2.2))};
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const fixed::FixedVec3& a = pts[i & 1023];
    const fixed::FixedVec3& b = pts[(i + 13) & 1023];
    benchmark::DoNotOptimize(
        datapath.pair_force(fixed::r2_fixed(a, b), a, 0, b, 0));
    ++i;
  }
}
BENCHMARK(BM_PairForce);

// md::compute_potential_energy on the serve_mix job shape: 3x3x3 cells of 8
// particles. Arg 0 is sodium (LJ only), Arg 1 alternating Na+/Cl- with the
// Ewald real-space term, as a served `nacl` job with `ewald` set.
void BM_PotentialEnergy(benchmark::State& state) {
  const bool nacl = state.range(0) != 0;
  const md::ForceField ff =
      nacl ? md::ForceField::sodium_chloride() : md::ForceField::sodium();
  md::DatasetParams params;
  params.particles_per_cell = 8;
  params.temperature = 300.0;
  if (nacl) params.elements = md::ElementAssignment::kAlternating;
  const auto sys = md::generate_dataset({3, 3, 3}, 8.5, ff, params);
  md::ForceTerms terms;
  terms.ewald_real = nacl;
  for (auto _ : state) {
    benchmark::DoNotOptimize(md::compute_potential_energy(sys, ff, 8.5, terms));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sys.size()));
}
BENCHMARK(BM_PotentialEnergy)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_ReferenceEngineStep(benchmark::State& state) {
  md::DatasetParams params;
  params.particles_per_cell = 64;
  const auto sys =
      md::generate_dataset({3, 3, 3}, 8.5, md::ForceField::sodium(), params);
  md::ReferenceEngine engine(sys, md::ForceField::sodium(), 8.5, 2.0,
                             static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) engine.step(1);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sys.size()));
}
BENCHMARK(BM_ReferenceEngineStep)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

void BM_FunctionalEngineStep(benchmark::State& state) {
  md::DatasetParams params;
  params.particles_per_cell = 64;
  const auto sys =
      md::generate_dataset({3, 3, 3}, 8.5, md::ForceField::sodium(), params);
  md::FunctionalConfig config;
  config.cutoff = 8.5;
  config.dt = 2.0;
  config.threads = static_cast<std::size_t>(state.range(0));
  md::FunctionalEngine engine(sys, md::ForceField::sodium(), config);
  for (auto _ : state) engine.step(1);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sys.size()));
}
BENCHMARK(BM_FunctionalEngineStep)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
