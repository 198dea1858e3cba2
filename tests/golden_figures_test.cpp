// Locks in the headline paper-reproduction numbers from DESIGN.md §4 so a
// refactor cannot silently shift them. Everything here is deterministic
// (fixed seeds, cycle-level simulation, analytic models), so the tolerances
// exist only to absorb deliberate, reviewed model tweaks — not noise. If a
// change moves a number outside its band, either the change is wrong or
// DESIGN.md/EXPERIMENTS.md must be re-derived alongside this test.
//
// Golden values (iters = 2, 64 Na/cell, seed 0x5eed):
//   - locking-filter acceptance at c = R_c: ~15.5 % (Eq. 3, Fig. 3)
//   - strong scaling 4x4x4-A = 2.56 µs/day, 4x4x4-C = 9.20 µs/day,
//     C vs A = 3.60x (paper: 5.26x)
//   - FASDA best (C) vs best GPU (1x A100 model) = 4.66x (paper: 4.67x)

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <numbers>
#include <string>

#include "../bench/bench_common.hpp"
#include "fasda/md/energy.hpp"
#include "fasda/model/perf_models.hpp"
#include "fasda/net/fault.hpp"

namespace fasda {
namespace {

double strong_rate(int pes_per_spe, int spes,
                   sim::TickMode mode = sim::TickMode::kElide) {
  auto config = bench::strong_config(pes_per_spe, spes);
  config.tick_mode = mode;
  const auto state = bench::standard_dataset({4, 4, 4});
  core::Simulation sim(state, md::ForceField::sodium(), config);
  sim.run(2);
  return sim.microseconds_per_day();
}

TEST(GoldenFigures, LockingFilterAcceptanceNearFifteenPointFive) {
  // Analytic Eq. 3 at c = 1: cutoff-sphere volume over the 27-cell
  // neighbourhood volume.
  const double p_analytic = (4.0 / 3.0) * std::numbers::pi / 27.0;
  EXPECT_NEAR(p_analytic, 0.155, 0.001);

  // Empirical acceptance on the ablation_cellsize c = 1 dataset: uniform
  // placement, 16 particles per cell, cells of edge R_c.
  const double rc = 8.5;
  md::DatasetParams params;
  params.placement = md::Placement::kUniform;
  params.particles_per_cell = 16;
  params.min_distance = 0.8;
  params.seed = 99;
  const auto state =
      md::generate_dataset({3, 3, 3}, rc, md::ForceField::sodium(), params);
  const std::size_t pairs = md::count_pairs_within_cutoff(state, rc);
  const double density =
      static_cast<double>(state.size()) / std::pow(3 * rc, 3);
  const double candidates_per_particle = 27.0 * density * std::pow(rc, 3);
  const double p_measured =
      2.0 * static_cast<double>(pairs) /
      (static_cast<double>(state.size()) * candidates_per_particle);
  EXPECT_NEAR(p_measured, p_analytic, 0.02)
      << "measured locking-filter acceptance drifted from Eq. 3";
}

TEST(GoldenFigures, StrongScalingRatesAndCvsAGain) {
  const double rate_a = strong_rate(1, 1);  // 4x4x4-A: 1 SPE, 1 PE
  const double rate_c = strong_rate(3, 2);  // 4x4x4-C: 2 SPE, 3 PE
  EXPECT_NEAR(rate_a, 2.56, 0.13);  // ±5%
  EXPECT_NEAR(rate_c, 9.20, 0.46);  // ±5%

  const double gain = rate_c / rate_a;
  EXPECT_GE(gain, 3.4) << "C vs A strong-scaling gain collapsed";
  EXPECT_LE(gain, 3.8) << "C vs A strong-scaling gain inflated";
}

TEST(GoldenFigures, Fig18PacketCountsUnchangedByArmedReliability) {
  // Arming the ack/retransmit protocol with an all-zero FaultPlan must not
  // shift the Fig. 18 data traffic: the same data packets leave on the same
  // cycles (acks ride out-of-band and are counted separately), so the
  // published packet counts stay comparable whether or not a run is armed.
  const auto state = bench::standard_dataset({4, 4, 4}, 16);
  auto config = bench::strong_config(3, 2);  // design C, 2x2x2 torus

  core::Simulation plain(state, md::ForceField::sodium(), config);
  plain.run(2);

  config.faults = net::FaultPlan{};  // protocol on, wire perfect
  core::Simulation armed(state, md::ForceField::sodium(), config);
  armed.run(2);

  const auto p = plain.traffic();
  const auto a = armed.traffic();
  EXPECT_EQ(a.positions.packets, p.positions.packets);
  EXPECT_EQ(a.forces.packets, p.forces.packets);
  EXPECT_EQ(a.migrations.packets, p.migrations.packets);
  EXPECT_EQ(a.positions.total_packets, p.positions.total_packets);
  EXPECT_EQ(a.forces.total_packets, p.forces.total_packets);
  EXPECT_EQ(a.migrations.total_packets, p.migrations.total_packets);
  // A perfect wire never retransmits; control traffic exists but is
  // accounted outside the data matrix.
  EXPECT_EQ(a.positions.retransmit_packets, 0u);
  EXPECT_EQ(a.forces.retransmit_packets, 0u);
  EXPECT_GT(a.positions.control_packets, 0u);
  EXPECT_EQ(p.positions.control_packets, 0u);
  // Total cycles are NOT asserted equal: an armed run drains its trailing
  // acks (one extra round trip per iteration) before the cluster reads as
  // done. Data-packet departures — what Fig. 18 reports — are unchanged.
}

TEST(GoldenFigures, WatchdogNeverFiresOnTheLargestGoldenGeometry) {
  // False-positive regression for the DESIGN.md §11 watchdog: the densest
  // golden-figure variant (design C: 4x4x4 cells on a 2x2x2 torus, 2 SPE x
  // 3 PE, 16 particles per cell) armed with a perfect wire must run to
  // completion under the default cycle budget. A healthy node heartbeats
  // every cycle — its control tick is never straggler-gated — so even this
  // longest-phase geometry cannot trip sync::NodeFailureError.
  const auto state = bench::standard_dataset({4, 4, 4}, 16);
  auto config = bench::strong_config(3, 2);
  ASSERT_GT(config.watchdog_budget, 0u) << "watchdog must be on by default";
  config.faults = net::FaultPlan{};  // armed protocol, perfect wire

  core::Simulation sim(state, md::ForceField::sodium(), config);
  EXPECT_NO_THROW(sim.run(2));

  // A deliberately slowed straggler node still must not trip it: the
  // watchdog watches the control heartbeat, not datapath progress.
  auto straggler = bench::strong_config(3, 2);
  straggler.faults = net::FaultPlan{};
  straggler.stragglers = {{3, 8}};
  core::Simulation slow(state, md::ForceField::sodium(), straggler);
  EXPECT_NO_THROW(slow.run(2));
}

TEST(GoldenFigures, FiguresIdenticalWithElisionForcedOnAndOff) {
  // The golden bands above run under the default tick mode (elision on).
  // This guard pins the other leg: forcing the naive every-cycle loop and
  // the elided loop must produce EXACTLY the same published numbers — the
  // simulated rates are cycle-count arithmetic, so they are equal as
  // doubles, not merely within tolerance. If these ever split, elision is
  // changing figures and every band above is suspect.
  EXPECT_EQ(strong_rate(1, 1, sim::TickMode::kNaive),
            strong_rate(1, 1, sim::TickMode::kElide))
      << "4x4x4-A rate depends on the tick mode";
  EXPECT_EQ(strong_rate(3, 2, sim::TickMode::kNaive),
            strong_rate(3, 2, sim::TickMode::kElide))
      << "4x4x4-C rate depends on the tick mode";

  // Fig. 18 traffic, cycle totals and pair counts under both modes.
  const auto state = bench::standard_dataset({4, 4, 4}, 16);
  auto config = bench::strong_config(3, 2);
  config.tick_mode = sim::TickMode::kNaive;
  core::Simulation naive(state, md::ForceField::sodium(), config);
  naive.run(2);
  config.tick_mode = sim::TickMode::kElide;
  core::Simulation elided(state, md::ForceField::sodium(), config);
  elided.run(2);

  EXPECT_EQ(elided.total_cycles(), naive.total_cycles());
  EXPECT_EQ(elided.pairs_issued(), naive.pairs_issued());
  EXPECT_EQ(elided.microseconds_per_day(), naive.microseconds_per_day());
  const auto n = naive.traffic();
  const auto e = elided.traffic();
  EXPECT_EQ(e.positions.packets, n.positions.packets);
  EXPECT_EQ(e.forces.packets, n.forces.packets);
  EXPECT_EQ(e.migrations.packets, n.migrations.packets);
  EXPECT_EQ(e.positions.total_packets, n.positions.total_packets);
  EXPECT_EQ(e.forces.total_packets, n.forces.total_packets);
  EXPECT_EQ(e.migrations.total_packets, n.migrations.total_packets);
}

TEST(GoldenFigures, FasdaBestVsBestGpuNearPaperRatio) {
  const double rate_c = strong_rate(3, 2);
  const model::GpuModel gpu;
  const std::size_t n444 = 64 * 64;  // 4x4x4 cells x 64 Na
  const double gpu_best = gpu.us_per_day(n444, 1, model::GpuKind::kA100);
  EXPECT_NEAR(gpu_best, 1.98, 0.10);

  const double ratio = rate_c / gpu_best;
  EXPECT_GE(ratio, 4.4) << "FASDA-vs-GPU advantage collapsed (paper: 4.67x)";
  EXPECT_LE(ratio, 4.9) << "FASDA-vs-GPU advantage inflated (paper: 4.67x)";
}

// ---------------------------------------------------------------------------
// Exact pins. Every count below is a deterministic function of the
// configuration: total cycles, pairs issued, the ten Fig. 17 utilization
// fields (compared as IEEE-754 bit patterns, so a change in any underlying
// work/capacity/active counter shows) and the Fig. 18 per-channel packet
// totals. A change meant to keep simulated behaviour (perf work, refactors)
// must pass these untouched under both tick modes; a change meant to move a
// count must update the pin it moves and say why.

struct ExactFigures {
  sim::Cycle cycles = 0;
  std::uint64_t pairs = 0;
  // pr/fr/filter/pe/mu, hardware then time utilization, as double bits.
  std::uint64_t util_bits[10] = {};
  // positions/forces/migrations: data, control, retransmitted packets.
  std::uint64_t packets[3][3] = {};

  bool operator==(const ExactFigures&) const = default;
};

void PrintTo(const ExactFigures& f, std::ostream* os) {
  char buf[64];
  *os << "{" << f.cycles << "u, " << f.pairs << "u, {";
  for (int i = 0; i < 10; ++i) {
    std::snprintf(buf, sizeof buf, "%s0x%016llxu", i == 0 ? "" : ", ",
                  static_cast<unsigned long long>(f.util_bits[i]));
    *os << buf;
  }
  *os << "}, {";
  for (int c = 0; c < 3; ++c) {
    *os << (c == 0 ? "{" : ", {") << f.packets[c][0] << "u, "
        << f.packets[c][1] << "u, " << f.packets[c][2] << "u}";
  }
  *os << "}}";
}

ExactFigures exact_figures(const md::SystemState& state, md::ForceField ff,
                           const core::ClusterConfig& config, int steps) {
  core::Simulation sim(state, std::move(ff), config);
  sim.run(steps);
  ExactFigures f;
  f.cycles = sim.total_cycles();
  f.pairs = sim.pairs_issued();
  const core::UtilizationReport u = sim.utilization();
  const double fields[10] = {u.pr_hardware,     u.pr_time,  u.fr_hardware,
                             u.fr_time,         u.filter_hardware,
                             u.filter_time,     u.pe_hardware,
                             u.pe_time,         u.mu_hardware,
                             u.mu_time};
  for (int i = 0; i < 10; ++i) {
    f.util_bits[i] = std::bit_cast<std::uint64_t>(fields[i]);
  }
  const core::TrafficReport t = sim.traffic();
  const net::TrafficMatrix* channels[3] = {&t.positions, &t.forces,
                                           &t.migrations};
  for (int c = 0; c < 3; ++c) {
    f.packets[c][0] = channels[c]->total_packets;
    f.packets[c][1] = channels[c]->control_packets;
    f.packets[c][2] = channels[c]->retransmit_packets;
  }
  return f;
}

/// The dataset the perfbench cycle workloads build for a job (sodium, or
/// NaCl with alternating elements), at a fixed seed.
md::SystemState perfbench_dataset(geom::IVec3 space, int per_cell, bool nacl) {
  md::DatasetParams params;
  params.particles_per_cell = per_cell;
  params.seed = 1;
  params.temperature = 300.0;
  if (nacl) params.elements = md::ElementAssignment::kAlternating;
  return md::generate_dataset(space, 8.5,
                              nacl ? md::ForceField::sodium_chloride()
                                   : md::ForceField::sodium(),
                              params);
}

core::ClusterConfig single_node_333() {
  core::ClusterConfig config;
  config.cells_per_node = {3, 3, 3};
  return config;
}

TEST(GoldenFigures, ExactPerfbenchDense) {
  const ExactFigures expected{
      1681u, 4689u,
      {0x3fd97f6c68b04f04u, 0x3fe07285b5fca64du, 0x3fdd73ace49c0844u,
       0x3fe74ce81725eb98u, 0x3fd8ed67453e1eddu, 0x3fdd31d24d3781cau,
       0x3fba729fb3a6dc02u, 0x3fe42250eabae935u, 0x3f937e3fa847e18bu,
       0x3f937e3fa847e18bu},
      {{0u, 0u, 0u}, {0u, 0u, 0u}, {0u, 0u, 0u}}};
  EXPECT_EQ(exact_figures(perfbench_dataset({3, 3, 3}, 4, false),
                          md::ForceField::sodium(), single_node_333(), 8),
            expected);
}

TEST(GoldenFigures, ExactPerfbenchSparse) {
  core::ClusterConfig config = single_node_333();
  config.node_dims = {2, 1, 1};
  const ExactFigures expected{
      2784u, 1089u,
      {0x3fb08d3dcb08d3ddu, 0x3fc1d6cdfa1d6ce0u, 0x3faa7256982bb7b3u,
       0x3fc96cdfa1d6cdfau, 0x3fcf417d05f417d0u, 0x3fac1e1445501a28u,
       0x3f7daba5c3300fb2u, 0x3fc26f991ed79146u, 0x3f678a4c8178a4c8u,
       0x3f678a4c8178a4c8u},
      {{40u, 0u, 0u}, {17u, 0u, 0u}, {8u, 0u, 0u}}};
  EXPECT_EQ(exact_figures(perfbench_dataset({6, 3, 3}, 2, false),
                          md::ForceField::sodium(), config, 4),
            expected);
}

TEST(GoldenFigures, ExactPerfbenchMixNaCl) {
  const ExactFigures expected{
      1799u, 12487u,
      {0x3fd7d346d88050aau, 0x3fdbe41be41be41cu, 0x3fe7c069625eef6fu,
       0x3fe9ef355cec385au, 0x3fe8581a46b6c63bu, 0x3fdbeee71b99e6c7u,
       0x3fd073f2fe1ba0a6u, 0x3fe0d671587978fcu, 0x3f9236eda4a48012u,
       0x3f9236eda4a48012u},
      {{0u, 0u, 0u}, {0u, 0u, 0u}, {0u, 0u, 0u}}};
  EXPECT_EQ(exact_figures(perfbench_dataset({3, 3, 3}, 8, true),
                          md::ForceField::sodium_chloride(), single_node_333(),
                          4),
            expected);
}

TEST(GoldenFigures, ExactStrongScalingA) {
  const ExactFigures expected{
      26977u, 1036286u,
      {0x3fc0f014efa39142u, 0x3fc72ce04b9ce417u, 0x3fcbdaa73df2ed77u,
       0x3fe40bd7cd5d1a25u, 0x3fe83cc40fb0e925u, 0x3fedef81d3a55156u,
       0x3fe334f3a7718133u, 0x3fedf60cd94fa07fu, 0x3f736f43e0fcf42fu,
       0x3f736f43e0fcf42fu},
      {{8960u, 0u, 0u}, {9288u, 0u, 0u}, {112u, 0u, 0u}}};
  EXPECT_EQ(exact_figures(bench::standard_dataset({4, 4, 4}),
                          md::ForceField::sodium(), bench::strong_config(1, 1),
                          2),
            expected);
}

TEST(GoldenFigures, ExactStrongScalingB) {
  const ExactFigures expected{
      13596u, 1036286u,
      {0x3fd0cdcc2a69535cu, 0x3fd6fdd0da1dacb3u, 0x3fdba245e90529d1u,
       0x3fe9ef5ae81fef21u, 0x3fe8776265afa528u, 0x3fe39d2c29128d8bu,
       0x3fd9681981d1f4e7u, 0x3fe3c17bfee53667u, 0x3f8347ed52521840u,
       0x3f8347ed52521840u},
      {{8960u, 0u, 0u}, {9289u, 0u, 0u}, {112u, 0u, 0u}}};
  EXPECT_EQ(exact_figures(bench::standard_dataset({4, 4, 4}),
                          md::ForceField::sodium(), bench::strong_config(3, 1),
                          2),
            expected);
}

TEST(GoldenFigures, ExactStrongScalingC) {
  const ExactFigures expected{
      7498u, 1036286u,
      {0x3fce7860ef26186au, 0x3fd6c256b8c7644fu, 0x3fd90dd4dbf020a8u,
       0x3fe7de0ffa898697u, 0x3fe8857c23936922u, 0x3fe1be2dd787a2f3u,
       0x3fd708e36f251fccu, 0x3fe2037a12129e77u, 0x3f917b1e1d16e01cu,
       0x3f917b1e1d16e01cu},
      {{8960u, 0u, 0u}, {9285u, 0u, 0u}, {112u, 0u, 0u}}};
  EXPECT_EQ(exact_figures(bench::standard_dataset({4, 4, 4}),
                          md::ForceField::sodium(), bench::strong_config(3, 2),
                          2),
            expected);
}

TEST(GoldenFigures, ExactLossyLinks2x2x2) {
  // Design C on the 2x2x2 torus with every link dropping, duplicating,
  // reordering and corrupting packets: the retransmit protocol's own
  // traffic is pinned alongside the data packets.
  auto config = bench::strong_config(3, 2);
  config.faults =
      net::FaultPlan::parse("drop=0.1,dup=0.05,reorder=0.05,corrupt=0.05,seed=7");
  const ExactFigures expected{
      24128u, 60715u,
      {0x3f92f01485b2497du, 0x3fa3611a7b9611a8u, 0x3f94ea454339b805u,
       0x3fb2b061c8517c44u, 0x3fd07d443295b656u, 0x3fa0662ea0b51425u,
       0x3f7ad75ed707ec15u, 0x3fa83e6323fd48a8u, 0x3f55babcc647fa91u,
       0x3f55babcc647fa91u},
      {{3947u, 3652u, 1707u}, {2512u, 2376u, 905u}, {150u, 142u, 38u}}};
  EXPECT_EQ(exact_figures(bench::standard_dataset({4, 4, 4}, 16),
                          md::ForceField::sodium(), config, 2),
            expected);
}

}  // namespace
}  // namespace fasda
