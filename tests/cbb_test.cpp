#include <gtest/gtest.h>

#include <cmath>

#include "fasda/cbb/cbb.hpp"
#include "fasda/util/rng.hpp"

namespace fasda::cbb {
namespace {

struct CbbHarness {
  explicit CbbHarness(const CbbConfig& config = CbbConfig{},
                      geom::IVec3 lcell = {1, 1, 1})
      : ff(md::ForceField::sodium()),
        model(ff, 8.5, interp::InterpConfig{}, md::ForceTerms{}, 2.0, 8.5),
        map({1, 1, 1}, {3, 3, 3}),
        cells("cells", config, model, map, {0, 0, 0}, {lcell}) {
    spes_ = config.spes;
    scheduler.add(&cells);
    for (sim::Clocked* c : cells.clocked()) scheduler.add_clocked(c);
    // No rings here to commit the injection FIFOs.
    for (int s = 0; s < spes_; ++s) {
      scheduler.add_clocked(&cells.injector<ring::PosToken>(0, s));
      scheduler.add_clocked(&cells.injector<ring::ForceToken>(0, s));
    }
    scheduler.add_clocked(&cells.injector<ring::MigrateToken>(0, 0));
  }

  void fill(int count, std::uint64_t seed = 3) {
    util::Xoshiro256 rng(seed);
    for (int i = 0; i < count; ++i) {
      pe::CellParticle p;
      p.pos = {fixed::FixedCoord::from_cell_offset(2, rng.uniform()),
               fixed::FixedCoord::from_cell_offset(2, rng.uniform()),
               fixed::FixedCoord::from_cell_offset(2, rng.uniform())};
      p.vel = {0.001f, -0.002f, 0.0005f};
      p.elem = 0;
      p.id = static_cast<std::uint32_t>(i);
      cells.particles(0).push_back(p);
    }
  }

  /// Runs cycles; when `drain_rings` is set, consumes whatever the CBB
  /// injects into its ring FIFOs (standing in for the rings, which are not
  /// attached in these unit tests).
  void run(int cycles, bool drain_rings = false) {
    for (int i = 0; i < cycles; ++i) {
      if (drain_rings) {
        for (int s = 0; s < spes_; ++s) {
          auto& pos = cells.injector<ring::PosToken>(0, s);
          if (!pos.empty()) drained_pos.push_back(pos.pop());
          auto& frc = cells.injector<ring::ForceToken>(0, s);
          if (!frc.empty()) drained_frc.push_back(frc.pop());
        }
        auto& mu = cells.injector<ring::MigrateToken>(0, 0);
        if (!mu.empty()) drained_mu.push_back(mu.pop());
      }
      scheduler.run_cycle();
    }
  }

  int spes_ = 1;
  std::vector<ring::PosToken> drained_pos;
  std::vector<ring::ForceToken> drained_frc;
  std::vector<ring::MigrateToken> drained_mu;

  md::ForceField ff;
  md::Datapath model;
  idmap::ClusterMap map;
  CellArray cells;
  sim::Scheduler scheduler;
};

TEST(Cbb, HomePairsProduceForces) {
  CbbHarness h;
  h.fill(16);
  h.cells.begin_force_phase(0);
  for (int i = 0; i < 5000 && !h.cells.force_quiescent(0); ++i) h.run(1, true);
  ASSERT_TRUE(h.cells.force_quiescent(0));
  // Newton's third law within the cell: forces sum to ~0.
  geom::Vec3f sum{};
  double magnitude = 0.0;
  for (const auto& f : h.cells.forces(0)) {
    sum += f;
    magnitude += f.cast<double>().norm();
  }
  EXPECT_GT(magnitude, 0.0);
  EXPECT_LT(sum.cast<double>().norm() / magnitude, 1e-5);
}

TEST(Cbb, PositionsInjectedOntoRing) {
  CbbHarness h;
  h.fill(8);
  h.cells.begin_force_phase(0);
  EXPECT_FALSE(h.cells.positions_injected(0));
  h.run(50);
  EXPECT_TRUE(h.cells.positions_injected(0));
  // Without a ring draining pr_inject the CBB must not be quiescent… the
  // injected tokens sit in the injection FIFO.
  EXPECT_FALSE(h.cells.force_quiescent(0));
}

TEST(Cbb, MotionUpdateIntegratesVelocity) {
  CbbHarness h;
  h.fill(4);
  // Skip force evaluation: zero forces, constant velocity drift.
  h.cells.begin_force_phase(0);
  for (int i = 0; i < 5000 && !h.cells.force_quiescent(0); ++i) h.run(1, true);
  const auto before = h.cells.particles(0);
  h.cells.begin_motion_update(0);
  for (int i = 0; i < 200 && !h.cells.mu_done(0); ++i) h.run(1);
  ASSERT_TRUE(h.cells.mu_done(0));
  const auto& after = h.cells.particles(0);
  for (std::size_t i = 0; i < after.size(); ++i) {
    // x advances by vx*dt/cell = 0.001*2/8.5 cells.
    const double expected =
        before[i].pos.x.to_double() + 0.001 * 2.0 / 8.5;
    EXPECT_NEAR(after[i].pos.x.to_double(), expected, 1e-5);
  }
}

TEST(Cbb, MigrationEmitsTokenAndRemovesParticle) {
  CbbHarness h;
  pe::CellParticle p;
  p.pos = {fixed::FixedCoord::from_cell_offset(2, 0.999),
           fixed::FixedCoord::from_cell_offset(2, 0.5),
           fixed::FixedCoord::from_cell_offset(2, 0.5)};
  p.vel = {0.5f, 0.0f, 0.0f};  // fast: crosses the +x boundary in one step
  p.elem = 0;
  p.id = 42;
  h.cells.particles(0).push_back(p);
  h.cells.begin_force_phase(0);
  for (int i = 0; i < 2000 && !h.cells.force_quiescent(0); ++i) h.run(1, true);
  h.cells.begin_motion_update(0);
  for (int i = 0; i < 100 && !h.cells.mu_done(0); ++i) h.run(1, true);
  ASSERT_TRUE(h.cells.mu_done(0));
  // The harness drained the MU ring token: it targets the +x neighbour and
  // carries the particle id.
  ASSERT_EQ(h.drained_mu.size(), 1u);
  EXPECT_EQ(h.drained_mu[0].dest_lcid, (geom::IVec3{2, 1, 1}));
  EXPECT_EQ(h.drained_mu[0].particle_id, 42u);
  // The particle is tombstoned and disappears at the next force phase.
  h.cells.begin_force_phase(0);
  EXPECT_TRUE(h.cells.particles(0).empty());
}

TEST(Cbb, MigrationArrivalAppendsParticle) {
  CbbHarness h;
  h.fill(2);
  ring::MigrateToken token;
  token.dest_lcid = {1, 1, 1};
  token.offset = {fixed::FixedCoord::from_cell_offset(2, 0.1),
                  fixed::FixedCoord::from_cell_offset(2, 0.2),
                  fixed::FixedCoord::from_cell_offset(2, 0.3)};
  token.vel = {0.0f, 0.0f, 0.0f};
  token.elem = 0;
  token.particle_id = 77;
  ASSERT_TRUE(h.cells.deliver(0, 0, token));
  h.run(2);  // commit + intake
  ASSERT_EQ(h.cells.particles(0).size(), 3u);
  EXPECT_EQ(h.cells.particles(0).back().id, 77u);
  EXPECT_TRUE(h.cells.migration_intake_empty(0));
}

TEST(Cbb, MuStationOnlyAcceptsOwnCell) {
  CbbHarness h;
  ring::MigrateToken mine;
  mine.dest_lcid = {1, 1, 1};
  ring::MigrateToken other;
  other.dest_lcid = {0, 1, 1};
  using Action = ring::Action;
  EXPECT_EQ(h.cells.classify(0, mine), Action::kDeliverAndDrop);
  EXPECT_EQ(h.cells.classify(0, other), Action::kPass);
}

TEST(Cbb, PosStationAcceptsForwardNeighborsOnly) {
  CbbHarness h;  // cell (1,1,1) in a 3x3x3 single node
  using Action = ring::Action;
  ring::PosToken token;
  token.deliveries_remaining = 5;
  // (0,1,1) -> (1,1,1) is +x: forward, so the PRN accepts.
  token.src_lcid = {0, 1, 1};
  EXPECT_EQ(h.cells.classify(0, token), Action::kDeliver);
  // Last delivery drops the token from the ring.
  token.deliveries_remaining = 1;
  EXPECT_EQ(h.cells.classify(0, token), Action::kDeliverAndDrop);
  // (2,1,1) -> (1,1,1) is -x: backward, pass.
  token.src_lcid = {2, 1, 1};
  EXPECT_EQ(h.cells.classify(0, token), Action::kPass);
  // Own cell: never a neighbour of itself.
  token.src_lcid = {1, 1, 1};
  EXPECT_EQ(h.cells.classify(0, token), Action::kPass);
}

TEST(Cbb, FrcStationMatchesExactCell) {
  CbbHarness h;
  h.fill(4);
  h.cells.begin_force_phase(0);  // sizes the force array
  using Action = ring::Action;
  ring::ForceToken token;
  token.dest_lcid = {1, 1, 1};
  token.slot = 2;
  token.force = {1.0f, 2.0f, 3.0f};
  EXPECT_EQ(h.cells.classify(0, token), Action::kDeliverAndDrop);
  ASSERT_TRUE(h.cells.deliver(0, 0, token));
  EXPECT_FLOAT_EQ(h.cells.forces(0)[2].y, 2.0f);
  token.dest_lcid = {0, 0, 0};
  EXPECT_EQ(h.cells.classify(0, token), Action::kPass);
}

TEST(Cbb, RemoteOfferFiresForBoundaryCells) {
  // In a 2x2x2-node cluster every cell of a 2x2x2 block borders other
  // FPGAs, so each injected position is offered to the P2R chain.
  md::ForceField ff = md::ForceField::sodium();
  md::Datapath model(ff, 8.5, interp::InterpConfig{}, md::ForceTerms{}, 2.0,
                     8.5);
  idmap::ClusterMap map({2, 2, 2}, {2, 2, 2});
  CellArray cells("cells", CbbConfig{}, model, map, {0, 0, 0}, {{1, 1, 1}});
  int offers = 0;
  cells.set_remote_position_sink(0, [&](const RemotePosition&) { ++offers; });

  sim::Scheduler scheduler;
  scheduler.add(&cells);
  for (sim::Clocked* c : cells.clocked()) scheduler.add_clocked(c);
  scheduler.add_clocked(&cells.injector<ring::PosToken>(0, 0));
  for (int i = 0; i < 4; ++i) {
    pe::CellParticle p;
    p.pos = {fixed::FixedCoord::from_cell_offset(2, 0.5),
             fixed::FixedCoord::from_cell_offset(2, 0.5),
             fixed::FixedCoord::from_cell_offset(2, 0.5)};
    p.id = static_cast<std::uint32_t>(i);
    cells.particles(0).push_back(p);
  }
  cells.begin_force_phase(0);
  for (int i = 0; i < 100; ++i) scheduler.run_cycle();
  EXPECT_EQ(offers, 4);
}

TEST(Cbb, ScbbVariantBuildsMultipleRingInterfaces) {
  CbbConfig config;
  config.pes_per_spe = 3;
  config.spes = 2;
  CbbHarness h(config);
  EXPECT_EQ(h.cells.pes_per_cell(), 6);
  EXPECT_EQ(h.cells.num_fcs(), 2 * 4);
  // Both SPE ring interfaces exist and are distinct.
  EXPECT_NE(&h.cells.injector<ring::PosToken>(0, 0),
            &h.cells.injector<ring::PosToken>(0, 1));
  EXPECT_NE(&h.cells.injector<ring::ForceToken>(0, 0),
            &h.cells.injector<ring::ForceToken>(0, 1));
}

TEST(Cbb, ScbbSplitsInjectionBySlotParity) {
  CbbConfig config;
  config.spes = 2;
  CbbHarness h(config);
  h.fill(8);
  h.cells.begin_force_phase(0);
  h.run(30);
  // Even slots feed ring 0, odd slots ring 1 (PC0/PC1, §4.6): drain both
  // injection FIFOs and count.
  int even = 0, odd = 0;
  for (int s = 0; s < 2; ++s) {
    auto& fifo = h.cells.injector<ring::PosToken>(0, s);
    while (!fifo.empty()) {
      const auto token = fifo.pop();
      (token.slot % 2 == 0 ? even : odd)++;
      EXPECT_EQ(static_cast<int>(token.slot % 2), s);
    }
  }
  EXPECT_EQ(even, 4);
  EXPECT_EQ(odd, 4);
}

}  // namespace
}  // namespace fasda::cbb
