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
        block("cbb", config, model, map, {0, 0, 0}, lcell) {
    spes_ = config.spes;
    for (sim::Component* c : block.components()) scheduler.add(c);
    for (sim::Clocked* c : block.clocked()) scheduler.add_clocked(c);
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
      block.particles().push_back(p);
    }
  }

  /// Runs cycles; when `drain_rings` is set, consumes whatever the CBB
  /// injects into its ring FIFOs (standing in for the rings, which are not
  /// attached in these unit tests).
  void run(int cycles, bool drain_rings = false) {
    for (int i = 0; i < cycles; ++i) {
      if (drain_rings) {
        for (int s = 0; s < spes_; ++s) {
          auto* pos = block.pos_station(s).inject_source();
          if (!pos->empty()) drained_pos.push_back(pos->pop());
          auto* frc = block.frc_station(s).inject_source();
          if (!frc->empty()) drained_frc.push_back(frc->pop());
        }
        auto* mu = block.mu_station().inject_source();
        if (!mu->empty()) drained_mu.push_back(mu->pop());
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
  Cbb block;
  sim::Scheduler scheduler;
};

TEST(Cbb, HomePairsProduceForces) {
  CbbHarness h;
  h.fill(16);
  h.block.begin_force_phase();
  for (int i = 0; i < 5000 && !h.block.force_quiescent(); ++i) h.run(1, true);
  ASSERT_TRUE(h.block.force_quiescent());
  // Newton's third law within the cell: forces sum to ~0.
  geom::Vec3f sum{};
  double magnitude = 0.0;
  for (const auto& f : h.block.forces()) {
    sum += f;
    magnitude += f.cast<double>().norm();
  }
  EXPECT_GT(magnitude, 0.0);
  EXPECT_LT(sum.cast<double>().norm() / magnitude, 1e-5);
}

TEST(Cbb, PositionsInjectedOntoRing) {
  CbbHarness h;
  h.fill(8);
  h.block.begin_force_phase();
  EXPECT_FALSE(h.block.positions_injected());
  h.run(50);
  EXPECT_TRUE(h.block.positions_injected());
  // Without a ring draining pr_inject the CBB must not be quiescent… the
  // injected tokens sit in the injection FIFO.
  EXPECT_FALSE(h.block.force_quiescent());
}

TEST(Cbb, MotionUpdateIntegratesVelocity) {
  CbbHarness h;
  h.fill(4);
  // Skip force evaluation: zero forces, constant velocity drift.
  h.block.begin_force_phase();
  for (int i = 0; i < 5000 && !h.block.force_quiescent(); ++i) h.run(1, true);
  const auto before = h.block.particles();
  h.block.begin_motion_update();
  for (int i = 0; i < 200 && !h.block.mu_done(); ++i) h.run(1);
  ASSERT_TRUE(h.block.mu_done());
  const auto& after = h.block.particles();
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
  h.block.particles().push_back(p);
  h.block.begin_force_phase();
  for (int i = 0; i < 2000 && !h.block.force_quiescent(); ++i) h.run(1, true);
  h.block.begin_motion_update();
  for (int i = 0; i < 100 && !h.block.mu_done(); ++i) h.run(1, true);
  ASSERT_TRUE(h.block.mu_done());
  // The harness drained the MU ring token: it targets the +x neighbour and
  // carries the particle id.
  ASSERT_EQ(h.drained_mu.size(), 1u);
  EXPECT_EQ(h.drained_mu[0].dest_lcid, (geom::IVec3{2, 1, 1}));
  EXPECT_EQ(h.drained_mu[0].particle_id, 42u);
  // The particle is tombstoned and disappears at the next force phase.
  h.block.begin_force_phase();
  EXPECT_TRUE(h.block.particles().empty());
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
  ASSERT_TRUE(h.block.mu_station().try_deliver(token));
  h.run(2);  // commit + intake
  ASSERT_EQ(h.block.particles().size(), 3u);
  EXPECT_EQ(h.block.particles().back().id, 77u);
  EXPECT_TRUE(h.block.migration_intake_empty());
}

TEST(Cbb, MuStationOnlyAcceptsOwnCell) {
  CbbHarness h;
  ring::MigrateToken mine;
  mine.dest_lcid = {1, 1, 1};
  ring::MigrateToken other;
  other.dest_lcid = {0, 1, 1};
  using Action = ring::Station<ring::MigrateToken>::Action;
  EXPECT_EQ(h.block.mu_station().classify(mine), Action::kDeliverAndDrop);
  EXPECT_EQ(h.block.mu_station().classify(other), Action::kPass);
}

TEST(Cbb, PosStationAcceptsForwardNeighborsOnly) {
  CbbHarness h;  // cell (1,1,1) in a 3x3x3 single node
  using Action = ring::Station<ring::PosToken>::Action;
  ring::PosToken token;
  token.deliveries_remaining = 5;
  // (0,1,1) -> (1,1,1) is +x: forward, so the PRN accepts.
  token.src_lcid = {0, 1, 1};
  EXPECT_EQ(h.block.pos_station(0).classify(token), Action::kDeliver);
  // Last delivery drops the token from the ring.
  token.deliveries_remaining = 1;
  EXPECT_EQ(h.block.pos_station(0).classify(token), Action::kDeliverAndDrop);
  // (2,1,1) -> (1,1,1) is -x: backward, pass.
  token.src_lcid = {2, 1, 1};
  EXPECT_EQ(h.block.pos_station(0).classify(token), Action::kPass);
  // Own cell: never a neighbour of itself.
  token.src_lcid = {1, 1, 1};
  EXPECT_EQ(h.block.pos_station(0).classify(token), Action::kPass);
}

TEST(Cbb, FrcStationMatchesExactCell) {
  CbbHarness h;
  h.fill(4);
  h.block.begin_force_phase();  // sizes the force array
  using Action = ring::Station<ring::ForceToken>::Action;
  ring::ForceToken token;
  token.dest_lcid = {1, 1, 1};
  token.slot = 2;
  token.force = {1.0f, 2.0f, 3.0f};
  EXPECT_EQ(h.block.frc_station(0).classify(token), Action::kDeliverAndDrop);
  ASSERT_TRUE(h.block.frc_station(0).try_deliver(token));
  EXPECT_FLOAT_EQ(h.block.forces()[2].y, 2.0f);
  token.dest_lcid = {0, 0, 0};
  EXPECT_EQ(h.block.frc_station(0).classify(token), Action::kPass);
}

TEST(Cbb, RemoteOfferFiresForBoundaryCells) {
  // In a 2x2x2-node cluster every cell of a 2x2x2 block borders other
  // FPGAs, so each injected position is offered to the P2R chain.
  md::ForceField ff = md::ForceField::sodium();
  md::Datapath model(ff, 8.5, interp::InterpConfig{}, md::ForceTerms{}, 2.0,
                     8.5);
  idmap::ClusterMap map({2, 2, 2}, {2, 2, 2});
  Cbb block("cbb", CbbConfig{}, model, map, {0, 0, 0}, {1, 1, 1});
  int offers = 0;
  block.set_remote_position_sink([&](const RemotePosition&) { ++offers; });

  sim::Scheduler scheduler;
  for (sim::Component* c : block.components()) scheduler.add(c);
  for (sim::Clocked* c : block.clocked()) scheduler.add_clocked(c);
  for (int i = 0; i < 4; ++i) {
    pe::CellParticle p;
    p.pos = {fixed::FixedCoord::from_cell_offset(2, 0.5),
             fixed::FixedCoord::from_cell_offset(2, 0.5),
             fixed::FixedCoord::from_cell_offset(2, 0.5)};
    p.id = static_cast<std::uint32_t>(i);
    block.particles().push_back(p);
  }
  block.begin_force_phase();
  for (int i = 0; i < 100; ++i) scheduler.run_cycle();
  EXPECT_EQ(offers, 4);
}

TEST(Cbb, ScbbVariantBuildsMultipleRingInterfaces) {
  CbbConfig config;
  config.pes_per_spe = 3;
  config.spes = 2;
  CbbHarness h(config);
  EXPECT_EQ(h.block.num_pes(), 6);
  EXPECT_EQ(h.block.num_fcs(), 2 * 4);
  // Both SPE ring interfaces exist and are distinct.
  EXPECT_NE(&h.block.pos_station(0), &h.block.pos_station(1));
  EXPECT_NE(&h.block.frc_station(0), &h.block.frc_station(1));
}

TEST(Cbb, ScbbSplitsInjectionBySlotParity) {
  CbbConfig config;
  config.spes = 2;
  CbbHarness h(config);
  h.fill(8);
  h.block.begin_force_phase();
  h.run(30);
  // Even slots feed ring 0, odd slots ring 1 (PC0/PC1, §4.6): drain both
  // injection FIFOs via their stations and count.
  int even = 0, odd = 0;
  for (int s = 0; s < 2; ++s) {
    auto* fifo = h.block.pos_station(s).inject_source();
    while (!fifo->empty()) {
      const auto token = fifo->pop();
      (token.slot % 2 == 0 ? even : odd)++;
      EXPECT_EQ(static_cast<int>(token.slot % 2), s);
    }
  }
  EXPECT_EQ(even, 4);
  EXPECT_EQ(odd, 4);
}

}  // namespace
}  // namespace fasda::cbb
