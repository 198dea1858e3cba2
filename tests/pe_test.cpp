#include <gtest/gtest.h>

#include <cmath>

#include "fasda/md/energy.hpp"
#include "fasda/pe/processing_element.hpp"
#include "fasda/util/rng.hpp"

namespace fasda::pe {
namespace {

/// Sees every home-side Force Cache write of a run through the FcProbe
/// hook: checks the slot lies inside the bank and sums the forces.
struct CaptureSink {
  explicit CaptureSink(std::size_t slots) : forces(slots) {
    FcProbe::hook = [this](const geom::IVec3&, std::uint16_t slot,
                           const geom::Vec3f& force, int) {
      ASSERT_LT(slot, forces.size());
      forces[slot] += force;
    };
  }
  ~CaptureSink() { FcProbe::hook = nullptr; }
  CaptureSink(const CaptureSink&) = delete;
  CaptureSink& operator=(const CaptureSink&) = delete;
  std::vector<geom::Vec3f> forces;
};

/// Drains the PE output FIFO so retirement never backpressures.
class OutputDrain : public sim::Component {
 public:
  explicit OutputDrain(sim::Fifo<ring::ForceToken>* out)
      : Component("drain"), out_(out) {}
  void tick(sim::Cycle) override {
    if (!out_->empty()) tokens.push_back(out_->pop());
  }
  std::vector<ring::ForceToken> tokens;

 private:
  sim::Fifo<ring::ForceToken>* out_;
};

/// PE 0's input as the dispatcher feeds it: each reference is stored in
/// the PE's pool and its slot queued.
class InputPort {
 public:
  explicit InputPort(PeArray* array) : array_(array) {}
  bool push(const Reference& ref) {
    if (!array_->input(0).can_push()) return false;
    return array_->push_input(0, array_->alloc_ref(0, ref));
  }
  void commit() { array_->input(0).commit(); }

 private:
  PeArray* array_;
};

/// The single PE under test: PE 0 of a one-PE array, ticked by the
/// scheduler like the cell array ticks its PEs.
class SinglePe : public sim::Component {
 public:
  SinglePe(const PEConfig& config, const md::Datapath& model,
           const std::vector<CellParticle>* home,
           std::vector<fixed::ForceAccum>* fc)
      : Component("pe"), array_(config, model, 1, 1) {
    array_.bind(0, home, ForceCache{fc, {}, 0});
  }
  void tick(sim::Cycle now) override { array_.tick(now); }
  sim::Cycle next_wake(sim::Cycle now) const override {
    return array_.next_wake(now);
  }
  void skip_idle(sim::Cycle from, sim::Cycle to) override {
    array_.skip_idle(from, to);
  }

  InputPort input() { return InputPort(&array_); }
  sim::Fifo<PeArray::RefSlot>& input_fifo() { return array_.input(0); }
  sim::Fifo<ring::ForceToken>& output() { return array_.output(0); }
  bool quiescent() const { return array_.quiescent(0); }
  sim::UtilCounter pe_util() const { return array_.pe_util(0); }
  const sim::UtilCounter& filter_util() const { return array_.filter_util(0); }
  std::uint64_t pairs_issued() const { return array_.pairs_issued(0); }
  std::uint64_t refs_processed() const { return array_.refs_processed(0); }
  std::uint64_t zero_force_refs() const { return array_.zero_force_refs(0); }

 private:
  PeArray array_;
};

struct PeHarness {
  PeHarness(int num_home, std::uint64_t seed = 11,
            const PEConfig& config = PEConfig{})
      : ff(md::ForceField::sodium()),
        model(ff, 8.5, interp::InterpConfig{}, md::ForceTerms{}, 2.0, 8.5),
        home(),
        fc(static_cast<std::size_t>(num_home)),
        sink(num_home),
        pe(config, model, &home, &fc),
        drain(&pe.output()) {
    util::Xoshiro256 rng(seed);
    for (int i = 0; i < num_home; ++i) {
      home.push_back(CellParticle{
          {fixed::FixedCoord::from_cell_offset(2, rng.uniform()),
           fixed::FixedCoord::from_cell_offset(2, rng.uniform()),
           fixed::FixedCoord::from_cell_offset(2, rng.uniform())},
          {},
          0,
          static_cast<std::uint32_t>(i)});
    }
    scheduler.add(&pe);
    scheduler.add(&drain);
    scheduler.add_clocked(&pe.input_fifo());
    scheduler.add_clocked(&pe.output());
  }

  void run_until_quiescent(sim::Cycle budget = 100000) {
    scheduler.run_until([&] { return pe.quiescent(); }, budget);
    // A few extra cycles so staged output tokens drain.
    for (int i = 0; i < 4; ++i) scheduler.run_cycle();
  }

  md::ForceField ff;
  md::Datapath model;
  std::vector<CellParticle> home;
  std::vector<fixed::ForceAccum> fc;
  CaptureSink sink;
  SinglePe pe;
  OutputDrain drain;
  sim::Scheduler scheduler;
};

Reference home_ref(const CellParticle& p, std::uint16_t index) {
  Reference r;
  r.pos = p.pos;
  r.elem = p.elem;
  r.is_home = true;
  r.home_index = index;
  return r;
}

TEST(ProcessingElement, HomePairsMatchAnalyticForces) {
  PeHarness h(12);
  for (std::size_t i = 0; i < h.home.size(); ++i) {
    ASSERT_TRUE(h.pe.input().push(home_ref(h.home[i], i)));
  }
  // depth-16 input queue holds all 12 references.
  h.run_until_quiescent();

  // Golden: every unordered home pair within the cutoff, via the same
  // numeric model.
  std::vector<geom::Vec3f> expected(h.home.size());
  for (std::size_t i = 0; i < h.home.size(); ++i) {
    for (std::size_t j = i + 1; j < h.home.size(); ++j) {
      if (!h.model.filter(fixed::r2_fixed(h.home[i].pos, h.home[j].pos))) continue;
      const geom::Vec3f f = h.model.pair_force(
          fixed::r2_fixed(h.home[j].pos, h.home[i].pos), h.home[j].pos, 0,
          h.home[i].pos, 0);
      expected[j] += f;
      expected[i] -= f;
    }
  }
  // Random in-cell placement produces huge repulsive contributions that
  // cancel, so summation-order noise scales with the largest term, not the
  // net; tolerance follows the contribution magnitude.
  float contribution_scale = 1.0f;
  for (const auto& e : expected) {
    contribution_scale =
        std::max(contribution_scale, std::abs(e.x) + std::abs(e.y) + std::abs(e.z));
  }
  const float tol = 2e-5f * contribution_scale;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(h.sink.forces[i].x, expected[i].x, tol) << "slot " << i;
    EXPECT_NEAR(h.sink.forces[i].y, expected[i].y, tol) << "slot " << i;
    EXPECT_NEAR(h.sink.forces[i].z, expected[i].z, tol) << "slot " << i;
  }
  EXPECT_TRUE(h.drain.tokens.empty()) << "home refs retire into the FC";
}

TEST(ProcessingElement, NeighborRefReturnsNegatedAccumulatedForce) {
  PeHarness h(8);
  Reference ref;
  // Neighbour particle one cell to the left on x: RCID x = 1.
  ref.pos = {fixed::FixedCoord::from_cell_offset(1, 0.9),
             fixed::FixedCoord::from_cell_offset(2, 0.5),
             fixed::FixedCoord::from_cell_offset(2, 0.5)};
  ref.elem = 0;
  ref.src_lcid = {7, 8, 9};
  ref.slot = 3;
  ASSERT_TRUE(h.pe.input().push(ref));
  h.run_until_quiescent();

  geom::Vec3f expected_on_ref{};
  bool any = false;
  for (const auto& p : h.home) {
    if (!h.model.filter(fixed::r2_fixed(ref.pos, p.pos))) continue;
    expected_on_ref -=
        h.model.pair_force(fixed::r2_fixed(p.pos, ref.pos), p.pos, 0, ref.pos, 0);
    any = true;
  }
  ASSERT_TRUE(any) << "test fixture should produce at least one valid pair";
  ASSERT_EQ(h.drain.tokens.size(), 1u);
  const auto& t = h.drain.tokens[0];
  EXPECT_EQ(t.dest_lcid, (geom::IVec3{7, 8, 9}));
  EXPECT_EQ(t.slot, 3);
  EXPECT_NEAR(t.force.x, expected_on_ref.x, 1e-6f);
  EXPECT_NEAR(t.force.y, expected_on_ref.y, 1e-6f);
  EXPECT_NEAR(t.force.z, expected_on_ref.z, 1e-6f);
}

TEST(ProcessingElement, ZeroForceReferencesAreDiscarded) {
  PeHarness h(4);
  Reference ref;
  // Far corner of a diagonal neighbour cell: no home particle within R_c.
  ref.pos = {fixed::FixedCoord::from_cell_offset(3, 0.99),
             fixed::FixedCoord::from_cell_offset(3, 0.99),
             fixed::FixedCoord::from_cell_offset(3, 0.99)};
  ref.elem = 0;
  ref.src_lcid = {1, 1, 1};
  ref.slot = 0;
  // Clump home particles near the cell origin so the filter rejects all.
  for (auto& p : h.home) {
    p.pos = {fixed::FixedCoord::from_cell_offset(2, 0.01),
             fixed::FixedCoord::from_cell_offset(2, 0.01),
             fixed::FixedCoord::from_cell_offset(2, 0.01)};
  }
  ASSERT_TRUE(h.pe.input().push(ref));
  h.run_until_quiescent();
  EXPECT_TRUE(h.drain.tokens.empty()) << "§5.4: zero forces are discarded";
  EXPECT_EQ(h.pe.zero_force_refs(), 1u);
  EXPECT_EQ(h.pe.refs_processed(), 1u);
}

TEST(ProcessingElement, ThroughputBoundedByStreamPasses) {
  // 64 home particles, 6 filters, 16 neighbour references: ceil(16/6) = 3
  // passes of 64 cycles plus drain — the cycle count must be in that
  // ballpark, not per-pair serial (16*64 filter comparisons done 6-wide).
  PeHarness h(64, 5);
  util::Xoshiro256 rng(99);
  for (int i = 0; i < 16; ++i) {
    Reference ref;
    ref.pos = {fixed::FixedCoord::from_cell_offset(1, rng.uniform()),
               fixed::FixedCoord::from_cell_offset(2, rng.uniform()),
               fixed::FixedCoord::from_cell_offset(2, rng.uniform())};
    ref.elem = 0;
    ref.src_lcid = {0, 0, 0};
    ref.slot = static_cast<std::uint16_t>(i);
    ASSERT_TRUE(h.pe.input().push(ref));
  }
  h.scheduler.run_until([&] { return h.pe.quiescent(); }, 10000);
  const auto cycles = h.scheduler.cycle();
  EXPECT_GE(cycles, 3u * 64u);
  EXPECT_LT(cycles, 3u * 64u + 400u);
  EXPECT_EQ(h.pe.refs_processed(), 16u);  // includes any zero-force refs
}

TEST(ProcessingElement, UtilizationCounterspopulated) {
  PeHarness h(32);
  for (std::size_t i = 0; i < h.home.size() && i < 16; ++i) {
    h.pe.input().push(home_ref(h.home[i], i));
  }
  h.run_until_quiescent();
  EXPECT_GT(h.pe.filter_util().hardware_utilization(), 0.0);
  EXPECT_GT(h.pe.pe_util().time_utilization(h.scheduler.cycle()), 0.0);
  EXPECT_GT(h.pe.pairs_issued(), 0u);
}

TEST(ProcessingElement, QuiescentInitiallyAndAfterWork) {
  PeHarness h(8);
  EXPECT_TRUE(h.pe.quiescent());
  h.pe.input().push(home_ref(h.home[0], 0));
  h.pe.input().commit();
  EXPECT_FALSE(h.pe.quiescent());
  h.run_until_quiescent();
  EXPECT_TRUE(h.pe.quiescent());
}

}  // namespace
}  // namespace fasda::pe
