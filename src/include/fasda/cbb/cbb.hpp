#pragma once
// Cell Building Block (§3.1) and its strong-scaling generalization, the
// Scalable CBB (§4.5-4.6, Figs. 14-15).
//
// One CBB owns one cell of the simulation space:
//   * particle storage — the Position/Velocity caches plus the Home Position
//     Cache that all PEs stream during force evaluation,
//   * `spes` Scalable Processing Elements, each with `pes_per_spe` PEs and
//     its own position/force ring attachment (separate routing paths per
//     SPE, §4.6),
//   * force caches — modelled as one accumulation array per cell with the
//     physical FC count (pes_per_spe + 1 per SPE) tracked for the resource
//     model; the adder-tree combine happens implicitly at motion update,
//   * a Motion-update Unit processing one particle per cycle,
//   * ring stations: one PRN and FRN per SPE ring, one MURN.
//
// Home positions are injected into SPE ring s by slot parity (slot % spes),
// the even/odd PC0/PC1 split of §4.6; intra-cell pair references are
// dispatched round-robin across every PE.

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "fasda/idmap/cell_id_map.hpp"
#include "fasda/pe/processing_element.hpp"
#include "fasda/ring/ring.hpp"
#include "fasda/ring/tokens.hpp"

namespace fasda::cbb {

struct CbbConfig {
  int pes_per_spe = 1;
  int spes = 1;
  pe::PEConfig pe{};
  std::size_t fifo_depth = 64;
  /// Arriving neighbour positions are buffered deeply (BRAM-backed, like
  /// the paper's dispatcher-fed position registers) so the position ring
  /// drains as soon as it multicasts — this is what keeps PR utilization
  /// low ("PR underused due to the excellent locality of position data",
  /// §5.3) instead of using the ring itself as a distributed queue.
  std::size_t arrival_buffer_depth = 1024;
};

/// A position record offered to the node's P2R encapsulation chain when this
/// cell borders another FPGA (§4.3).
struct RemotePosition {
  geom::IVec3 src_gcell;
  fixed::FixedVec3 offset;
  md::ElementId elem = 0;
  std::uint16_t slot = 0;
};

/// Test-only global probe observing every Force Cache write: the owning
/// cell, target slot, value, and source (fc index for PE-side writes, -1 for
/// force-ring deliveries). Never set in production runs.
struct FcProbe {
  using Fn = std::function<void(const geom::IVec3& gcell, std::uint16_t slot,
                                const geom::Vec3f& force, int source)>;
  static Fn hook;
};

class Cbb : public sim::Component, public pe::ForceSink {
 public:
  Cbb(std::string name, const CbbConfig& config, const md::Datapath& datapath,
      const idmap::ClusterMap& map, geom::IVec3 node, geom::IVec3 lcell);
  ~Cbb() override;

  Cbb(const Cbb&) = delete;
  Cbb& operator=(const Cbb&) = delete;

  /// Everything to register with the scheduler (this CBB + its PEs).
  std::vector<sim::Component*> components();
  std::vector<sim::Clocked*> clocked();

  ring::Station<ring::PosToken>& pos_station(int spe);
  ring::Station<ring::ForceToken>& frc_station(int spe);
  ring::Station<ring::MigrateToken>& mu_station();

  /// Node-level hook: offered once per home particle at force-phase start
  /// when the particle has remote destinations.
  void set_remote_position_sink(std::function<void(const RemotePosition&)> f) {
    offer_remote_ = std::move(f);
  }

  const geom::IVec3& local_cell() const { return lcell_; }
  const geom::IVec3& global_cell() const { return gcell_; }

  std::vector<pe::CellParticle>& particles() { return particles_; }
  const std::vector<pe::CellParticle>& particles() const { return particles_; }
  /// Per-slot combined forces read out of the fixed-point FC accumulators.
  /// Accumulation is order-independent (see fixed::ForceAccum), so this is
  /// bitwise identical no matter how ring/network timing interleaved the
  /// contributing writes.
  std::vector<geom::Vec3f> forces() const;

  // ---- phase control (driven by the FpgaNode) ----
  void begin_force_phase();
  /// All local force-evaluation work complete and every FIFO drained.
  bool force_quiescent() const;
  /// Every home position has been broadcast (and offered to the P2R chain).
  bool positions_injected() const { return inject_cursor_ >= particles_.size(); }
  /// No migration arrivals waiting to be folded into the particle store.
  bool migration_intake_empty() const {
    return mu_arrivals_->total_occupancy() == 0;
  }
  /// Starts the MU pass over the home particles, with the constants the
  /// Datapath was built with.
  void begin_motion_update();
  bool mu_done() const;

  void tick(sim::Cycle now) override;

  /// Elision oracle: busy while anything is queued for this cell in the
  /// current phase (migration intake, position injection, dispatcher
  /// queues, PE outputs, MU cursor); never self-schedules a future event.
  sim::Cycle next_wake(sim::Cycle now) const override;
  void skip_idle(sim::Cycle from, sim::Cycle to) override;

  void accumulate(std::uint16_t slot, const geom::Vec3f& force,
                  int fc_index) override;

  // ---- statistics ----
  sim::UtilCounter pe_util() const;
  sim::UtilCounter filter_util() const;
  const sim::UtilCounter& mu_util() const { return mu_util_; }
  std::uint64_t pairs_issued() const;

  int num_pes() const { return static_cast<int>(pes_.size()); }
  int num_fcs() const { return config_.spes * (config_.pes_per_spe + 1); }

 private:
  class PosStation;
  class FrcStation;
  class MuStation;
  friend class PosStation;
  friend class FrcStation;
  friend class MuStation;

  enum class Phase { kIdle, kForce, kMotionUpdate };

  void tick_force_phase();
  void tick_motion_update();

  pe::ProcessingElement& pe_at(int spe, int k) {
    return *pes_[static_cast<std::size_t>(spe) * config_.pes_per_spe + k];
  }

  CbbConfig config_;
  const md::Datapath& datapath_;
  const idmap::ClusterMap& map_;
  geom::IVec3 node_;
  geom::IVec3 lcell_;
  geom::IVec3 gcell_;
  int local_pos_deliveries_ = 0;  ///< local cells accepting this cell's positions
  bool has_remote_dests_ = false;

  std::vector<pe::CellParticle> particles_;
  std::vector<fixed::ForceAccum> forces_;  ///< FC accumulators, by slot
  std::vector<bool> migrated_;

  std::vector<std::unique_ptr<pe::ProcessingElement>> pes_;

  // Per-SPE plumbing.
  std::vector<std::unique_ptr<sim::Fifo<ring::PosToken>>> pr_inject_;
  std::vector<std::unique_ptr<sim::Fifo<ring::ForceToken>>> fr_inject_;
  std::vector<std::unique_ptr<sim::Fifo<pe::Reference>>> arrivals_;
  std::vector<std::deque<pe::Reference>> dispatch_;
  std::vector<std::unique_ptr<PosStation>> pos_stations_;
  std::vector<std::unique_ptr<FrcStation>> frc_stations_;
  std::unique_ptr<MuStation> mu_station_;
  std::unique_ptr<sim::Fifo<ring::MigrateToken>> mu_inject_;
  std::unique_ptr<sim::Fifo<ring::MigrateToken>> mu_arrivals_;

  std::function<void(const RemotePosition&)> offer_remote_;

  Phase phase_ = Phase::kIdle;
  std::size_t inject_cursor_ = 0;  ///< next home particle to broadcast

  // Motion update state.
  std::size_t mu_cursor_ = 0;
  std::size_t mu_limit_ = 0;
  sim::UtilCounter mu_util_;
};

}  // namespace fasda::cbb
