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
//
// All CBBs of a node and their PEs live in one CellArray, the node's single
// scheduled datapath component besides its rings. Its tick runs the CBB
// stages of every cell (migration intake, motion update, position
// injection, then arrival intake, dispatch and force-output arbitration
// for the busy lanes), then the stages of every active PE. The cells' ring
// stations are table lookups: position acceptance and the RCID rebase
// offset per (cell, source cell) are built once from the ClusterMap at
// construction.

#include <functional>
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

using FcProbe = pe::FcProbe;

class CellArray : public sim::Component {
 public:
  /// The cells `lcells` of `node` (a node passes all of its cells in local
  /// CID order; a cell index below is a position in that list).
  CellArray(std::string name, const CbbConfig& config,
            const md::Datapath& datapath, const idmap::ClusterMap& map,
            geom::IVec3 node, const std::vector<geom::IVec3>& lcells);

  CellArray(const CellArray&) = delete;
  CellArray& operator=(const CellArray&) = delete;

  int num_cells() const { return static_cast<int>(cells_.size()); }

  /// The two-phase FIFOs to register with the scheduler: the PE input and
  /// output FIFOs. The ring injection FIFOs (injector()) are committed by
  /// the ring they feed.
  std::vector<sim::Clocked*> clocked();

  /// Node-level hook: offered once per home particle of cell `c` at
  /// force-phase start when the particle has remote destinations.
  void set_remote_position_sink(int c,
                                std::function<void(const RemotePosition&)> f) {
    cells_[c].offer_remote = std::move(f);
  }

  // ---- ring stations of cell c (SPE ring `spe`) ----
  ring::Action classify(int c, const ring::PosToken& t) const {
    const PosRoute& route = pos_route(c, t.src_lcid);
    if (!route.accept) return ring::Action::kPass;
    return t.deliveries_remaining <= 1 ? ring::Action::kDeliverAndDrop
                                       : ring::Action::kDeliver;
  }
  ring::Action classify(int c, const ring::ForceToken& t) const {
    return t.dest_lcid == cells_[c].lcell ? ring::Action::kDeliverAndDrop
                                          : ring::Action::kPass;
  }
  ring::Action classify(int c, const ring::MigrateToken& t) const {
    return t.dest_lcid == cells_[c].lcell ? ring::Action::kDeliverAndDrop
                                          : ring::Action::kPass;
  }
  bool deliver(int c, int spe, ring::PosToken& t);
  bool deliver(int c, int spe, ring::ForceToken& t);
  bool deliver(int c, int spe, ring::MigrateToken& t);
  template <class T>
  sim::Fifo<T>& injector(int c, int spe);

  // ---- phase control (driven by the FpgaNode) ----
  void begin_force_phase(int c);
  /// All local force-evaluation work complete and every FIFO drained.
  bool force_quiescent(int c) const;
  /// force_quiescent for every cell; a busy cell, lane or PE answers first.
  bool force_quiescent() const;
  /// Every home position has been broadcast (and offered to the P2R chain).
  bool positions_injected(int c) const {
    return cells_[c].inject_cursor >= particles_[c].size();
  }
  /// No migration arrivals waiting to be folded into the particle store.
  bool migration_intake_empty(int c) const { return mu_arrivals_[c].empty(); }
  /// Starts the MU pass over the home particles, with the constants the
  /// Datapath was built with.
  void begin_motion_update(int c);
  bool mu_done(int c) const;

  std::vector<pe::CellParticle>& particles(int c) { return particles_[c]; }
  std::vector<geom::Vec3f> forces(int c) const;
  const geom::IVec3& local_cell(int c) const { return cells_[c].lcell; }
  const geom::IVec3& global_cell(int c) const { return cells_[c].gcell; }

  /// One cycle: every cell's CBB stages, then every PE's.
  void tick(sim::Cycle now) override;

  /// Elision oracle, aggregated exactly over the cells and PEs: busy while
  /// any cell has anything queued in the current phase (migration intake,
  /// position injection, dispatcher queues, PE outputs, MU cursor) or any
  /// PE is busy; otherwise the earliest PE pipeline completion. A cell
  /// never self-schedules a future event.
  sim::Cycle next_wake(sim::Cycle now) const override;
  void skip_idle(sim::Cycle from, sim::Cycle to) override;

  // ---- statistics (cell c, or -1 for every cell) ----
  sim::UtilCounter pe_util(int c = -1) const;
  sim::UtilCounter filter_util(int c = -1) const;
  sim::UtilCounter mu_util() const;
  /// Work is particles updated; every cell's capacity is one per cycle.
  sim::UtilCounter mu_util(int c) const {
    return {cells_[c].mu_work, ticks_, cells_[c].mu_active};
  }
  std::uint64_t pairs_issued(int c = -1) const;

  int pes_per_cell() const { return config_.spes * config_.pes_per_spe; }
  int num_fcs() const { return config_.spes * (config_.pes_per_spe + 1); }

 private:
  enum class Phase : std::uint8_t { kIdle, kForce, kMotionUpdate };

  /// Position-ring acceptance of a source cell at one destination cell,
  /// and the RCID offset (RCID - 2) that rebases its positions.
  struct PosRoute {
    bool accept = false;
    geom::IVec3 shift;
  };

  struct CellState {
    geom::IVec3 lcell;
    geom::IVec3 gcell;
    int local_pos_deliveries = 0;  ///< local cells accepting this cell's positions
    bool has_remote_dests = false;
    Phase phase = Phase::kIdle;
    std::size_t inject_cursor = 0;  ///< next home particle to broadcast
    std::size_t mu_cursor = 0;
    std::size_t mu_limit = 0;
    std::uint64_t mu_work = 0;    ///< particles updated
    std::uint64_t mu_active = 0;  ///< cycles the MU worked or stalled
    std::function<void(const RemotePosition&)> offer_remote;
  };

  /// Route of a source LCID at cell c. Source cells on a node's rings lie
  /// in the node's block or its one-cell halo; `halo_[axis]` maps an LCID
  /// coordinate to its halo coordinate (-1 outside, never accepted).
  const PosRoute& pos_route(int c, const geom::IVec3& src_lcid) const {
    const int hx = halo_[0][static_cast<std::size_t>(src_lcid.x)];
    const int hy = halo_[1][static_cast<std::size_t>(src_lcid.y)];
    const int hz = halo_[2][static_cast<std::size_t>(src_lcid.z)];
    if ((hx | hy | hz) < 0) return kNoRoute;
    return pos_routes_[static_cast<std::size_t>(c) * halo_cells_ +
                       static_cast<std::size_t>(
                           (hx * halo_dims_.y + hy) * halo_dims_.z + hz)];
  }

  void inject_position(int c);
  void tick_lane(std::size_t l);
  void tick_motion_update(int c);
  bool cell_busy(int c) const;
  int first_pe(int c) const { return c * pes_per_cell(); }
  std::size_t lane(int c, int spe) const {
    return static_cast<std::size_t>(c * config_.spes + spe);
  }

  static const PosRoute kNoRoute;

  CbbConfig config_;
  const md::Datapath& datapath_;
  const idmap::ClusterMap& map_;

  std::vector<CellState> cells_;
  std::vector<std::vector<pe::CellParticle>> particles_;
  std::vector<std::vector<fixed::ForceAccum>> forces_;  ///< FC accumulators
  std::vector<std::vector<std::uint8_t>> migrated_;

  // Per (cell, SPE), indexed by lane(c, spe).
  std::vector<sim::Fifo<ring::PosToken>> pr_inject_;
  std::vector<sim::Fifo<ring::ForceToken>> fr_inject_;
  // Pool slots of the (cell, SPE) reference pool in pes_. arrivals_ and
  // mu_arrivals_ are single-phase: the rings that push them tick after the
  // array (FpgaNode::register_with), so a delivery is seen a cycle later.
  std::vector<sim::Queue<pe::PeArray::RefSlot>> arrivals_;  ///< PRN deliveries
  std::vector<sim::Queue<pe::PeArray::RefSlot>> dispatch_;
  // Per cell.
  std::vector<sim::Fifo<ring::MigrateToken>> mu_inject_;
  std::vector<sim::Queue<ring::MigrateToken>> mu_arrivals_;
  std::size_t mu_arrivals_pending_ = 0;  ///< sum over mu_arrivals_
  /// Lanes whose CBB stages (arrival intake, dispatch, force-output
  /// arbitration) may have work: set when a reference or a retired force
  /// enters the lane, cleared when the stages find all three empty.
  sim::Bitset lane_busy_;
  sim::Bitset injecting_;  ///< cells with home positions left to broadcast
  std::uint64_t ticks_ = 0;  ///< cycles ticked or skipped: MU capacity

  /// PE p of cell c, SPE s is c * pes_per_cell() + s * pes_per_spe + k;
  /// each SPE's PEs share the reference pool lane(c, s).
  pe::PeArray pes_;

  std::vector<std::int16_t> halo_[3];
  geom::IVec3 halo_dims_;
  std::size_t halo_cells_ = 0;
  std::vector<PosRoute> pos_routes_;  ///< halo_cells_ per cell
};

template <>
sim::Fifo<ring::PosToken>& CellArray::injector<ring::PosToken>(int c, int spe);
template <>
sim::Fifo<ring::ForceToken>& CellArray::injector<ring::ForceToken>(int c,
                                                                   int spe);
template <>
sim::Fifo<ring::MigrateToken>& CellArray::injector<ring::MigrateToken>(int c,
                                                                       int spe);

}  // namespace fasda::cbb
