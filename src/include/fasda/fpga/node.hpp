#pragma once
// One FPGA node (§4, Figs. 8-15): the block of cells it owns as CBBs/SCBBs,
// one position ring and one force ring per SPE index (each with an EX
// station for external transactions, §4.1), a motion-update ring, packet
// endpoints for the position/force/migration channels, and the chained
// synchronization state machine that sequences force evaluation and motion
// update without any global barrier (§4.4).
//
// The node's own tick handles control: packet ingress (gated by phase so a
// fast neighbour's next-iteration data waits in the endpoint), egress
// pacing, EX conversions (GCID→LCID on arrival, §4.2), and phase
// transitions. The datapath is registered with the scheduler separately:
// one cbb::CellArray holding every CBB and PE of the node, and the rings,
// whose stations are the cell array's lookup tables plus one EX station
// each. A `slowdown` factor gates their ticks to model a straggler board.

#include <memory>
#include <optional>
#include <vector>

#include "fasda/cbb/cbb.hpp"
#include "fasda/net/network.hpp"
#include "fasda/obs/obs.hpp"
#include "fasda/sync/sync.hpp"

namespace fasda::fpga {

using NodeId = idmap::NodeId;

struct NodeConfig {
  cbb::CbbConfig cbb{};
  sync::SyncMode sync_mode = sync::SyncMode::kChained;
  int slowdown = 1;  ///< datapath ticks every `slowdown`-th cycle (straggler)
  /// Arms the ack/retransmit protocol on all three endpoints. Required
  /// whenever the fabrics carry a FaultPlan; must be set on every node of a
  /// cluster or on none.
  bool reliable = false;
  net::ReliabilityConfig reliability{};
  /// Injected node-level failures (crash/hang/stall) targeting this node;
  /// core::Simulation distributes them from the cluster FaultPlan. While a
  /// fault holds the node down, neither the control tick nor any datapath
  /// component runs — the node simply stops, like a real board.
  std::vector<net::NodeFault> node_faults;
  /// Telemetry hub (null = disabled). The node emits FSM phase spans, sync
  /// last-flush instants, phase-length histograms and an iteration counter,
  /// all into its own shard.
  obs::Hub* obs = nullptr;
};

class FpgaNode;

/// Gates an inner component's tick: skipped entirely while the owning node
/// is down (crash/hang/stall injection), and thinned to every k-th cycle
/// for a straggler board. Owner may be null for plain straggler gating.
class Gated : public sim::Component {
 public:
  Gated(sim::Component* inner, int factor, const FpgaNode* owner);
  void tick(sim::Cycle now) override;

  /// While the owner is down the inner component is frozen (the owner's own
  /// next_wake reports fault boundaries, so elision windows never straddle
  /// an aliveness change); otherwise the inner wake rounds up to the next
  /// gate-open cycle.
  sim::Cycle next_wake(sim::Cycle now) const override;
  /// Forwards a count-preserving sub-window covering only the gate-open
  /// ticks (inner skip_idle implementations are tick-count based).
  void skip_idle(sim::Cycle from, sim::Cycle to) override;

 private:
  sim::Component* inner_;
  int factor_;
  const FpgaNode* owner_;
};

class FpgaNode : public sim::Component {
 public:
  FpgaNode(NodeId id, const NodeConfig& config, const md::Datapath& datapath,
           const idmap::ClusterMap& map, net::Fabric<net::PosRecord>* pos_fabric,
           net::Fabric<net::FrcRecord>* frc_fabric,
           net::Fabric<net::MigRecord>* mig_fabric,
           sync::BulkBarrier* barrier /* nullptr for chained mode */);
  ~FpgaNode() override;

  FpgaNode(const FpgaNode&) = delete;
  FpgaNode& operator=(const FpgaNode&) = delete;

  /// Registers the node FSM, the cell array and the rings (through the
  /// straggler gate if configured), and all clocked elements — every one
  /// tagged with
  /// this node's shard() so a parallel scheduler keeps the whole node on one
  /// worker. Nothing registered here touches another node's state during
  /// tick: cross-node traffic goes through the two-phase fabrics only.
  void register_with(sim::Scheduler& scheduler);

  /// Shard tag for the scheduler: one shard per FPGA node.
  sim::ShardId shard() const { return static_cast<sim::ShardId>(id_); }

  /// Arms the node for `iterations` timesteps. Cell contents must have been
  /// loaded into the CBBs first.
  void start(int iterations);

  bool done() const { return state_ == State::kDone; }
  std::uint64_t iterations_completed() const { return iterations_completed_; }

  /// Whether the node is up at `now` per the injected node faults: false
  /// from a crash/hang cycle on, and inside a stall window. A down node
  /// skips its entire tick (control and datapath), so alive() going false
  /// is exactly "the board stopped".
  bool alive(sim::Cycle now) const;

  /// Cycle of the node's most recent tick while alive. A healthy node
  /// ticks every cycle, so any staleness beyond a handful of cycles means
  /// the node is down — the basis of core::Simulation's watchdog, with no
  /// false positives by construction (the control tick is never gated by
  /// the straggler slowdown).
  sim::Cycle last_heartbeat() const { return last_heartbeat_; }

  /// Human-readable FSM phase ("force", "motion-update", ...) for the
  /// watchdog's NodeFailureError diagnostics.
  const char* phase_name() const;

  /// Cycle at which each force phase started (head-start measurements).
  const std::vector<sim::Cycle>& force_phase_starts() const {
    return force_phase_starts_;
  }

  /// The CBBs of every local cell; a cell's index is its local CID
  /// (cell_index()).
  cbb::CellArray& cells() const { return *cells_; }
  int cell_index(const geom::IVec3& lcell) const {
    const geom::IVec3& cpn = map_.cells_per_node();
    return (lcell.x * cpn.y + lcell.y) * cpn.z + lcell.z;
  }
  int num_cbbs() const { return cells_->num_cells(); }

  NodeId id() const { return id_; }

  void tick(sim::Cycle now) override;

  /// Elision oracle for the control FSM (DESIGN.md §13). Folds, in order:
  /// injected fault boundaries (stall start/end, crash instant) so no
  /// elision window ever straddles an aliveness change; endpoint protocol
  /// and egress wakes; and the phase-specific sources — ingress arrivals
  /// for the current phase only (matching tick_ingress gating), pending EX
  /// slots, the exact tick_fsm guard conjunctions, and the bulk barrier's
  /// release cycle.
  sim::Cycle next_wake(sim::Cycle now) const override;
  /// Replays the only bookkeeping an idle alive tick performs: the
  /// heartbeat stamp. Aliveness is constant across any skip window because
  /// next_wake folds every fault boundary.
  void skip_idle(sim::Cycle from, sim::Cycle to) override;
  /// The watchdog reads last_heartbeat() from outside this node's shard, so
  /// the heartbeat must advance cycle-by-cycle even while the whole shard
  /// sleeps — the scheduler must not defer this component's skip_idle.
  bool eager_idle() const override { return true; }

  // ---- reliability introspection ----

  /// First degraded link detected on any channel, with the channel name
  /// ("pos"/"frc"/"mig"); nullopt while every link is healthy.
  std::optional<std::pair<net::DegradedLink, const char*>> degraded_link()
      const;

  const net::Endpoint<net::PosRecord>& pos_endpoint() const { return pos_ep_; }
  const net::Endpoint<net::FrcRecord>& frc_endpoint() const { return frc_ep_; }
  const net::Endpoint<net::MigRecord>& mig_endpoint() const { return mig_ep_; }

  // ---- aggregated statistics ----
  sim::UtilCounter pos_ring_util() const;
  sim::UtilCounter frc_ring_util() const;
  sim::UtilCounter pe_util() const;
  sim::UtilCounter filter_util() const;
  sim::UtilCounter mu_util() const;
  std::uint64_t pairs_issued() const;

 private:
  // The rings' station sets: the cells' table-driven stations in ring
  // order, then the EX station (defined in node.cpp).
  struct PosStations;
  struct FrcStations;
  struct MigStations;

  enum class State {
    kIdle,
    kForce,
    kForceBarrier,  // bulk mode only
    kMotionUpdate,
    kMuBarrier,  // bulk mode only
    kDone,
  };

  void tick_protocol(sim::Cycle now);
  void tick_ingress(sim::Cycle now);
  void tick_egress(sim::Cycle now);
  void tick_fsm(sim::Cycle now);

  bool all_positions_injected() const;
  /// Every cell's MU pass is done and its migrations have left the ring.
  bool local_mu_done() const;
  bool force_datapath_quiescent() const;
  bool frc_side_drained() const;
  bool mu_side_drained() const;
  void enter_force_phase(sim::Cycle now);
  void enter_motion_update(sim::Cycle now);
  /// Re-arms the cached scheduler wake of the cell array after a mid-cycle
  /// phase transition (see cells_sched_).
  void wake_cells(sim::Cycle now);
  void complete_iteration(sim::Cycle now);

  static const char* phase_name_of(State state);
  /// FSM transition with telemetry: closes the open phase span, records the
  /// phase-length histogram, and opens the next span (kIdle/kDone have no
  /// span of their own).
  void set_state(State next, sim::Cycle now);
  void sync_event(const char* name, sim::Cycle now);

  int local_delivery_count(const geom::IVec3& src_lcid) const;
  bool is_local(const geom::IVec3& lcid) const {
    const geom::IVec3& cpn = map_.cells_per_node();
    return lcid.x < cpn.x && lcid.y < cpn.y && lcid.z < cpn.z;
  }
  /// The EX extraction: the global cell of a node-frame LCID that lies off
  /// this node, and the node that owns it.
  std::pair<geom::IVec3, NodeId> export_address(const geom::IVec3& lcid) const;

  NodeId id_;
  NodeConfig config_;
  const idmap::ClusterMap& map_;
  geom::IVec3 node_coords_;
  std::vector<NodeId> neighbors_;

  std::unique_ptr<cbb::CellArray> cells_;  // cell index = local CID

  std::vector<std::unique_ptr<ring::Ring<ring::PosToken, PosStations>>>
      pos_rings_;
  std::vector<std::unique_ptr<ring::Ring<ring::ForceToken, FrcStations>>>
      frc_rings_;
  std::unique_ptr<ring::Ring<ring::MigrateToken, MigStations>> mu_ring_;

  // EX-side injection FIFOs (one per SPE ring).
  std::vector<std::unique_ptr<sim::Fifo<ring::PosToken>>> ex_pos_inject_;
  std::vector<std::unique_ptr<sim::Fifo<ring::ForceToken>>> ex_frc_inject_;
  std::unique_ptr<sim::Fifo<ring::MigrateToken>> ex_mig_inject_;

  net::Endpoint<net::PosRecord> pos_ep_;
  net::Endpoint<net::FrcRecord> frc_ep_;
  net::Endpoint<net::MigRecord> mig_ep_;
  net::Fabric<net::PosRecord>* pos_fabric_;
  net::Fabric<net::FrcRecord>* frc_fabric_;
  net::Fabric<net::MigRecord>* mig_fabric_;

  // Converted-but-undelivered tokens (EX serialization): one slot per SPE
  // ring for positions/forces — the EX count scales with the SPEs (§4.6) —
  // and one for migrations.
  std::vector<std::optional<ring::PosToken>> pending_pos_;
  std::vector<std::optional<ring::ForceToken>> pending_frc_;
  std::optional<ring::MigrateToken> pending_mig_;

  sync::ChainedSync chain_;
  sync::BulkBarrier* barrier_;
  std::uint64_t barrier_seq_ = 0;

  State state_ = State::kIdle;
  sim::Cycle last_heartbeat_ = 0;
  bool armed_ = false;
  int target_iterations_ = 0;
  std::uint64_t iterations_completed_ = 0;
  std::vector<sim::Cycle> force_phase_starts_;

  std::vector<std::unique_ptr<Gated>> gates_;
  /// The scheduler-registered handle of the cell array (the Gated wrapper
  /// when the datapath is gated). Phase transitions re-arm its cached wake:
  /// the node ticks before its datapath within the shard, so a cell's first
  /// tick of a new phase lands in the same cycle as the transition — after
  /// the sweep already ran (DESIGN.md §13).
  sim::Component* cells_sched_ = nullptr;

  // Telemetry (null hub = disabled; handles resolved at construction).
  obs::Hub* obs_ = nullptr;
  obs::Handle h_iterations_ = 0;
  obs::Handle h_force_hist_ = 0;
  obs::Handle h_mu_hist_ = 0;
  sim::Cycle phase_start_ = 0;
  bool span_open_ = false;
};

}  // namespace fasda::fpga
