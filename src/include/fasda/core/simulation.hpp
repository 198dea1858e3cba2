#pragma once
// Public entry point: builds a FASDA cluster (Fig. 1's full stack) over a
// SystemState and executes range-limited MD timesteps at cycle level.
//
//   fasda::core::ClusterConfig cfg;
//   cfg.node_dims = {2, 2, 2};         // 8 FPGAs
//   cfg.cells_per_node = {2, 2, 2};    // 4x4x4 simulation space
//   cfg.pes_per_spe = 3; cfg.spes = 2; // the paper's strongest variant "C"
//   fasda::core::Simulation sim(state, ForceField::sodium(), cfg);
//   sim.run(10);
//   double rate = sim.microseconds_per_day();
//
// The simulation carries real particle data through the modelled hardware:
// forces computed by the PE pipelines land in the FCs, motion updates move
// the particles, and the exported state is genuine MD — cross-validated
// against md::FunctionalEngine (identical numerics) and md::ReferenceEngine
// (double precision) by the integration tests.

#include <memory>
#include <vector>

#include "fasda/fpga/node.hpp"
#include "fasda/md/system_state.hpp"

namespace fasda::core {

struct ClusterConfig {
  geom::IVec3 node_dims{1, 1, 1};      ///< FPGAs per dimension
  geom::IVec3 cells_per_node{3, 3, 3}; ///< cells owned by each FPGA
  int pes_per_spe = 1;
  int spes = 1;
  int filters_per_pipeline = 6;
  int pipeline_latency = 40;
  int pe_pair_buffer_depth = 16;
  int pe_input_queue_depth = 16;
  interp::InterpConfig table{};
  md::ForceTerms terms{};  ///< RL components (default LJ only, §5.1)
  double cutoff = 8.5;     ///< Å; also the cell edge
  double dt = 2.0;      ///< fs
  double clock_hz = 200e6;
  net::ChannelConfig channel{};
  sync::SyncMode sync_mode = sync::SyncMode::kChained;
  sim::Cycle bulk_barrier_latency = 2000;  ///< central-FPGA coordinator cost
  /// Straggler injection: (node id, slowdown factor) pairs.
  std::vector<std::pair<idmap::NodeId, int>> stragglers;
  /// Attaching a FaultPlan (even all-zero rates) makes the fabrics lossy
  /// per the plan and arms the ack/retransmit protocol on every endpoint.
  /// run() throws sync::DegradedLinkError if a link exhausts its retries
  /// and sync::NodeFailureError when a node stops ticking (plan node faults
  /// or watchdog). Node/link ids are validated against the cluster shape.
  std::optional<net::FaultPlan> faults;
  net::ReliabilityConfig reliability{};
  /// Watchdog over the chained-sync EX path: run() throws
  /// sync::NodeFailureError once a node that is not done has gone this many
  /// cycles without ticking (0 disables). A healthy node ticks every cycle
  /// — its control tick is never straggler-gated — so fault-free runs can
  /// never trip the watchdog at any budget >= 1; the default only needs to
  /// beat max_cycles_per_iteration to fail fast instead of spinning.
  sim::Cycle watchdog_budget = 50'000;
  sim::Cycle max_cycles_per_iteration = 4'000'000;
  /// Cycle-scheduler worker threads. 0 = auto (hardware concurrency),
  /// 1 = the exact old serial behaviour, N > 1 = node-sharded parallel
  /// execution on min(N, num_nodes) workers. Parallel runs are bitwise
  /// identical to serial ones (see "Threading model" in DESIGN.md).
  int num_worker_threads = 0;
  /// Telemetry hub (null = disabled). When set, every layer publishes into
  /// it: nodes emit FSM phase spans and sync instants into their own shard,
  /// the fabrics emit traffic counters and fault/retransmit events, and
  /// run() folds the utilization/traffic reports into registry gauges. All
  /// stamps are simulated cycles, so output is identical across worker
  /// counts. The hub must outlive the Simulation.
  obs::Hub* obs = nullptr;
  /// Scheduler ticking strategy (DESIGN.md §13). kElide (the default) skips
  /// cycles and components the wake-time oracle proves inert — bitwise
  /// identical to kNaive by contract, just faster. kValidate runs the naive
  /// tick while auditing the oracle. The FASDA_NAIVE_TICK environment
  /// variable (set and not "0") forces kNaive regardless of this field.
  sim::TickMode tick_mode = sim::TickMode::kElide;
};

/// Fig. 17's per-component breakdown, aggregated over the cluster.
struct UtilizationReport {
  double pr_hardware = 0, pr_time = 0;
  double fr_hardware = 0, fr_time = 0;
  double filter_hardware = 0, filter_time = 0;
  double pe_hardware = 0, pe_time = 0;
  double mu_hardware = 0, mu_time = 0;
};

/// Fig. 18's per-channel communication summary.
struct TrafficReport {
  net::TrafficMatrix positions;
  net::TrafficMatrix forces;
  net::TrafficMatrix migrations;
  /// Average per-node egress bandwidth in Gbps over the elapsed cycles.
  double position_gbps_per_node = 0;
  double force_gbps_per_node = 0;
  /// Reliability record per directed link, merged over the three channels:
  /// faults the fabrics injected plus what the endpoint protocol did about
  /// them. Empty maps/zero counters when no FaultPlan is attached.
  std::map<net::Link, net::LinkStats> link_stats;
  net::LinkStats reliability_total;
};

class Simulation {
 public:
  Simulation(const md::SystemState& state, md::ForceField ff,
             const ClusterConfig& config);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Runs `iterations` timesteps to completion (all nodes synchronized out).
  void run(int iterations);

  /// Absolute state reconstructed from the CBB caches.
  md::SystemState state() const;

  /// Float32 forces from the last force-evaluation phase, by particle id.
  std::vector<geom::Vec3f> forces_by_particle() const;

  double potential_energy() const;
  double total_energy() const;

  /// Cycles consumed by run() calls so far.
  sim::Cycle total_cycles() const;
  /// Cycles of the most recent run() call.
  sim::Cycle last_run_cycles() const { return last_run_cycles_; }

  /// Simulated microseconds of MD per wall-clock day at `clock_hz`, from the
  /// most recent run(): the Fig. 16 metric.
  double microseconds_per_day() const;

  UtilizationReport utilization() const;
  TrafficReport traffic() const;

  /// Per-node force-phase start cycles (chained-sync head-start evidence).
  const std::vector<sim::Cycle>& force_phase_starts(idmap::NodeId node) const;

  std::uint64_t pairs_issued() const;
  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  /// Effective scheduler worker count after the auto/clamp policy: 1 means
  /// the serial scheduler is driving the cluster.
  int num_workers() const { return num_workers_; }

  /// Ticking strategy actually in effect (config + FASDA_NAIVE_TICK).
  sim::TickMode tick_mode() const { return scheduler_->tick_mode(); }
  /// Elision/validation counters accumulated by the scheduler.
  const sim::ElisionStats& elision_stats() const {
    return scheduler_->elision_stats();
  }

  const idmap::ClusterMap& map() const { return map_; }

  /// The attached telemetry hub (null when telemetry is disabled).
  obs::Hub* obs() const { return config_.obs; }

  /// Folds the utilization/traffic/health reports into the metrics
  /// registry: `util.*` and `net.*.gbps_per_node` gauges, `net.rel.*`
  /// reliability counters (cluster totals plus per-link breakdowns at the
  /// source node), `sim.cycles`/`sim.us_per_day`, and per-node
  /// `node.heartbeat`/`node.alive` health gauges. run() calls this on every
  /// exit path (including before rethrowing a failure); it is idempotent —
  /// gauges overwrite and counters are set, not accumulated. No-op with no
  /// hub attached.
  void publish_metrics();

 private:
  md::ForceField ff_;
  ClusterConfig config_;
  idmap::ClusterMap map_;
  /// Pair-force and motion-update kernels shared by every PE and CBB; the
  /// MU runs on a cell edge of `cutoff`, as does state() export.
  md::Datapath datapath_;
  std::unique_ptr<net::Fabric<net::PosRecord>> pos_fabric_;
  std::unique_ptr<net::Fabric<net::FrcRecord>> frc_fabric_;
  std::unique_ptr<net::Fabric<net::MigRecord>> mig_fabric_;
  std::unique_ptr<sync::BulkBarrier> barrier_;
  std::vector<std::unique_ptr<fpga::FpgaNode>> nodes_;
  std::unique_ptr<sim::Scheduler> scheduler_;
  int num_workers_ = 1;
  sim::Cycle last_run_cycles_ = 0;
  int last_run_iterations_ = 0;
  std::size_t num_particles_ = 0;
};

}  // namespace fasda::core
