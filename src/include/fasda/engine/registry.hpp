#pragma once
// EngineSpec + Registry: one config struct and one factory keyed by name
// build any back end over a SystemState. The three built-ins register
// themselves; additional back ends register at startup via Registry::add
// and become available to every driver (fasda_md, examples, BatchRunner)
// with no call-site changes.

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fasda/core/simulation.hpp"
#include "fasda/engine/engine.hpp"
#include "fasda/interp/interp_table.hpp"
#include "fasda/obs/obs.hpp"

namespace fasda::engine {

/// Everything needed to build an engine from a SystemState. Geometry comes
/// from the state itself (cell_dims / cell_size); the spec carries the
/// integration, threading and — for the cycle engine — cluster parameters.
struct EngineSpec {
  std::string engine = "functional";  ///< registry key
  double dt = 2.0;                    ///< fs
  md::ForceTerms terms{};
  interp::InterpConfig table{};
  std::size_t threads = 1;  ///< reference/functional worker threads

  // Cycle-engine cluster shape. cells_per_node defaults to the whole space
  // (a single simulated FPGA); node_dims is derived as space / cells.
  std::optional<geom::IVec3> cells_per_node;
  int pes_per_spe = 1;
  int spes = 1;
  int num_worker_threads = 1;  ///< cycle-scheduler threads (DESIGN.md §8)
  net::ChannelConfig channel{};
  /// Lossy-fabric model (DESIGN.md §10). Attaching a plan arms the
  /// ack/retransmit protocol; stepping throws sync::DegradedLinkError if a
  /// link exhausts its retries, sync::NodeFailureError if a node dies.
  std::optional<net::FaultPlan> faults;
  net::ReliabilityConfig reliability{};
  /// Cycle-engine watchdog budget (DESIGN.md §11); 0 = keep the
  /// ClusterConfig default.
  sim::Cycle watchdog_budget = 0;
  /// Force the cycle engine's naive every-cycle tick instead of idle-cycle
  /// elision (DESIGN.md §13). Results are bitwise identical either way;
  /// this exists for differential testing and as an escape hatch.
  bool naive_tick = false;
  /// Telemetry hub (null = disabled; DESIGN.md §12). The cycle engine
  /// plumbs it through the whole cluster; every back end emits engine-level
  /// step events. Must outlive every engine built from this spec. Replicas
  /// running concurrently (BatchRunner) must not share one hub — the runner
  /// detaches it.
  obs::Hub* obs = nullptr;
};

class Registry {
 public:
  using Factory = std::function<std::unique_ptr<Engine>(
      const md::SystemState&, const md::ForceField&, const EngineSpec&)>;

  /// The process-wide registry, with the three built-ins pre-registered.
  static Registry& instance();

  /// Registers (or replaces) a back end under `name`.
  void add(std::string name, Factory factory);

  bool contains(std::string_view name) const;
  std::vector<std::string> names() const;  ///< sorted

  /// Builds the engine named by spec.engine; throws std::invalid_argument
  /// for an unknown name (the message lists the registered ones).
  std::unique_ptr<Engine> create(const md::SystemState& state,
                                 const md::ForceField& ff,
                                 const EngineSpec& spec) const;

 private:
  std::vector<std::pair<std::string, Factory>> factories_;
};

/// Builds the ClusterConfig the "cycle" factory uses for `spec` over
/// `state`'s geometry; exposed so drivers can report the derived cluster
/// shape (FPGAs, PEs) without re-deriving it. Throws std::invalid_argument
/// when the space does not tile by cells_per_node.
core::ClusterConfig cluster_config_for(const EngineSpec& spec,
                                       const md::SystemState& state);

/// The "cycle" adapter, exposed for drivers that report the detailed
/// utilization/traffic counters beyond StepMetrics (cluster_scaling).
class CycleEngine final : public Engine {
 public:
  CycleEngine(const md::SystemState& state, md::ForceField ff,
              const core::ClusterConfig& config);

  md::SystemState state() const override { return sim_.state(); }
  std::vector<geom::Vec3d> forces_by_particle() const override;
  double potential_energy() override { return sim_.potential_energy(); }

  const core::Simulation& simulation() const { return sim_; }

 protected:
  void do_step(int n) override { sim_.run(n); }
  void update_metrics(StepMetrics& m) override;

 private:
  core::Simulation sim_;
  std::uint64_t prev_pairs_issued_ = 0;
};

}  // namespace fasda::engine
