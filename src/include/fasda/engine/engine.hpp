#pragma once
// Library-level engine abstraction over the repo's three MD back ends
// (see the README engine table):
//
//   "reference"   md::ReferenceEngine  — float64 ground truth
//   "functional"  md::FunctionalEngine — exact FASDA hardware numerics
//   "cycle"       core::Simulation     — the cycle-level cluster machine
//
// Every engine advances the same physics, so a single interface covers
// stepping, state export, forces, energies and last-run metrics. The
// adapters wrap the existing engines without changing their numerics: a
// program written against engine::Engine produces bit-identical
// trajectories to one driving the underlying engine directly. Future back
// ends (GPU model, remote cluster, checkpoint-resume farm) plug in through
// engine::Registry without touching call sites.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fasda/md/force_field.hpp"
#include "fasda/md/system_state.hpp"

namespace fasda::engine {

/// Counters from step() calls so far. The cycle-level fields mirror the
/// AXI-Lite counters the paper's artifact reads back and are populated only
/// when has_cycle_counters is set (the "cycle" engine).
struct StepMetrics {
  long long steps_completed = 0;
  double wall_seconds = 0;          ///< wall time spent inside step()
  std::size_t last_pair_count = 0;  ///< pairs accepted in the last evaluation

  bool has_cycle_counters = false;
  std::uint64_t total_cycles = 0;
  double microseconds_per_day = 0;  ///< the Fig. 16 metric
  double pe_hardware_utilization = 0;
  double pe_time_utilization = 0;
  std::uint64_t position_packets = 0;
  std::uint64_t force_packets = 0;
};

/// Energies of one sampled configuration, measured in double precision from
/// the exported state — the observable the paper compares against OpenMM.
struct Energies {
  double potential = 0;  ///< internal units
  double kinetic = 0;
  double total = 0;
  double temperature = 0;  ///< K
};

/// Rollback point for supervised runs: the absolute step count plus the
/// exported state. Rebuilding an engine with the same spec over `state`
/// resumes the trajectory — bit-identically for the fixed-point back ends,
/// whose Q2.28 cell-offset positions survive the export/import round trip
/// exactly (supervisor::Supervisor's replay-parity guarantee rests on
/// this; see DESIGN.md "Supervision and recovery").
struct Checkpoint {
  long long step = 0;
  md::SystemState state;
};

/// Uniform stepping interface over the back ends. Implementations advance
/// real particle data; step(n) then state() is the whole contract a driver
/// needs, everything else is observation.
class Engine {
 public:
  virtual ~Engine() = default;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Registry key of the back end ("reference", "functional", "cycle", …).
  const std::string& name() const { return name_; }
  const md::ForceField& force_field() const { return ff_; }

  /// Advances n timesteps, accumulating wall time into metrics().
  void step(int n = 1);

  /// Exports the current state as absolute double-precision coordinates.
  virtual md::SystemState state() const = 0;

  /// Snapshot for rollback-and-replay. The default — step count + state()
  /// — is complete for every built-in back end; a back end carrying extra
  /// evolving state (thermostat history, RNG streams) must override.
  virtual Checkpoint checkpoint() const {
    return {metrics().steps_completed, state()};
  }

  /// Forces from the most recent force evaluation (i.e. the last timestep),
  /// indexed by original particle id, widened losslessly to double for the
  /// float32 back ends. Zero before the first step().
  virtual std::vector<geom::Vec3d> forces_by_particle() const = 0;

  /// Potential energy of the current configuration in internal units,
  /// measured with the engine's own cutoff/terms.
  virtual double potential_energy() = 0;
  double total_energy() { return energies().total; }
  double kinetic_energy() const;

  /// Potential + kinetic + temperature of the current configuration.
  /// Evaluated once per configuration: the value is kept until the next
  /// step() (step() is the only thing that changes an engine's state).
  Energies energies();

  const StepMetrics& metrics() const { return metrics_; }

 protected:
  Engine(std::string name, md::ForceField ff)
      : name_(std::move(name)), ff_(std::move(ff)) {}

  virtual void do_step(int n) = 0;
  /// Called after each do_step() so back ends can refresh counters.
  virtual void update_metrics(StepMetrics& m) = 0;

 private:
  std::string name_;
  md::ForceField ff_;
  StepMetrics metrics_;
  std::optional<Energies> energies_;  ///< of the current configuration
};

}  // namespace fasda::engine
