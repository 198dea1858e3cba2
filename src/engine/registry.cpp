#include "fasda/engine/registry.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "fasda/md/functional_engine.hpp"
#include "fasda/md/reference_engine.hpp"

namespace fasda::engine {

namespace {

/// md::ReferenceEngine behind the uniform interface: float64 ground truth.
class ReferenceAdapter final : public Engine {
 public:
  ReferenceAdapter(const md::SystemState& state, const md::ForceField& ff,
                   const EngineSpec& spec)
      : Engine("reference", ff),
        engine_(state, ff, state.cell_size, spec.dt, spec.threads, spec.terms) {}

  md::SystemState state() const override { return engine_.state(); }

  std::vector<geom::Vec3d> forces_by_particle() const override {
    return engine_.forces();
  }

  double potential_energy() override { return engine_.potential_energy(); }

 protected:
  void do_step(int n) override { engine_.step(n); }
  void update_metrics(StepMetrics& m) override {
    m.last_pair_count = engine_.last_pair_count();
  }

 private:
  md::ReferenceEngine engine_;
};

/// md::FunctionalEngine behind the uniform interface: exact FASDA numerics.
class FunctionalAdapter final : public Engine {
 public:
  FunctionalAdapter(const md::SystemState& state, const md::ForceField& ff,
                    const EngineSpec& spec)
      : Engine("functional", ff),
        engine_(state, ff, functional_config(state, spec)) {}

  md::SystemState state() const override { return engine_.state(); }

  std::vector<geom::Vec3d> forces_by_particle() const override {
    std::vector<geom::Vec3d> out;
    for (const geom::Vec3f& f : engine_.forces_by_particle()) {
      out.push_back(f.cast<double>());  // float -> double is exact
    }
    return out;
  }

  double potential_energy() override { return engine_.potential_energy(); }

 protected:
  void do_step(int n) override { engine_.step(n); }
  void update_metrics(StepMetrics& m) override {
    m.last_pair_count = engine_.last_pair_count();
  }

 private:
  static md::FunctionalConfig functional_config(const md::SystemState& state,
                                                const EngineSpec& spec) {
    md::FunctionalConfig c;
    c.cutoff = state.cell_size;
    c.dt = spec.dt;
    c.table = spec.table;
    c.terms = spec.terms;
    c.threads = spec.threads;
    return c;
  }

  md::FunctionalEngine engine_;
};

}  // namespace

core::ClusterConfig cluster_config_for(const EngineSpec& spec,
                                       const md::SystemState& state) {
  core::ClusterConfig c;
  c.cells_per_node = spec.cells_per_node.value_or(state.cell_dims);
  if (c.cells_per_node.x < 1 || c.cells_per_node.y < 1 ||
      c.cells_per_node.z < 1 || state.cell_dims.x % c.cells_per_node.x ||
      state.cell_dims.y % c.cells_per_node.y ||
      state.cell_dims.z % c.cells_per_node.z) {
    throw std::invalid_argument(
        "EngineSpec: the cell space must tile by cells_per_node");
  }
  c.node_dims = {state.cell_dims.x / c.cells_per_node.x,
                 state.cell_dims.y / c.cells_per_node.y,
                 state.cell_dims.z / c.cells_per_node.z};
  c.pes_per_spe = spec.pes_per_spe;
  c.spes = spec.spes;
  c.table = spec.table;
  c.terms = spec.terms;
  c.cutoff = state.cell_size;
  c.dt = spec.dt;
  c.channel = spec.channel;
  c.num_worker_threads = spec.num_worker_threads;
  c.faults = spec.faults;
  c.reliability = spec.reliability;
  if (spec.watchdog_budget > 0) c.watchdog_budget = spec.watchdog_budget;
  if (spec.naive_tick) c.tick_mode = sim::TickMode::kNaive;
  c.obs = spec.obs;
  return c;
}

CycleEngine::CycleEngine(const md::SystemState& state, md::ForceField ff,
                         const core::ClusterConfig& config)
    : Engine("cycle", ff), sim_(state, std::move(ff), config) {}

std::vector<geom::Vec3d> CycleEngine::forces_by_particle() const {
  std::vector<geom::Vec3d> out;
  for (const geom::Vec3f& f : sim_.forces_by_particle()) {
    out.push_back(f.cast<double>());
  }
  return out;
}

void CycleEngine::update_metrics(StepMetrics& m) {
  m.has_cycle_counters = true;
  m.total_cycles = sim_.total_cycles();
  m.microseconds_per_day = sim_.microseconds_per_day();
  const auto u = sim_.utilization();
  m.pe_hardware_utilization = u.pe_hardware;
  m.pe_time_utilization = u.pe_time;
  const auto t = sim_.traffic();
  m.position_packets = t.positions.total_packets;
  m.force_packets = t.forces.total_packets;
  const std::uint64_t pairs = sim_.pairs_issued();
  m.last_pair_count = static_cast<std::size_t>(pairs - prev_pairs_issued_);
  prev_pairs_issued_ = pairs;
  if (obs::Hub* hub = sim_.obs()) {
    // One engine-track instant per successful step() block, stamped with
    // the simulated cycle the block ended on.
    hub->trace().instant(obs::kClusterShard, obs::kClusterPid,
                         obs::Comp::kEngine, "step", m.total_cycles, "steps",
                         static_cast<std::int64_t>(m.steps_completed));
  }
}

Registry& Registry::instance() {
  static Registry registry = [] {
    Registry r;
    r.add("reference", [](const md::SystemState& s, const md::ForceField& ff,
                          const EngineSpec& spec) -> std::unique_ptr<Engine> {
      return std::make_unique<ReferenceAdapter>(s, ff, spec);
    });
    r.add("functional", [](const md::SystemState& s, const md::ForceField& ff,
                           const EngineSpec& spec) -> std::unique_ptr<Engine> {
      return std::make_unique<FunctionalAdapter>(s, ff, spec);
    });
    r.add("cycle", [](const md::SystemState& s, const md::ForceField& ff,
                      const EngineSpec& spec) -> std::unique_ptr<Engine> {
      return std::make_unique<CycleEngine>(s, ff, cluster_config_for(spec, s));
    });
    return r;
  }();
  return registry;
}

void Registry::add(std::string name, Factory factory) {
  for (auto& [existing, f] : factories_) {
    if (existing == name) {
      f = std::move(factory);
      return;
    }
  }
  factories_.emplace_back(std::move(name), std::move(factory));
}

bool Registry::contains(std::string_view name) const {
  return std::any_of(factories_.begin(), factories_.end(),
                     [&](const auto& e) { return e.first == name; });
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> out;
  for (const auto& [name, f] : factories_) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

std::unique_ptr<Engine> Registry::create(const md::SystemState& state,
                                         const md::ForceField& ff,
                                         const EngineSpec& spec) const {
  for (const auto& [name, factory] : factories_) {
    if (name == spec.engine) return factory(state, ff, spec);
  }
  std::ostringstream msg;
  msg << "unknown engine '" << spec.engine << "' (registered:";
  for (const auto& name : names()) msg << ' ' << name;
  msg << ')';
  throw std::invalid_argument(msg.str());
}

}  // namespace fasda::engine
