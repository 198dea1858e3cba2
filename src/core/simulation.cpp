#include "fasda/core/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>

#include "fasda/md/energy.hpp"
#include "fasda/obs/obs.hpp"
#include "fasda/sim/parallel_scheduler.hpp"

namespace fasda::core {

namespace {

/// A degraded link whose peer node has been heartbeat-silent longer than
/// this is attributed to the dead node, not the wire.
constexpr sim::Cycle kNodeSilenceSlack = 64;

/// Effective worker count: 0 = auto (hardware concurrency), clamped to the
/// shard count — extra workers past one-per-node can only add dispatch
/// overhead, never speed.
int effective_workers(int requested, int num_nodes) {
  int workers = requested;
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
    if (workers <= 0) workers = 1;
  }
  return std::max(1, std::min(workers, num_nodes));
}

}  // namespace

Simulation::Simulation(const md::SystemState& state, md::ForceField ff,
                       const ClusterConfig& config)
    : ff_(std::move(ff)),
      config_(config),
      map_(config.node_dims, config.cells_per_node),
      datapath_(ff_, config.cutoff, config.table, config.terms, config.dt,
                config.cutoff),
      num_particles_(state.size()) {
  if (state.cell_dims != map_.global_dims()) {
    throw std::invalid_argument(
        "Simulation: state.cell_dims must equal node_dims * cells_per_node");
  }
  if (std::abs(state.cell_size - config.cutoff) > 1e-9) {
    throw std::invalid_argument(
        "Simulation: cell_size must equal the cutoff (R_c normalized to one "
        "cell edge, §3.4)");
  }
  md::check_elements(state, ff_);

  if (config_.faults) config_.faults->validate(map_.num_nodes());

  // Telemetry first: the shards must cover every node before any component
  // resolves handles or emits into its own shard.
  if (config_.obs) config_.obs->attach_cluster(map_.num_nodes());

  num_workers_ = effective_workers(config.num_worker_threads, map_.num_nodes());
  if (num_workers_ > 1) {
    // Parallel determinism needs every cross-shard element to expose only
    // >= 1-cycle-delayed state (see DESIGN.md "Threading model"). The
    // fabrics enforce link_latency >= 1 themselves; the bulk barrier is
    // checked here.
    if (config.sync_mode == sync::SyncMode::kBulk &&
        config.bulk_barrier_latency < 1) {
      throw std::invalid_argument(
          "Simulation: bulk_barrier_latency must be >= 1 with parallel "
          "workers");
    }
    scheduler_ = std::make_unique<sim::ParallelScheduler>(
        static_cast<std::size_t>(num_workers_));
  } else {
    scheduler_ = std::make_unique<sim::Scheduler>();
  }
  scheduler_->set_tick_mode(sim::resolve_tick_mode(config.tick_mode));

  pos_fabric_ = std::make_unique<net::Fabric<net::PosRecord>>(config.channel);
  frc_fabric_ = std::make_unique<net::Fabric<net::FrcRecord>>(config.channel);
  mig_fabric_ = std::make_unique<net::Fabric<net::MigRecord>>(config.channel);
  if (config.faults) {
    pos_fabric_->set_fault_plan(*config.faults, net::kPosChannelSalt);
    frc_fabric_->set_fault_plan(*config.faults, net::kFrcChannelSalt);
    mig_fabric_->set_fault_plan(*config.faults, net::kMigChannelSalt);
  }
  if (config.sync_mode == sync::SyncMode::kBulk) {
    barrier_ = std::make_unique<sync::BulkBarrier>(map_.num_nodes(),
                                                   config.bulk_barrier_latency);
    // Elision poke: the completing arrival schedules the release while the
    // waiting nodes' shards may already be asleep with no wake of their
    // own. wake_all_shards is the thread-safe poke (the arrival happens
    // inside a worker's shard tick).
    barrier_->set_wake_hook([sched = scheduler_.get()](sim::Cycle at) {
      sched->wake_all_shards(at);
    });
  }

  fpga::NodeConfig node_config;
  node_config.cbb.pes_per_spe = config.pes_per_spe;
  node_config.cbb.spes = config.spes;
  node_config.cbb.pe.num_filters = config.filters_per_pipeline;
  node_config.cbb.pe.pipeline_latency = config.pipeline_latency;
  node_config.cbb.pe.pair_buffer_depth =
      static_cast<std::size_t>(config.pe_pair_buffer_depth);
  node_config.cbb.pe.input_queue_depth =
      static_cast<std::size_t>(config.pe_input_queue_depth);
  node_config.sync_mode = config.sync_mode;
  node_config.reliable = config.faults.has_value();
  node_config.reliability = config.reliability;
  node_config.obs = config_.obs;

  for (idmap::NodeId id = 0; id < map_.num_nodes(); ++id) {
    fpga::NodeConfig per_node = node_config;
    for (const auto& [straggler, factor] : config.stragglers) {
      if (straggler == id) per_node.slowdown = factor;
    }
    if (config_.faults) {
      per_node.node_faults = config_.faults->faults_for_node(id);
    }
    nodes_.push_back(std::make_unique<fpga::FpgaNode>(
        id, per_node, datapath_, map_, pos_fabric_.get(), frc_fabric_.get(),
        mig_fabric_.get(), barrier_.get()));
    nodes_.back()->register_with(*scheduler_);
  }

  // The fabrics carry all cross-shard traffic; their staged sends commit
  // single-threaded outside the sharded fan-out.
  scheduler_->add_clocked(pos_fabric_.get(), sim::kGlobalShard);
  scheduler_->add_clocked(frc_fabric_.get(), sim::kGlobalShard);
  scheduler_->add_clocked(mig_fabric_.get(), sim::kGlobalShard);

  // Fabric telemetry needs every endpoint attached (one egress counter per
  // destination), so it arms after the node loop above.
  if (config_.obs) {
    pos_fabric_->set_obs(config_.obs, obs::Comp::kNetPos, "pos");
    frc_fabric_->set_obs(config_.obs, obs::Comp::kNetFrc, "frc");
    mig_fabric_->set_obs(config_.obs, obs::Comp::kNetMig, "mig");
  }
  scheduler_->set_obs(config_.obs);

  // Load particles into the owning CBBs' caches.
  const geom::CellGrid grid = state.grid();
  for (std::size_t i = 0; i < state.size(); ++i) {
    const md::CellPosition cp = md::encode(grid, state.positions[i]);
    const geom::IVec3 node = map_.node_of_cell(cp.cell);
    const geom::IVec3 lcell = map_.local_cell(cp.cell);
    pe::CellParticle particle;
    particle.pos = cp.pos;
    particle.vel = state.velocities[i].cast<float>();
    particle.elem = state.elements[i];
    particle.id = static_cast<std::uint32_t>(i);
    const fpga::FpgaNode& owner = *nodes_[map_.node_id(node)];
    owner.cells().particles(owner.cell_index(lcell)).push_back(particle);
  }
}

void Simulation::run(int iterations) {
  if (iterations <= 0) return;
  const sim::Cycle start = scheduler_->cycle();
  for (const auto& node : nodes_) node->start(iterations);
  const sim::Cycle budget =
      start + config_.max_cycles_per_iteration *
                  static_cast<sim::Cycle>(iterations);
  const sim::Cycle watchdog_budget = config_.watchdog_budget;
  // Elision windows must not sail past the cycle where the watchdog would
  // fire: a crashed node's heartbeat freezes while every surviving
  // component sleeps, so the deadline is external to the component oracle.
  // Live nodes' heartbeats advance through skips, pushing the bound ahead.
  sim::Scheduler::ExternalWake watchdog_bound;
  if (watchdog_budget > 0) {
    watchdog_bound = [this, watchdog_budget](sim::Cycle) {
      sim::Cycle bound = sim::kNeverCycle;
      for (const auto& node : nodes_) {
        if (node->done()) continue;
        bound = std::min(bound, node->last_heartbeat() + watchdog_budget + 1);
      }
      return bound;
    };
  }
  // Evaluated on the caller's thread between cycles (workers idle), so
  // reading node state here is race-free and throwing is safe.
  const auto done = [&] {
    const sim::Cycle now = scheduler_->cycle();
    if (config_.faults) {
      for (const auto& node : nodes_) {
        if (auto deg = node->degraded_link()) {
          const auto& peer =
              nodes_.at(static_cast<std::size_t>(deg->first.dst));
          const sim::Cycle silent = now - peer->last_heartbeat();
          if (!peer->done() && silent > kNodeSilenceSlack) {
            throw sync::NodeFailureError(peer->id(), peer->phase_name(),
                                         silent, now);
          }
          throw sync::DegradedLinkError(deg->first, deg->second);
        }
      }
    }
    if (watchdog_budget > 0) {
      for (const auto& node : nodes_) {
        if (node->done()) continue;
        const sim::Cycle silent = now - node->last_heartbeat();
        if (silent > watchdog_budget) {
          throw sync::NodeFailureError(node->id(), node->phase_name(), silent,
                                       now);
        }
      }
    }
    for (const auto& node : nodes_) {
      if (!node->done()) return false;
    }
    return true;
  };
  try {
    scheduler_->run_until(done, budget, watchdog_bound);
  } catch (const sync::NodeFailureError& e) {
    // Mark the detection on the health track before the failure unwinds, so
    // a supervised trace shows exactly where each attempt died. The stamp is
    // the watchdog's own detection cycle — deterministic, so the event is
    // identical for any worker count.
    if (config_.obs) {
      config_.obs->trace().instant(
          obs::kClusterShard, e.node(), obs::Comp::kHealth, "node-failure",
          e.detected_at(), "cycles_stalled",
          static_cast<std::int64_t>(e.cycles_stalled()));
    }
    publish_metrics();
    throw;
  } catch (const sync::DegradedLinkError& e) {
    if (config_.obs) {
      config_.obs->trace().instant(
          obs::kClusterShard, e.link().src, obs::Comp::kHealth,
          "degraded-link", e.link().detected_at, "dst",
          static_cast<std::int64_t>(e.link().dst));
    }
    publish_metrics();
    throw;
  }
  last_run_cycles_ = scheduler_->cycle() - start;
  last_run_iterations_ = iterations;
  publish_metrics();
}

void Simulation::publish_metrics() {
  if (!config_.obs) return;
  obs::Registry& m = config_.obs->metrics();
  const sim::Cycle now = scheduler_->cycle();

  m.set(obs::kClusterNode, m.gauge("sim.cycles"), static_cast<double>(now));
  m.set(obs::kClusterNode, m.gauge("sim.us_per_day"), microseconds_per_day());

  // Oracle audit counters, published in validate mode only: the elide and
  // naive modes must keep the registry bitwise identical to each other, so
  // neither writes any elision series.
  if (scheduler_->tick_mode() == sim::TickMode::kValidate) {
    const sim::ElisionStats& e = scheduler_->elision_stats();
    m.set_counter(obs::kClusterNode, m.counter("sim.elision.executed_cycles"),
                  e.executed_cycles);
    m.set_counter(obs::kClusterNode, m.counter("sim.elision.idle_wakes"),
                  e.idle_wakes);
    m.set_counter(obs::kClusterNode, m.counter("sim.elision.mispredicts"),
                  e.mispredicts);
  }

  const UtilizationReport u = utilization();
  m.set(obs::kClusterNode, m.gauge("util.pr.hardware"), u.pr_hardware);
  m.set(obs::kClusterNode, m.gauge("util.pr.time"), u.pr_time);
  m.set(obs::kClusterNode, m.gauge("util.fr.hardware"), u.fr_hardware);
  m.set(obs::kClusterNode, m.gauge("util.fr.time"), u.fr_time);
  m.set(obs::kClusterNode, m.gauge("util.filter.hardware"), u.filter_hardware);
  m.set(obs::kClusterNode, m.gauge("util.filter.time"), u.filter_time);
  m.set(obs::kClusterNode, m.gauge("util.pe.hardware"), u.pe_hardware);
  m.set(obs::kClusterNode, m.gauge("util.pe.time"), u.pe_time);
  m.set(obs::kClusterNode, m.gauge("util.mu.hardware"), u.mu_hardware);
  m.set(obs::kClusterNode, m.gauge("util.mu.time"), u.mu_time);

  const TrafficReport t = traffic();
  m.set(obs::kClusterNode, m.gauge("net.pos.gbps_per_node"),
        t.position_gbps_per_node);
  m.set(obs::kClusterNode, m.gauge("net.frc.gbps_per_node"),
        t.force_gbps_per_node);

  // Reliability record: cluster totals, then a per-link breakdown at the
  // source node — but only for links that actually saw trouble, so a clean
  // run does not bloat the registry with n^2 zero series.
  const net::LinkStats& r = t.reliability_total;
  m.set_counter(obs::kClusterNode, m.counter("net.rel.retransmits"),
                r.retransmits);
  m.set_counter(obs::kClusterNode, m.counter("net.rel.timeouts"), r.timeouts);
  m.set_counter(obs::kClusterNode, m.counter("net.rel.acks"), r.acks_sent);
  m.set_counter(obs::kClusterNode, m.counter("net.rel.nacks"), r.nacks_sent);
  m.set(obs::kClusterNode, m.gauge("net.rel.max_retry_depth"),
        static_cast<double>(r.max_retry_depth));
  for (const auto& [link, s] : t.link_stats) {
    if (!s.faults_seen() && !s.retransmits) continue;
    const std::string base = "net.rel.to." + std::to_string(link.second) + ".";
    const int src = link.first;
    m.set_counter(src, m.counter(base + "drops"), s.injected_drops);
    m.set_counter(src, m.counter(base + "dups"), s.injected_dups);
    m.set_counter(src, m.counter(base + "reorders"), s.injected_reorders);
    m.set_counter(src, m.counter(base + "corrupts"), s.injected_corrupts);
    m.set_counter(src, m.counter(base + "retransmits"), s.retransmits);
    m.set_counter(src, m.counter(base + "crc_failures"), s.crc_failures);
    m.set_counter(src, m.counter(base + "dups_discarded"),
                  s.duplicates_discarded);
    m.set_counter(src, m.counter(base + "recovery_cycles"),
                  static_cast<std::uint64_t>(s.recovery_cycles));
  }

  // Per-node health and a per-node PE time-utilization surface (the
  // cluster-wide figure above averages over all nodes; stragglers show up
  // here).
  const obs::Handle h_hb = m.gauge("node.heartbeat");
  const obs::Handle h_alive = m.gauge("node.alive");
  const obs::Handle h_pe_time = m.gauge("node.pe.time_util");
  for (const auto& node : nodes_) {
    const int id = static_cast<int>(node->id());
    m.set(id, h_hb, static_cast<double>(node->last_heartbeat()));
    m.set(id, h_alive, node->alive(now) ? 1.0 : 0.0);
    const std::uint64_t pe_instances =
        static_cast<std::uint64_t>(node->num_cbbs()) *
        static_cast<std::uint64_t>(config_.spes) *
        static_cast<std::uint64_t>(config_.pes_per_spe);
    m.set(id, h_pe_time, node->pe_util().time_utilization(now, pe_instances));
  }
}

md::SystemState Simulation::state() const {
  md::SystemState out;
  out.cell_dims = map_.global_dims();
  out.cell_size = config_.cutoff;
  out.positions.resize(num_particles_);
  out.velocities.resize(num_particles_);
  out.elements.resize(num_particles_);
  for (const auto& node : nodes_) {
    for (int c = 0; c < node->num_cbbs(); ++c) {
      for (const pe::CellParticle& p : node->cells().particles(c)) {
        out.positions[p.id] =
            md::decode(node->cells().global_cell(c), p.pos, config_.cutoff);
        out.velocities[p.id] = p.vel.cast<double>();
        out.elements[p.id] = p.elem;
      }
    }
  }
  return out;
}

std::vector<geom::Vec3f> Simulation::forces_by_particle() const {
  std::vector<geom::Vec3f> out(num_particles_);
  for (const auto& node : nodes_) {
    for (int c = 0; c < node->num_cbbs(); ++c) {
      const auto& particles = node->cells().particles(c);
      const std::vector<geom::Vec3f> forces = node->cells().forces(c);
      for (std::size_t s = 0; s < forces.size() && s < particles.size(); ++s) {
        out[particles[s].id] = forces[s];
      }
    }
  }
  return out;
}

double Simulation::potential_energy() const {
  return md::compute_potential_energy(state(), ff_, config_.cutoff,
                                      config_.terms);
}

double Simulation::total_energy() const {
  const md::SystemState s = state();
  return md::compute_potential_energy(s, ff_, config_.cutoff, config_.terms) +
         md::kinetic_energy(s, ff_);
}

sim::Cycle Simulation::total_cycles() const { return scheduler_->cycle(); }

double Simulation::microseconds_per_day() const {
  if (last_run_cycles_ == 0 || last_run_iterations_ == 0) return 0.0;
  const double cycles_per_step = static_cast<double>(last_run_cycles_) /
                                 static_cast<double>(last_run_iterations_);
  const double seconds_per_step = cycles_per_step / config_.clock_hz;
  const double steps_per_day = 86400.0 / seconds_per_step;
  return steps_per_day * config_.dt * 1e-9;  // fs -> µs
}

UtilizationReport Simulation::utilization() const {
  sim::UtilCounter pr, fr, filter, pe, mu;
  for (const auto& node : nodes_) {
    pr.merge(node->pos_ring_util());
    fr.merge(node->frc_ring_util());
    filter.merge(node->filter_util());
    pe.merge(node->pe_util());
    mu.merge(node->mu_util());
  }
  UtilizationReport out;
  const auto total = scheduler_->cycle();
  // Time-utilization denominators: one "instance" per component whose
  // active flag was recorded each tick. Rings and PEs record once per tick,
  // so active/capacity-style normalization uses the instance counts below.
  std::uint64_t ring_instances = 0, pe_instances = 0, cbb_instances = 0;
  for (const auto& node : nodes_) {
    ring_instances += static_cast<std::uint64_t>(config_.spes);
    pe_instances += static_cast<std::uint64_t>(node->num_cbbs()) *
                    config_.spes * config_.pes_per_spe;
    cbb_instances += static_cast<std::uint64_t>(node->num_cbbs());
  }
  out.pr_hardware = pr.hardware_utilization();
  out.pr_time = pr.time_utilization(total, ring_instances);
  out.fr_hardware = fr.hardware_utilization();
  out.fr_time = fr.time_utilization(total, ring_instances);
  out.filter_hardware = filter.hardware_utilization();
  out.filter_time = filter.time_utilization(total, pe_instances);
  out.pe_hardware = pe.hardware_utilization();
  out.pe_time = pe.time_utilization(total, pe_instances);
  out.mu_hardware = mu.hardware_utilization();
  out.mu_time = mu.time_utilization(total, cbb_instances);
  return out;
}

TrafficReport Simulation::traffic() const {
  TrafficReport out;
  out.positions = pos_fabric_->traffic();
  out.forces = frc_fabric_->traffic();
  out.migrations = mig_fabric_->traffic();
  const double cycles = static_cast<double>(scheduler_->cycle());
  if (cycles > 0 && !nodes_.empty()) {
    const double bits_per_cycle_to_gbps = config_.clock_hz / 1e9;
    const double n = static_cast<double>(nodes_.size());
    out.position_gbps_per_node =
        static_cast<double>(out.positions.total_packets) * net::kPacketBits /
        cycles * bits_per_cycle_to_gbps / n;
    out.force_gbps_per_node =
        static_cast<double>(out.forces.total_packets) * net::kPacketBits /
        cycles * bits_per_cycle_to_gbps / n;
  }
  // Fold the reliability record into the report: fabric-side injected
  // faults plus endpoint-side protocol counters, merged per directed link
  // across the three channels.
  auto merge_map = [&](const std::map<net::Link, net::LinkStats>& m) {
    for (const auto& [link, stats] : m) out.link_stats[link].merge(stats);
  };
  merge_map(pos_fabric_->fault_stats());
  merge_map(frc_fabric_->fault_stats());
  merge_map(mig_fabric_->fault_stats());
  for (const auto& node : nodes_) {
    merge_map(node->pos_endpoint().link_stats());
    merge_map(node->frc_endpoint().link_stats());
    merge_map(node->mig_endpoint().link_stats());
  }
  for (const auto& [link, stats] : out.link_stats) {
    out.reliability_total.merge(stats);
  }
  return out;
}

const std::vector<sim::Cycle>& Simulation::force_phase_starts(
    idmap::NodeId node) const {
  return nodes_.at(node)->force_phase_starts();
}

std::uint64_t Simulation::pairs_issued() const {
  std::uint64_t n = 0;
  for (const auto& node : nodes_) n += node->pairs_issued();
  return n;
}

}  // namespace fasda::core
