#include "fasda/fpga/node.hpp"

#include <algorithm>
#include <cassert>

namespace fasda::fpga {

namespace {
std::string node_name(NodeId id) { return "node" + std::to_string(id); }
}  // namespace

Gated::Gated(sim::Component* inner, int factor, const FpgaNode* owner)
    : Component(inner->name() + "/gated"),
      inner_(inner),
      factor_(factor),
      owner_(owner) {}

void Gated::tick(sim::Cycle now) {
  if (owner_ && !owner_->alive(now)) return;
  if (factor_ <= 1 || now % static_cast<sim::Cycle>(factor_) == 0) {
    inner_->tick(now);
  }
}

sim::Cycle Gated::next_wake(sim::Cycle now) const {
  // While the owner is down the inner component is frozen; the owner's own
  // next_wake reports the revival boundary, after which a fresh sweep sees
  // the inner wake again.
  if (owner_ && !owner_->alive(now)) return sim::kNeverCycle;
  sim::Cycle w = inner_->next_wake(now);
  if (w == sim::kNeverCycle || factor_ <= 1) return w;
  // First gate-open cycle at or after the inner wake: earlier open cycles
  // would tick an inner that has declared itself inert, and closed cycles
  // never tick it at all.
  const auto f = static_cast<sim::Cycle>(factor_);
  w = std::max(w, now);
  return (w + f - 1) / f * f;
}

void Gated::skip_idle(sim::Cycle from, sim::Cycle to) {
  if (owner_ && !owner_->alive(from)) return;  // frozen: no ticks to replay
  if (factor_ <= 1) {
    inner_->skip_idle(from, to);
    return;
  }
  // Only gate-open cycles in [from, to) would have ticked the inner; inner
  // skip_idle implementations are tick-count based, so forward a window of
  // exactly that many cycles.
  const auto f = static_cast<sim::Cycle>(factor_);
  const sim::Cycle first = (from + f - 1) / f * f;
  if (first >= to) return;
  const sim::Cycle ticks = (to - 1 - first) / f + 1;
  inner_->skip_idle(to - ticks, to);
}

// ------------------------------------------------------------- ring stations

/// Position ring: the cells in ascending CID order ("clockwise", matching
/// Eq. 7's travel-time optimization), then the EX station. Positions depart
/// through the P2R chain at their source CBB (§4.3), so EX only injects
/// arrivals and lets every token pass.
struct FpgaNode::PosStations {
  cbb::CellArray* cells;
  int spe;
  std::size_t ex;  ///< EX station index (= number of cells)

  ring::Action classify(std::size_t i, const ring::PosToken& t) const {
    if (i == ex) return ring::Action::kPass;
    return cells->classify(static_cast<int>(i), t);
  }
  bool try_deliver(std::size_t i, ring::PosToken& t) {
    return cells->deliver(static_cast<int>(i), spe, t);
  }
};

/// Force ring: the cells in descending CID order, then the EX station,
/// which extracts tokens whose destination cell lies on another node (F2R
/// departure gates) and injects remote arrivals.
struct FpgaNode::FrcStations {
  FpgaNode* node;
  int spe;
  std::size_t ex;

  ring::Action classify(std::size_t i, const ring::ForceToken& t) const {
    if (i == ex) {
      return node->is_local(t.dest_lcid) ? ring::Action::kPass
                                         : ring::Action::kDeliverAndDrop;
    }
    return node->cells_->classify(static_cast<int>(ex - 1 - i), t);
  }
  bool try_deliver(std::size_t i, ring::ForceToken& t) {
    if (i != ex) return node->cells_->deliver(static_cast<int>(ex - 1 - i), spe, t);
    const auto [gcell, dst] = node->export_address(t.dest_lcid);
    node->frc_ep_.enqueue(dst, net::FrcRecord{gcell, t.force, t.slot});
    return true;
  }
};

/// Motion-update ring: the cells in ascending CID order, then the EX
/// station for migrations leaving the node.
struct FpgaNode::MigStations {
  FpgaNode* node;
  std::size_t ex;

  ring::Action classify(std::size_t i, const ring::MigrateToken& t) const {
    if (i == ex) {
      return node->is_local(t.dest_lcid) ? ring::Action::kPass
                                         : ring::Action::kDeliverAndDrop;
    }
    return node->cells_->classify(static_cast<int>(i), t);
  }
  bool try_deliver(std::size_t i, ring::MigrateToken& t) {
    if (i != ex) return node->cells_->deliver(static_cast<int>(i), 0, t);
    const auto [gcell, dst] = node->export_address(t.dest_lcid);
    node->mig_ep_.enqueue(
        dst, net::MigRecord{gcell, t.offset, t.vel, t.elem, t.particle_id});
    return true;
  }
};

std::pair<geom::IVec3, NodeId> FpgaNode::export_address(
    const geom::IVec3& lcid) const {
  const geom::IVec3 origin = map_.global_cell(node_coords_, {0, 0, 0});
  const geom::IVec3 gcell = map_.grid().wrap(lcid + origin);
  return {gcell, map_.node_id(map_.node_of_cell(gcell))};
}

// ------------------------------------------------------------ construction

FpgaNode::FpgaNode(NodeId id, const NodeConfig& config,
                   const md::Datapath& datapath, const idmap::ClusterMap& map,
                   net::Fabric<net::PosRecord>* pos_fabric,
                   net::Fabric<net::FrcRecord>* frc_fabric,
                   net::Fabric<net::MigRecord>* mig_fabric,
                   sync::BulkBarrier* barrier)
    : Component(node_name(id)),
      id_(id),
      config_(config),
      map_(map),
      node_coords_(map.node_coords(id)),
      neighbors_(map.neighbor_nodes(id)),
      pos_ep_(id, pos_fabric->config()),
      frc_ep_(id, frc_fabric->config()),
      mig_ep_(id, mig_fabric->config()),
      pos_fabric_(pos_fabric),
      frc_fabric_(frc_fabric),
      mig_fabric_(mig_fabric),
      chain_(static_cast<int>(neighbors_.size())),
      barrier_(barrier),
      obs_(config.obs) {
  pos_fabric_->attach(&pos_ep_);
  frc_fabric_->attach(&frc_ep_);
  mig_fabric_->attach(&mig_ep_);
  if (obs_ != nullptr) {
    auto& m = obs_->metrics();
    h_iterations_ = m.counter("node.iterations");
    h_force_hist_ = m.histogram("phase.force.cycles");
    h_mu_hist_ = m.histogram("phase.mu.cycles");
  }
  if (config_.reliable) {
    pos_ep_.arm_reliability(config_.reliability);
    frc_ep_.arm_reliability(config_.reliability);
    mig_ep_.arm_reliability(config_.reliability);
  }

  const geom::IVec3& cpn = map_.cells_per_node();
  const int spes = config_.cbb.spes;
  const std::size_t fifo_depth = config_.cbb.fifo_depth;

  // Cells in local Eq. 7 CID order.
  std::vector<geom::IVec3> lcells;
  for (int x = 0; x < cpn.x; ++x) {
    for (int y = 0; y < cpn.y; ++y) {
      for (int z = 0; z < cpn.z; ++z) lcells.push_back({x, y, z});
    }
  }
  cells_ = std::make_unique<cbb::CellArray>(node_name(id) + "/cells",
                                            config_.cbb, datapath, map_,
                                            node_coords_, lcells);
  const int num_cells = cells_->num_cells();
  const auto ex = static_cast<std::size_t>(num_cells);
  for (int c = 0; c < num_cells; ++c) {
    auto dests = map_.remote_destinations(cells_->global_cell(c));
    if (dests.empty()) continue;
    cells_->set_remote_position_sink(
        c, [this, dests](const cbb::RemotePosition& rp) {
          for (const NodeId dst : dests) {
            pos_ep_.enqueue(dst, net::PosRecord{rp.src_gcell, rp.offset,
                                                rp.elem, rp.slot});
          }
        });
  }

  // Rings: positions rotate through the cells in ascending CID order, forces
  // in the opposite direction. Each ring gets one EX station (§4.1: one
  // extra cycle).
  for (int s = 0; s < spes; ++s) {
    ex_pos_inject_.push_back(
        std::make_unique<sim::Fifo<ring::PosToken>>(fifo_depth));
    ex_frc_inject_.push_back(
        std::make_unique<sim::Fifo<ring::ForceToken>>(fifo_depth));

    std::vector<sim::Fifo<ring::PosToken>*> pos_sources;
    for (int c = 0; c < num_cells; ++c) {
      pos_sources.push_back(&cells_->injector<ring::PosToken>(c, s));
    }
    pos_sources.push_back(ex_pos_inject_.back().get());
    pos_rings_.push_back(
        std::make_unique<ring::Ring<ring::PosToken, PosStations>>(
            node_name(id) + "/pr" + std::to_string(s),
            PosStations{cells_.get(), s, ex}, std::move(pos_sources)));

    std::vector<sim::Fifo<ring::ForceToken>*> frc_sources;
    for (int c = num_cells - 1; c >= 0; --c) {
      frc_sources.push_back(&cells_->injector<ring::ForceToken>(c, s));
    }
    frc_sources.push_back(ex_frc_inject_.back().get());
    frc_rings_.push_back(
        std::make_unique<ring::Ring<ring::ForceToken, FrcStations>>(
            node_name(id) + "/fr" + std::to_string(s),
            FrcStations{this, s, ex}, std::move(frc_sources)));
  }

  pending_pos_.resize(spes);
  pending_frc_.resize(spes);

  ex_mig_inject_ = std::make_unique<sim::Fifo<ring::MigrateToken>>(fifo_depth);
  std::vector<sim::Fifo<ring::MigrateToken>*> mu_sources;
  for (int c = 0; c < num_cells; ++c) {
    mu_sources.push_back(&cells_->injector<ring::MigrateToken>(c, 0));
  }
  mu_sources.push_back(ex_mig_inject_.get());
  mu_ring_ = std::make_unique<ring::Ring<ring::MigrateToken, MigStations>>(
      node_name(id) + "/mur", MigStations{this, ex}, std::move(mu_sources));
}

FpgaNode::~FpgaNode() = default;

void FpgaNode::register_with(sim::Scheduler& scheduler) {
  const sim::ShardId shard_id = shard();
  scheduler.add(this, shard_id);
  // Elision pokes: a fabric delivery must wake this node's shard if the
  // scheduler put it to sleep (DESIGN.md §13). The scheduler outlives every
  // delivery — hooks only fire from its own commit fan-out.
  sim::Scheduler* sched = &scheduler;
  const auto poke = [sched, shard_id](sim::Cycle at) {
    sched->wake_shard(shard_id, at);
  };
  pos_ep_.set_wake_hook(poke);
  frc_ep_.set_wake_hook(poke);
  mig_ep_.set_wake_hook(poke);
  // With node faults injected, every datapath component goes through a
  // liveness gate so a crashed board's rings and cells freeze with it.
  const FpgaNode* owner = config_.node_faults.empty() ? nullptr : this;
  auto add_datapath = [&](sim::Component* c) -> sim::Component* {
    if (config_.slowdown > 1 || owner) {
      gates_.push_back(std::make_unique<Gated>(c, config_.slowdown, owner));
      scheduler.add(gates_.back().get(), shard_id);
      return gates_.back().get();
    }
    scheduler.add(c, shard_id);
    return c;
  };
  // The cell array must tick before the rings. The rings push arrivals
  // into its single-phase queues; ticked first, the cells see a delivery
  // of cycle t at t + 1, as through a two-phase FIFO.
  cells_sched_ = add_datapath(cells_.get());
  for (sim::Clocked* cl : cells_->clocked()) scheduler.add_clocked(cl, shard_id);
  // Each ring commits its own injection FIFOs (the cells' and the EX's).
  for (auto& r : pos_rings_) {
    add_datapath(r.get());
    scheduler.add_clocked(r.get(), shard_id);
  }
  for (auto& r : frc_rings_) {
    add_datapath(r.get());
    scheduler.add_clocked(r.get(), shard_id);
  }
  add_datapath(mu_ring_.get());
  scheduler.add_clocked(mu_ring_.get(), shard_id);
}

void FpgaNode::start(int iterations) {
  target_iterations_ = iterations;
  iterations_completed_ = 0;
  state_ = iterations > 0 ? State::kIdle : State::kDone;
  armed_ = iterations > 0;
}

// ---------------------------------------------------------------- per cycle

bool FpgaNode::alive(sim::Cycle now) const {
  for (const net::NodeFault& f : config_.node_faults) {
    if (f.node != id_ || now < f.at) continue;
    if (f.kind == net::NodeFaultKind::kStall) {
      if (now < f.at + f.duration) return false;
    } else {
      return false;  // crash/hang: down from f.at until a supervisor rebuild
    }
  }
  return true;
}

const char* FpgaNode::phase_name_of(State state) {
  switch (state) {
    case State::kIdle: return "idle";
    case State::kForce: return "force";
    case State::kForceBarrier: return "force-barrier";
    case State::kMotionUpdate: return "motion-update";
    case State::kMuBarrier: return "mu-barrier";
    case State::kDone: return "done";
  }
  return "unknown";
}

const char* FpgaNode::phase_name() const { return phase_name_of(state_); }

void FpgaNode::set_state(State next, sim::Cycle now) {
  if (obs_ != nullptr && next != state_) {
    if (span_open_) {
      obs_->trace().end(static_cast<int>(id_), static_cast<int>(id_),
                        obs::Comp::kFsm, now);
      span_open_ = false;
      if (state_ == State::kForce) {
        obs_->metrics().observe(static_cast<int>(id_), h_force_hist_,
                                now - phase_start_);
      } else if (state_ == State::kMotionUpdate) {
        obs_->metrics().observe(static_cast<int>(id_), h_mu_hist_,
                                now - phase_start_);
      }
    }
    if (next != State::kIdle && next != State::kDone) {
      obs_->trace().begin(static_cast<int>(id_), static_cast<int>(id_),
                          obs::Comp::kFsm, phase_name_of(next), now);
      span_open_ = true;
      phase_start_ = now;
    }
  }
  state_ = next;
}

void FpgaNode::sync_event(const char* name, sim::Cycle now) {
  if (obs_ == nullptr) return;
  obs_->trace().instant(static_cast<int>(id_), static_cast<int>(id_),
                        obs::Comp::kSync, name, now);
}

void FpgaNode::tick(sim::Cycle now) {
  if (!alive(now)) return;
  last_heartbeat_ = now;
  tick_protocol(now);
  tick_ingress(now);
  tick_fsm(now);
  tick_egress(now);
}

sim::Cycle FpgaNode::next_wake(sim::Cycle now) const {
  sim::Cycle wake = sim::kNeverCycle;
  const auto fold = [&wake](sim::Cycle w) { wake = std::min(wake, w); };

  // Fault boundaries first: aliveness must be constant across any elision
  // window, so every instant alive() can flip is a wake of its own.
  for (const net::NodeFault& f : config_.node_faults) {
    if (f.node != id_) continue;
    if (f.at > now) fold(f.at);
    if (f.kind == net::NodeFaultKind::kStall && f.at + f.duration > now) {
      fold(f.at + f.duration);
    }
  }
  if (!alive(now)) return wake;  // down: nothing moves until revival

  // Protocol and egress run every alive cycle regardless of phase.
  if (config_.reliable) {
    fold(pos_ep_.protocol_wake(now));
    fold(frc_ep_.protocol_wake(now));
    fold(mig_ep_.protocol_wake(now));
  }
  fold(pos_ep_.egress_wake(now));
  fold(frc_ep_.egress_wake(now));
  fold(mig_ep_.egress_wake(now));

  switch (state_) {
    case State::kDone:
      break;
    case State::kIdle:
      if (armed_) return now;
      break;
    case State::kForce: {
      // Ingress is polled for the position/force channels only (migration
      // arrivals wait in their endpoint, exactly as a naive tick leaves
      // them).
      fold(pos_ep_.ingress_wake(now));
      fold(frc_ep_.ingress_wake(now));
      for (const auto& p : pending_pos_) {
        if (p) return now;
      }
      for (const auto& p : pending_frc_) {
        if (p) return now;
      }
      // tick_fsm's guard conjunctions, verbatim, over state committed in
      // earlier cycles. Any guard that holds means the next tick acts.
      if (!chain_.last_position_sent() && all_positions_injected()) return now;
      if (!chain_.last_force_sent() && chain_.last_position_sent() &&
          chain_.all_positions_received() && force_datapath_quiescent()) {
        return now;
      }
      if (chain_.may_enter_motion_update() && frc_side_drained() &&
          force_datapath_quiescent()) {
        return now;
      }
      break;
    }
    case State::kForceBarrier:
    case State::kMuBarrier:
      // While the barrier generation is still filling this node can do
      // nothing; the last arriver's tick is an executed cycle, so the next
      // sweep picks up the release instant.
      if (const auto r = barrier_->release_cycle(barrier_seq_)) {
        fold(std::max(*r, now));
      }
      break;
    case State::kMotionUpdate: {
      fold(mig_ep_.ingress_wake(now));
      if (pending_mig_) return now;
      if (!chain_.last_mu_sent() && local_mu_done()) return now;
      if (chain_.may_finish_motion_update() && mu_side_drained()) return now;
      break;
    }
  }
  return wake;
}

void FpgaNode::skip_idle(sim::Cycle from, sim::Cycle to) {
  // The only bookkeeping an idle alive tick performs is the heartbeat
  // stamp; aliveness is constant across the window (next_wake folds every
  // fault boundary), so the replay collapses to stamping the last cycle.
  if (to > from && alive(from)) last_heartbeat_ = to - 1;
}

void FpgaNode::tick_protocol(sim::Cycle now) {
  // Runs every cycle regardless of the FSM phase: acks must flow even for
  // a channel whose data the current phase is not polling (e.g. migration
  // acks while evaluating forces), or the peer's retransmit timer would
  // declare a healthy link dead. Accepted data still waits in the endpoint
  // until the right phase polls it.
  if (!config_.reliable) return;
  pos_ep_.tick_protocol(now, [&](const net::Packet<net::PosRecord>& p) {
    pos_fabric_->send(p, now);
  });
  frc_ep_.tick_protocol(now, [&](const net::Packet<net::FrcRecord>& p) {
    frc_fabric_->send(p, now);
  });
  mig_ep_.tick_protocol(now, [&](const net::Packet<net::MigRecord>& p) {
    mig_fabric_->send(p, now);
  });
}

std::optional<std::pair<net::DegradedLink, const char*>>
FpgaNode::degraded_link() const {
  if (pos_ep_.degraded()) return {{pos_ep_.degraded_links().front(), "pos"}};
  if (frc_ep_.degraded()) return {{frc_ep_.degraded_links().front(), "frc"}};
  if (mig_ep_.degraded()) return {{mig_ep_.degraded_links().front(), "mig"}};
  return std::nullopt;
}

int FpgaNode::local_delivery_count(const geom::IVec3& src_lcid) const {
  const geom::IVec3& cpn = map_.cells_per_node();
  int count = 0;
  for (const geom::IVec3& d : geom::half_shell_offsets()) {
    const geom::IVec3 t = map_.grid().wrap(src_lcid + d);
    if (t.x < cpn.x && t.y < cpn.y && t.z < cpn.z) ++count;
  }
  return count;
}

void FpgaNode::tick_ingress(sim::Cycle now) {
  const int spes = config_.cbb.spes;
  // Position and force ingress only while evaluating forces: a fast
  // neighbour's next-iteration stream waits inside the endpoint.
  if (state_ == State::kForce) {
    // One record per EX node per cycle: the EX count scales with the SPEs
    // (§4.6), so a 2-SPE design unpacks two records per cycle per channel.
    for (int poll = 0; poll < spes; ++poll) {
      // Drain parked tokens first; stop polling while any slot is occupied
      // so unpack order is preserved.
      bool parked = false;
      for (int s = 0; s < spes; ++s) {
        if (!pending_pos_[s]) continue;
        auto& fifo = *ex_pos_inject_[s];
        if (fifo.can_push()) {
          fifo.push(*pending_pos_[s]);
          pending_pos_[s].reset();
        } else {
          parked = true;
        }
      }
      if (parked) break;
      auto r = pos_ep_.poll_record(now);
      if (!r) break;
      ring::PosToken t;
      t.src_lcid = map_.gcid_to_lcid(r->src_gcell, node_coords_);
      t.offset = r->offset;
      t.elem = r->elem;
      t.slot = r->slot;
      const int deliveries = local_delivery_count(t.src_lcid);
      assert(deliveries > 0);
      t.deliveries_remaining = static_cast<std::uint8_t>(deliveries);
      const int s = t.slot % spes;
      if (ex_pos_inject_[s]->can_push()) {
        ex_pos_inject_[s]->push(t);
      } else {
        pending_pos_[s] = t;
      }
    }
    for ([[maybe_unused]] const NodeId src : pos_ep_.take_last_events()) {
      chain_.on_last_position_received();
    }

    for (int poll = 0; poll < spes; ++poll) {
      bool parked = false;
      for (int s = 0; s < spes; ++s) {
        if (!pending_frc_[s]) continue;
        auto& fifo = *ex_frc_inject_[s];
        if (fifo.can_push()) {
          fifo.push(*pending_frc_[s]);
          pending_frc_[s].reset();
        } else {
          parked = true;
        }
      }
      if (parked) break;
      auto r = frc_ep_.poll_record(now);
      if (!r) break;
      ring::ForceToken t;
      t.dest_lcid = map_.gcid_to_lcid(r->dest_gcell, node_coords_);
      t.force = r->force;
      t.slot = r->slot;
      const int s = t.slot % spes;
      if (ex_frc_inject_[s]->can_push()) {
        ex_frc_inject_[s]->push(t);
      } else {
        pending_frc_[s] = t;
      }
    }
    for ([[maybe_unused]] const NodeId src : frc_ep_.take_last_events()) {
      chain_.on_last_force_received();
    }
  }

  if (state_ == State::kMotionUpdate) {
    if (!pending_mig_) {
      if (auto r = mig_ep_.poll_record(now)) {
        ring::MigrateToken t;
        t.dest_lcid = map_.gcid_to_lcid(r->dest_gcell, node_coords_);
        t.offset = r->offset;
        t.vel = r->vel;
        t.elem = r->elem;
        t.particle_id = r->particle_id;
        pending_mig_ = t;
      }
    }
    if (pending_mig_ && ex_mig_inject_->can_push()) {
      ex_mig_inject_->push(*pending_mig_);
      pending_mig_.reset();
    }
    for ([[maybe_unused]] const NodeId src : mig_ep_.take_last_events()) {
      chain_.on_last_mu_received();
    }
  }
}

void FpgaNode::tick_egress(sim::Cycle now) {
  pos_ep_.tick_egress(
      now, [&](const net::Packet<net::PosRecord>& p) { pos_fabric_->send(p, now); });
  frc_ep_.tick_egress(
      now, [&](const net::Packet<net::FrcRecord>& p) { frc_fabric_->send(p, now); });
  mig_ep_.tick_egress(
      now, [&](const net::Packet<net::MigRecord>& p) { mig_fabric_->send(p, now); });
}

bool FpgaNode::all_positions_injected() const {
  for (int c = 0; c < cells_->num_cells(); ++c) {
    if (!cells_->positions_injected(c)) return false;
  }
  return true;
}

bool FpgaNode::local_mu_done() const {
  if (mu_ring_->occupancy() != 0 || ex_mig_inject_->total_occupancy() != 0) {
    return false;
  }
  for (int c = 0; c < cells_->num_cells(); ++c) {
    if (!cells_->mu_done(c)) return false;
  }
  return true;
}

bool FpgaNode::force_datapath_quiescent() const {
  if (!cells_->force_quiescent()) return false;
  for (const auto& r : pos_rings_) {
    if (r->occupancy() != 0) return false;
  }
  for (const auto& r : frc_rings_) {
    if (r->occupancy() != 0) return false;
  }
  for (const auto& f : ex_pos_inject_) {
    if (f->total_occupancy() != 0) return false;
  }
  for (const auto& f : ex_frc_inject_) {
    if (f->total_occupancy() != 0) return false;
  }
  for (const auto& p : pending_pos_) {
    if (p) return false;
  }
  for (const auto& p : pending_frc_) {
    if (p) return false;
  }
  return !pos_ep_.ingress_pending();
}

bool FpgaNode::frc_side_drained() const {
  for (const auto& p : pending_frc_) {
    if (p) return false;
  }
  return !frc_ep_.ingress_pending();
}

bool FpgaNode::mu_side_drained() const {
  for (int c = 0; c < cells_->num_cells(); ++c) {
    if (!cells_->mu_done(c) || !cells_->migration_intake_empty(c)) return false;
  }
  return mu_ring_->occupancy() == 0 && ex_mig_inject_->total_occupancy() == 0 &&
         !pending_mig_ && !mig_ep_.ingress_pending();
}

void FpgaNode::enter_force_phase(sim::Cycle now) {
  chain_.begin_iteration();
  for (int c = 0; c < cells_->num_cells(); ++c) cells_->begin_force_phase(c);
  wake_cells(now);
  force_phase_starts_.push_back(now);
  set_state(State::kForce, now);
}

void FpgaNode::enter_motion_update(sim::Cycle now) {
  for (int c = 0; c < cells_->num_cells(); ++c) cells_->begin_motion_update(c);
  wake_cells(now);
  set_state(State::kMotionUpdate, now);
}

void FpgaNode::wake_cells(sim::Cycle now) {
  // A phase transition mutates the cells mid-cycle, after the elision sweep
  // already cached the cell array's wake — and their first tick of the new
  // phase happens THIS cycle under the naive schedule (the node ticks
  // before its datapath in registration order). Re-arm the cached wake so
  // the selective fan-out ticks the array. Safe without synchronization:
  // same shard means same worker, and the fan-out processes the array
  // strictly after this tick returns.
  cells_sched_->set_sched_wake(now);
}

void FpgaNode::complete_iteration(sim::Cycle now) {
  ++iterations_completed_;
  if (obs_ != nullptr) obs_->metrics().add(static_cast<int>(id_), h_iterations_);
  if (iterations_completed_ >= static_cast<std::uint64_t>(target_iterations_)) {
    set_state(State::kDone, now);
  } else {
    enter_force_phase(now);
  }
}

void FpgaNode::tick_fsm(sim::Cycle now) {
  switch (state_) {
    case State::kDone:
      return;
    case State::kIdle:
      if (armed_) {
        armed_ = false;
        enter_force_phase(now);
      }
      return;
    case State::kForce: {
      if (!chain_.last_position_sent() && all_positions_injected()) {
        pos_ep_.flush_last(neighbors_);
        chain_.mark_last_position_sent();
        sync_event("last-pos", now);
      }
      if (!chain_.last_force_sent() && chain_.last_position_sent() &&
          chain_.all_positions_received() && force_datapath_quiescent()) {
        frc_ep_.flush_last(neighbors_);
        chain_.mark_last_force_sent();
        sync_event("last-frc", now);
      }
      if (chain_.may_enter_motion_update() && frc_side_drained() &&
          force_datapath_quiescent()) {
        if (config_.sync_mode == sync::SyncMode::kBulk) {
          barrier_->arrive(barrier_seq_, now);
          set_state(State::kForceBarrier, now);
        } else {
          enter_motion_update(now);
        }
      }
      return;
    }
    case State::kForceBarrier:
      if (barrier_->released(barrier_seq_, now)) {
        ++barrier_seq_;
        enter_motion_update(now);
      }
      return;
    case State::kMotionUpdate: {
      if (!chain_.last_mu_sent() && local_mu_done()) {
        mig_ep_.flush_last(neighbors_);
        chain_.mark_last_mu_sent();
        sync_event("last-mu", now);
      }
      if (chain_.may_finish_motion_update() && mu_side_drained()) {
        if (config_.sync_mode == sync::SyncMode::kBulk) {
          barrier_->arrive(barrier_seq_, now);
          set_state(State::kMuBarrier, now);
        } else {
          complete_iteration(now);
        }
      }
      return;
    }
    case State::kMuBarrier:
      if (barrier_->released(barrier_seq_, now)) {
        ++barrier_seq_;
        complete_iteration(now);
      }
      return;
  }
}

// ---------------------------------------------------------------- stats

sim::UtilCounter FpgaNode::pos_ring_util() const {
  sim::UtilCounter out;
  for (const auto& r : pos_rings_) out.merge(r->util());
  return out;
}

sim::UtilCounter FpgaNode::frc_ring_util() const {
  sim::UtilCounter out;
  for (const auto& r : frc_rings_) out.merge(r->util());
  return out;
}

sim::UtilCounter FpgaNode::pe_util() const { return cells_->pe_util(); }

sim::UtilCounter FpgaNode::filter_util() const { return cells_->filter_util(); }

sim::UtilCounter FpgaNode::mu_util() const { return cells_->mu_util(); }

std::uint64_t FpgaNode::pairs_issued() const { return cells_->pairs_issued(); }

}  // namespace fasda::fpga
