#include "fasda/cbb/cbb.hpp"

#include <cassert>

namespace fasda::cbb {

FcProbe::Fn FcProbe::hook;

// ---------------------------------------------------------------- stations

class Cbb::PosStation : public ring::Station<ring::PosToken> {
 public:
  PosStation(Cbb* cbb, int spe) : cbb_(cbb), spe_(spe) {}

  Action classify(const ring::PosToken& t) const override {
    if (!cbb_->map_.accepts_position(t.src_lcid, cbb_->lcell_)) {
      return Action::kPass;
    }
    return t.deliveries_remaining <= 1 ? Action::kDeliverAndDrop
                                       : Action::kDeliver;
  }

  bool try_deliver(ring::PosToken& t) override {
    auto& fifo = *cbb_->arrivals_[spe_];
    if (!fifo.can_push()) return false;
    pe::Reference ref;
    ref.pos = md::rebase(
        t.offset, cbb_->map_.lcid_to_rcid(t.src_lcid, cbb_->lcell_) -
                      geom::IVec3{2, 2, 2});
    ref.elem = t.elem;
    ref.is_home = false;
    ref.src_lcid = t.src_lcid;
    ref.slot = t.slot;
    fifo.push(ref);
    t.deliveries_remaining--;
    return true;
  }

  sim::Fifo<ring::PosToken>* inject_source() override {
    return cbb_->pr_inject_[spe_].get();
  }

 private:
  Cbb* cbb_;
  int spe_;
};

class Cbb::FrcStation : public ring::Station<ring::ForceToken> {
 public:
  FrcStation(Cbb* cbb, int spe) : cbb_(cbb), spe_(spe) {}

  Action classify(const ring::ForceToken& t) const override {
    return t.dest_lcid == cbb_->lcell_ ? Action::kDeliverAndDrop : Action::kPass;
  }

  bool try_deliver(ring::ForceToken& t) override {
    // The FC-N write port accepts one ring delivery per cycle, which is the
    // most the FRN can hand over anyway.
    assert(t.slot < cbb_->forces_.size());
    if (FcProbe::hook) FcProbe::hook(cbb_->gcell_, t.slot, t.force, -1);
    cbb_->forces_[t.slot].add(t.force);
    return true;
  }

  sim::Fifo<ring::ForceToken>* inject_source() override {
    return cbb_->fr_inject_[spe_].get();
  }

 private:
  Cbb* cbb_;
  int spe_;
};

class Cbb::MuStation : public ring::Station<ring::MigrateToken> {
 public:
  explicit MuStation(Cbb* cbb) : cbb_(cbb) {}

  Action classify(const ring::MigrateToken& t) const override {
    return t.dest_lcid == cbb_->lcell_ ? Action::kDeliverAndDrop : Action::kPass;
  }

  bool try_deliver(ring::MigrateToken& t) override {
    return cbb_->mu_arrivals_->push(t);
  }

  sim::Fifo<ring::MigrateToken>* inject_source() override {
    return cbb_->mu_inject_.get();
  }

 private:
  Cbb* cbb_;
};

// ---------------------------------------------------------------- lifecycle

Cbb::Cbb(std::string name, const CbbConfig& config, const md::Datapath& datapath,
         const idmap::ClusterMap& map, geom::IVec3 node, geom::IVec3 lcell)
    : Component(std::move(name)),
      config_(config),
      datapath_(datapath),
      map_(map),
      node_(node),
      lcell_(lcell),
      gcell_(map.global_cell(node, lcell)) {
  // How many of this cell's 13 forward neighbour cells live on this node
  // (the multicast count for locally injected position tokens).
  for (const geom::IVec3& d : geom::half_shell_offsets()) {
    const geom::IVec3 target = map_.grid().wrap(gcell_ + d);
    if (map_.node_of_cell(target) == node_) ++local_pos_deliveries_;
  }
  has_remote_dests_ = !map_.remote_destinations(gcell_).empty();

  for (int s = 0; s < config_.spes; ++s) {
    pr_inject_.push_back(
        std::make_unique<sim::Fifo<ring::PosToken>>(config_.fifo_depth));
    fr_inject_.push_back(
        std::make_unique<sim::Fifo<ring::ForceToken>>(config_.fifo_depth));
    arrivals_.push_back(std::make_unique<sim::Fifo<pe::Reference>>(
        config_.arrival_buffer_depth));
    dispatch_.emplace_back();
    pos_stations_.push_back(std::make_unique<PosStation>(this, s));
    frc_stations_.push_back(std::make_unique<FrcStation>(this, s));
    for (int k = 0; k < config_.pes_per_spe; ++k) {
      const int fc_index = s * (config_.pes_per_spe + 1) + k;
      pes_.push_back(std::make_unique<pe::ProcessingElement>(
          Component::name() + "/pe" + std::to_string(s) + "." + std::to_string(k),
          config_.pe, datapath_, &particles_, this, fc_index));
    }
  }
  mu_station_ = std::make_unique<MuStation>(this);
  mu_inject_ = std::make_unique<sim::Fifo<ring::MigrateToken>>(config_.fifo_depth);
  mu_arrivals_ = std::make_unique<sim::Fifo<ring::MigrateToken>>(config_.fifo_depth);
}

Cbb::~Cbb() = default;

std::vector<sim::Component*> Cbb::components() {
  std::vector<sim::Component*> out{this};
  for (auto& p : pes_) out.push_back(p.get());
  return out;
}

std::vector<sim::Clocked*> Cbb::clocked() {
  std::vector<sim::Clocked*> out;
  for (auto& f : pr_inject_) out.push_back(f.get());
  for (auto& f : fr_inject_) out.push_back(f.get());
  for (auto& f : arrivals_) out.push_back(f.get());
  out.push_back(mu_inject_.get());
  out.push_back(mu_arrivals_.get());
  for (auto& p : pes_) {
    out.push_back(&p->input());
    out.push_back(&p->output());
  }
  return out;
}

ring::Station<ring::PosToken>& Cbb::pos_station(int spe) {
  return *pos_stations_[spe];
}
ring::Station<ring::ForceToken>& Cbb::frc_station(int spe) {
  return *frc_stations_[spe];
}
ring::Station<ring::MigrateToken>& Cbb::mu_station() { return *mu_station_; }

// ---------------------------------------------------------------- phases

void Cbb::begin_force_phase() {
  // Fold in migrations before the phase fixes slot numbering.
  if (!migrated_.empty()) {
    std::size_t w = 0;
    for (std::size_t r = 0; r < particles_.size(); ++r) {
      if (r < migrated_.size() && migrated_[r]) continue;
      particles_[w++] = particles_[r];
    }
    particles_.resize(w);
    migrated_.clear();
  }
  forces_.assign(particles_.size(), fixed::ForceAccum{});
  inject_cursor_ = 0;
  // Intra-cell pairs: every home particle becomes a home reference exactly
  // once, spread round-robin over the SPE dispatch queues.
  for (std::size_t i = 0; i < particles_.size(); ++i) {
    pe::Reference ref;
    ref.pos = particles_[i].pos;
    ref.elem = particles_[i].elem;
    ref.is_home = true;
    ref.home_index = static_cast<std::uint16_t>(i);
    dispatch_[i % dispatch_.size()].push_back(ref);
  }
  for (auto& p : pes_) p->reset_phase();
  phase_ = Phase::kForce;
}

bool Cbb::force_quiescent() const {
  if (inject_cursor_ < particles_.size()) return false;
  for (int s = 0; s < config_.spes; ++s) {
    if (pr_inject_[s]->total_occupancy() != 0) return false;
    if (fr_inject_[s]->total_occupancy() != 0) return false;
    if (arrivals_[s]->total_occupancy() != 0) return false;
    if (!dispatch_[s].empty()) return false;
  }
  for (const auto& p : pes_) {
    if (!p->quiescent()) return false;
  }
  return true;
}

void Cbb::begin_motion_update() {
  phase_ = Phase::kMotionUpdate;
  mu_cursor_ = 0;
  mu_limit_ = particles_.size();
  migrated_.assign(particles_.size(), false);
}

bool Cbb::mu_done() const {
  return phase_ == Phase::kMotionUpdate && mu_cursor_ >= mu_limit_ &&
         mu_inject_->total_occupancy() == 0;
}

// ---------------------------------------------------------------- per cycle

void Cbb::tick(sim::Cycle) {
  // Migration arrivals may land in any phase tail; they are already updated
  // by their previous home cell's MU, so they are appended verbatim.
  while (!mu_arrivals_->empty()) {
    const ring::MigrateToken t = mu_arrivals_->pop();
    particles_.push_back(pe::CellParticle{t.offset, t.vel, t.elem, t.particle_id});
  }

  switch (phase_) {
    case Phase::kIdle:
      mu_util_.record(0, 1, false);
      break;
    case Phase::kForce:
      tick_force_phase();
      mu_util_.record(0, 1, false);
      break;
    case Phase::kMotionUpdate:
      tick_motion_update();
      break;
  }
}

void Cbb::tick_force_phase() {
  // 1. Home position broadcast: one particle per SPE ring per cycle, taken
  //    in slot order (the PC read port). The same read feeds the P2R chain
  //    when the cell borders another FPGA.
  if (inject_cursor_ < particles_.size()) {
    const int spe = static_cast<int>(inject_cursor_) % config_.spes;
    const pe::CellParticle& p = particles_[inject_cursor_];
    const bool needs_local_ring = local_pos_deliveries_ > 0;
    if (!needs_local_ring || pr_inject_[spe]->can_push()) {
      if (needs_local_ring) {
        ring::PosToken token;
        token.src_lcid = lcell_;
        token.offset = p.pos;
        token.elem = p.elem;
        token.slot = static_cast<std::uint16_t>(inject_cursor_);
        token.deliveries_remaining =
            static_cast<std::uint8_t>(local_pos_deliveries_);
        pr_inject_[spe]->push(token);
      }
      if (has_remote_dests_ && offer_remote_) {
        offer_remote_(RemotePosition{
            gcell_, p.pos, p.elem, static_cast<std::uint16_t>(inject_cursor_)});
      }
      ++inject_cursor_;
    }
  }

  for (int s = 0; s < config_.spes; ++s) {
    // 2. Arrival intake: PRN deliveries queue up for the dispatcher.
    if (!arrivals_[s]->empty() &&
        dispatch_[s].size() < config_.arrival_buffer_depth) {
      dispatch_[s].push_back(arrivals_[s]->pop());
    }
    // 3. Dispatch: one reference per cycle to the least-loaded PE (Fig. 6's
    //    P-Dispatcher).
    if (!dispatch_[s].empty()) {
      pe::ProcessingElement* best = nullptr;
      std::size_t best_space = 0;
      for (int k = 0; k < config_.pes_per_spe; ++k) {
        auto& candidate = pe_at(s, k);
        const std::size_t space =
            candidate.input().capacity() - candidate.input().total_occupancy();
        if (space > best_space) {
          best_space = space;
          best = &candidate;
        }
      }
      if (best != nullptr) {
        best->input().push(dispatch_[s].front());
        dispatch_[s].pop_front();
      }
    }
    // 4. Force-output arbitration: one retired neighbour force per cycle per
    //    SPE onto its force ring.
    if (fr_inject_[s]->can_push()) {
      for (int k = 0; k < config_.pes_per_spe; ++k) {
        auto& out = pe_at(s, k).output();
        if (!out.empty()) {
          fr_inject_[s]->push(out.pop());
          break;
        }
      }
    }
  }
}

void Cbb::tick_motion_update() {
  if (mu_cursor_ >= mu_limit_) {
    mu_util_.record(0, 1, false);
    return;
  }
  pe::CellParticle& p = particles_[mu_cursor_];
  // Leapfrog kick with the adder-tree-combined force, then the quantized
  // drift (§4.2). The particle itself changes only once the update
  // commits, so a migration stalled on the MU ring retries next cycle.
  const md::Motion m = datapath_.motion_update(
      p.pos, p.vel, forces_[mu_cursor_].to_vec3f(), p.elem);
  if (m.shift == geom::IVec3{0, 0, 0}) {
    p.vel = m.vel;
    p.pos = m.pos;
    ++mu_cursor_;
    mu_util_.record(1, 1, true);
    return;
  }
  // Migration: LCID arithmetic wraps in the global frame, so the token's
  // destination is valid whether the target cell is local or remote.
  if (!mu_inject_->can_push()) {
    mu_util_.record(0, 1, true);  // stalled on the MU ring
    return;
  }
  ring::MigrateToken token;
  token.dest_lcid = map_.grid().wrap(lcell_ + m.shift);
  token.offset = m.pos;
  token.vel = m.vel;
  token.elem = p.elem;
  token.particle_id = p.id;
  mu_inject_->push(token);
  migrated_[mu_cursor_] = true;
  ++mu_cursor_;
  mu_util_.record(1, 1, true);
}

sim::Cycle Cbb::next_wake(sim::Cycle now) const {
  if (!mu_arrivals_->empty()) return now;
  switch (phase_) {
    case Phase::kIdle:
      break;
    case Phase::kForce: {
      if (inject_cursor_ < particles_.size()) return now;
      for (int s = 0; s < config_.spes; ++s) {
        if (!arrivals_[s]->empty() || !dispatch_[s].empty()) return now;
      }
      for (const auto& p : pes_) {
        if (!p->output().empty()) return now;
      }
      break;
    }
    case Phase::kMotionUpdate:
      if (mu_cursor_ < mu_limit_) return now;
      break;
  }
  return sim::kNeverCycle;
}

void Cbb::skip_idle(sim::Cycle from, sim::Cycle to) {
  // Every phase's idle tick path records mu_util_(0, 1, false) and nothing
  // else — the kIdle case, a drained force phase, and a finished MU cursor
  // all hit the same bookkeeping.
  mu_util_.record(0, to - from, false);
}

void Cbb::accumulate(std::uint16_t slot, const geom::Vec3f& force,
                     int fc_index) {
  assert(slot < forces_.size());
  if (FcProbe::hook) FcProbe::hook(gcell_, slot, force, fc_index);
  forces_[slot].add(force);
}

std::vector<geom::Vec3f> Cbb::forces() const {
  std::vector<geom::Vec3f> out;
  out.reserve(forces_.size());
  for (const fixed::ForceAccum& f : forces_) out.push_back(f.to_vec3f());
  return out;
}

// ---------------------------------------------------------------- stats

sim::UtilCounter Cbb::pe_util() const {
  sim::UtilCounter out;
  for (const auto& p : pes_) out.merge(p->pe_util());
  return out;
}

sim::UtilCounter Cbb::filter_util() const {
  sim::UtilCounter out;
  for (const auto& p : pes_) out.merge(p->filter_util());
  return out;
}

std::uint64_t Cbb::pairs_issued() const {
  std::uint64_t n = 0;
  for (const auto& p : pes_) n += p->pairs_issued();
  return n;
}

}  // namespace fasda::cbb
