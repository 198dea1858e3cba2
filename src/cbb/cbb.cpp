#include "fasda/cbb/cbb.hpp"

#include <cassert>
#include <limits>

namespace fasda::cbb {

const CellArray::PosRoute CellArray::kNoRoute{};

// ---------------------------------------------------------------- lifecycle

CellArray::CellArray(std::string name, const CbbConfig& config,
                     const md::Datapath& datapath,
                     const idmap::ClusterMap& map, geom::IVec3 node,
                     const std::vector<geom::IVec3>& lcells)
    : Component(std::move(name)),
      config_(config),
      datapath_(datapath),
      map_(map),
      cells_(lcells.size()),
      particles_(lcells.size()),
      forces_(lcells.size()),
      migrated_(lcells.size()),
      pr_inject_(lcells.size() * static_cast<std::size_t>(config.spes),
                 sim::Fifo<ring::PosToken>(config.fifo_depth)),
      fr_inject_(lcells.size() * static_cast<std::size_t>(config.spes),
                 sim::Fifo<ring::ForceToken>(config.fifo_depth)),
      arrivals_(lcells.size() * static_cast<std::size_t>(config.spes),
                sim::Queue<pe::PeArray::RefSlot>(config.arrival_buffer_depth)),
      dispatch_(lcells.size() * static_cast<std::size_t>(config.spes),
                sim::Queue<pe::PeArray::RefSlot>(
                    std::numeric_limits<std::size_t>::max())),
      mu_inject_(lcells.size(), sim::Fifo<ring::MigrateToken>(config.fifo_depth)),
      mu_arrivals_(lcells.size(),
                   sim::Queue<ring::MigrateToken>(config.fifo_depth)),
      lane_busy_(lcells.size() * static_cast<std::size_t>(config.spes)),
      injecting_(lcells.size()),
      pes_(config.pe, datapath,
           static_cast<int>(lcells.size()) * config.spes * config.pes_per_spe,
           config.pes_per_spe) {
  for (std::size_t c = 0; c < lcells.size(); ++c) {
    CellState& cell = cells_[c];
    cell.lcell = lcells[c];
    cell.gcell = map_.global_cell(node, lcells[c]);
    // How many of this cell's 13 forward neighbour cells live on this node
    // (the multicast count for locally injected position tokens).
    for (const geom::IVec3& d : geom::half_shell_offsets()) {
      const geom::IVec3 target = map_.grid().wrap(cell.gcell + d);
      if (map_.node_of_cell(target) == node) ++cell.local_pos_deliveries;
    }
    cell.has_remote_dests = !map_.remote_destinations(cell.gcell).empty();
    for (int s = 0; s < config_.spes; ++s) {
      for (int k = 0; k < config_.pes_per_spe; ++k) {
        const int fc_index = s * (config_.pes_per_spe + 1) + k;
        pes_.bind(first_pe(static_cast<int>(c)) + s * config_.pes_per_spe + k,
                  &particles_[c], pe::ForceCache{&forces_[c], cell.gcell, fc_index});
      }
    }
  }

  // Position routes. The halo frame is the node's block plus one cell on
  // each side; every LCID a position token can carry on this node's rings
  // maps into it one-to-one (wrapping through the global grid).
  const geom::IVec3 cpn = map_.cells_per_node();
  const geom::IVec3 g = map_.global_dims();
  halo_dims_ = {cpn.x + 2, cpn.y + 2, cpn.z + 2};
  halo_cells_ = static_cast<std::size_t>(halo_dims_.product());
  const auto axis = [](const geom::IVec3& v, int a) {
    return a == 0 ? v.x : a == 1 ? v.y : v.z;
  };
  std::vector<int> rep[3];
  for (int a = 0; a < 3; ++a) {
    const int dim = axis(g, a);
    const int block = axis(cpn, a);
    halo_[a].assign(static_cast<std::size_t>(dim), -1);
    rep[a].assign(static_cast<std::size_t>(block + 2), -1);
    for (int v = 0; v < dim; ++v) {
      int h = -1;
      if (v < block) {
        h = v + 1;
      } else if (v == dim - 1) {
        h = 0;
      } else if (v == block) {
        h = block + 1;
      }
      if (h < 0) continue;
      halo_[a][static_cast<std::size_t>(v)] = static_cast<std::int16_t>(h);
      rep[a][static_cast<std::size_t>(h)] = v;
    }
  }
  pos_routes_.assign(cells_.size() * halo_cells_, PosRoute{});
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    const geom::IVec3& dest = cells_[c].lcell;
    for (int hx = 0; hx < halo_dims_.x; ++hx) {
      for (int hy = 0; hy < halo_dims_.y; ++hy) {
        for (int hz = 0; hz < halo_dims_.z; ++hz) {
          const geom::IVec3 src{rep[0][static_cast<std::size_t>(hx)],
                                rep[1][static_cast<std::size_t>(hy)],
                                rep[2][static_cast<std::size_t>(hz)]};
          if (src.x < 0 || src.y < 0 || src.z < 0) continue;
          if (!map_.accepts_position(src, dest)) continue;
          PosRoute& route =
              pos_routes_[c * halo_cells_ +
                          static_cast<std::size_t>(
                              (hx * halo_dims_.y + hy) * halo_dims_.z + hz)];
          route.accept = true;
          route.shift = map_.lcid_to_rcid(src, dest) - geom::IVec3{2, 2, 2};
        }
      }
    }
  }
}

std::vector<sim::Clocked*> CellArray::clocked() {
  std::vector<sim::Clocked*> out;
  pes_.append_clocked(out);
  return out;
}

template <>
sim::Fifo<ring::PosToken>& CellArray::injector<ring::PosToken>(int c, int spe) {
  return pr_inject_[lane(c, spe)];
}
template <>
sim::Fifo<ring::ForceToken>& CellArray::injector<ring::ForceToken>(int c,
                                                                   int spe) {
  return fr_inject_[lane(c, spe)];
}
template <>
sim::Fifo<ring::MigrateToken>& CellArray::injector<ring::MigrateToken>(int c,
                                                                       int) {
  return mu_inject_[static_cast<std::size_t>(c)];
}

// ---------------------------------------------------------------- stations

bool CellArray::deliver(int c, int spe, ring::PosToken& t) {
  const std::size_t l = lane(c, spe);
  sim::Queue<pe::PeArray::RefSlot>& arrivals = arrivals_[l];
  if (!arrivals.can_push()) return false;
  pe::Reference ref;
  ref.pos = md::rebase(t.offset, pos_route(c, t.src_lcid).shift);
  ref.elem = t.elem;
  ref.is_home = false;
  ref.src_lcid = t.src_lcid;
  ref.slot = t.slot;
  arrivals.push(pes_.alloc_ref(static_cast<int>(l), ref));
  lane_busy_.set(l);
  t.deliveries_remaining--;
  return true;
}

bool CellArray::deliver(int c, int, ring::ForceToken& t) {
  // The FC-N write port accepts one ring delivery per cycle, which is the
  // most the FRN can hand over anyway.
  std::vector<fixed::ForceAccum>& fc = forces_[static_cast<std::size_t>(c)];
  assert(t.slot < fc.size());
  if (FcProbe::hook) FcProbe::hook(cells_[c].gcell, t.slot, t.force, -1);
  fc[t.slot].add(t.force);
  return true;
}

bool CellArray::deliver(int c, int, ring::MigrateToken& t) {
  if (!mu_arrivals_[static_cast<std::size_t>(c)].push(t)) return false;
  ++mu_arrivals_pending_;
  return true;
}

// ---------------------------------------------------------------- phases

void CellArray::begin_force_phase(int c) {
  std::vector<pe::CellParticle>& particles = particles_[c];
  std::vector<std::uint8_t>& migrated = migrated_[c];
  // Fold in migrations before the phase fixes slot numbering.
  if (!migrated.empty()) {
    std::size_t w = 0;
    for (std::size_t r = 0; r < particles.size(); ++r) {
      if (r < migrated.size() && migrated[r]) continue;
      particles[w++] = particles[r];
    }
    particles.resize(w);
    migrated.clear();
  }
  forces_[c].assign(particles.size(), fixed::ForceAccum{});
  cells_[c].inject_cursor = 0;
  if (!particles.empty()) injecting_.set(static_cast<std::size_t>(c));
  // Intra-cell pairs: every home particle becomes a home reference exactly
  // once, spread round-robin over the SPE dispatch queues.
  for (std::size_t i = 0; i < particles.size(); ++i) {
    pe::Reference ref;
    ref.pos = particles[i].pos;
    ref.elem = particles[i].elem;
    ref.is_home = true;
    ref.home_index = static_cast<std::uint16_t>(i);
    const std::size_t l =
        lane(c, static_cast<int>(i % static_cast<std::size_t>(config_.spes)));
    dispatch_[l].push(pes_.alloc_ref(static_cast<int>(l), ref));
    lane_busy_.set(l);
  }
  for (int p = first_pe(c); p < first_pe(c + 1); ++p) pes_.reset_phase(p);
  cells_[c].phase = Phase::kForce;
}

bool CellArray::force_quiescent(int c) const {
  if (!positions_injected(c)) return false;
  for (int s = 0; s < config_.spes; ++s) {
    const std::size_t l = lane(c, s);
    if (pr_inject_[l].total_occupancy() != 0) return false;
    if (fr_inject_[l].total_occupancy() != 0) return false;
    if (!arrivals_[l].empty()) return false;
    if (!dispatch_[l].empty()) return false;
  }
  for (int p = first_pe(c); p < first_pe(c + 1); ++p) {
    if (!pes_.quiescent(p)) return false;
  }
  return true;
}

bool CellArray::force_quiescent() const {
  if (injecting_.any() || lane_busy_.any() || pes_.any_active()) return false;
  for (int c = 0; c < num_cells(); ++c) {
    if (!force_quiescent(c)) return false;
  }
  return true;
}

void CellArray::begin_motion_update(int c) {
  CellState& cell = cells_[c];
  cell.phase = Phase::kMotionUpdate;
  cell.mu_cursor = 0;
  cell.mu_limit = particles_[c].size();
  migrated_[c].assign(particles_[c].size(), 0);
}

bool CellArray::mu_done(int c) const {
  const CellState& cell = cells_[c];
  return cell.phase == Phase::kMotionUpdate && cell.mu_cursor >= cell.mu_limit &&
         mu_inject_[static_cast<std::size_t>(c)].total_occupancy() == 0;
}

// ---------------------------------------------------------------- per cycle

void CellArray::tick(sim::Cycle now) {
  ++ticks_;
  if (mu_arrivals_pending_ != 0) {
    // Migration arrivals may land in any phase tail; they are already
    // updated by their previous home cell's MU, so they are appended
    // verbatim.
    for (int c = 0; c < num_cells(); ++c) {
      sim::Queue<ring::MigrateToken>& arrivals = mu_arrivals_[c];
      if (arrivals.empty()) continue;
      while (!arrivals.empty()) {
        const ring::MigrateToken t = arrivals.pop();
        particles_[c].push_back(
            pe::CellParticle{t.offset, t.vel, t.elem, t.particle_id});
      }
      if (cells_[c].phase == Phase::kForce) {
        injecting_.set(static_cast<std::size_t>(c));
      }
    }
    mu_arrivals_pending_ = 0;
  }
  // The CBB stages of every cell, then every PE. A cell's stages touch
  // only its own state, its lanes and its own PEs' FIFOs, so cells commute;
  // what must hold is that a cell's stages run before its PEs' within a
  // cycle: the dispatcher sizes a PE input before the PE pops it, and the
  // arbiter pops a PE output before the PE retires into it. Position
  // injection keeps CID order, the order remote positions reach the P2R
  // chain.
  for (int c = 0; c < num_cells(); ++c) {
    if (cells_[c].phase == Phase::kMotionUpdate) tick_motion_update(c);
  }
  injecting_.for_each_set(0, cells_.size(), [&](std::size_t c) {
    inject_position(static_cast<int>(c));
  });
  lane_busy_.for_each_set(0, lane_busy_.size(), [&](std::size_t l) {
    tick_lane(l);
  });
  pes_.tick(now);
  // A force retired this cycle is arbitrated from the next.
  lane_busy_.take(pes_.output_pools());
}

void CellArray::inject_position(int c) {
  CellState& cell = cells_[c];
  if (cell.phase != Phase::kForce) return;
  const std::vector<pe::CellParticle>& particles = particles_[c];
  if (cell.inject_cursor >= particles.size()) {
    injecting_.reset(static_cast<std::size_t>(c));
    return;
  }
  // 1. Home position broadcast: one particle per SPE ring per cycle, taken
  //    in slot order (the PC read port). The same read feeds the P2R chain
  //    when the cell borders another FPGA.
  const int spe = static_cast<int>(cell.inject_cursor % config_.spes);
  const pe::CellParticle& p = particles[cell.inject_cursor];
  const bool needs_local_ring = cell.local_pos_deliveries > 0;
  sim::Fifo<ring::PosToken>& pr = pr_inject_[lane(c, spe)];
  if (needs_local_ring && !pr.can_push()) return;
  const auto slot = static_cast<std::uint16_t>(cell.inject_cursor);
  if (needs_local_ring) {
    ring::PosToken token;
    token.src_lcid = cell.lcell;
    token.offset = p.pos;
    token.elem = p.elem;
    token.slot = slot;
    token.deliveries_remaining =
        static_cast<std::uint8_t>(cell.local_pos_deliveries);
    pr.push(token);
  }
  if (cell.has_remote_dests && cell.offer_remote) {
    cell.offer_remote(RemotePosition{cell.gcell, p.pos, p.elem, slot});
  }
  if (++cell.inject_cursor >= particles.size()) {
    injecting_.reset(static_cast<std::size_t>(c));
  }
}

void CellArray::tick_lane(std::size_t l) {
  const int c = static_cast<int>(l) / config_.spes;
  if (cells_[c].phase != Phase::kForce) return;
  const int per_spe = config_.pes_per_spe;
  const int pe0 = static_cast<int>(l) * per_spe;
  // 2. Arrival intake: PRN deliveries queue up for the dispatcher.
  sim::Queue<pe::PeArray::RefSlot>& arrivals = arrivals_[l];
  sim::Queue<pe::PeArray::RefSlot>& dispatch = dispatch_[l];
  if (!arrivals.empty() && dispatch.size() < config_.arrival_buffer_depth) {
    dispatch.push(arrivals.pop());
  }
  // 3. Dispatch: one reference per cycle to the least-loaded PE (Fig. 6's
  //    P-Dispatcher).
  if (!dispatch.empty()) {
    int best = -1;
    std::size_t best_space = 0;
    for (int p = pe0; p < pe0 + per_spe; ++p) {
      const sim::Fifo<pe::PeArray::RefSlot>& in = pes_.input(p);
      const std::size_t space = in.capacity() - in.total_occupancy();
      if (space > best_space) {
        best_space = space;
        best = p;
      }
    }
    if (best >= 0) pes_.push_input(best, dispatch.pop());
  }
  // 4. Force-output arbitration: one retired neighbour force per cycle per
  //    SPE onto its force ring.
  sim::Fifo<ring::ForceToken>& fr = fr_inject_[l];
  if (fr.can_push()) {
    for (int p = pe0; p < pe0 + per_spe; ++p) {
      sim::Fifo<ring::ForceToken>& out = pes_.output(p);
      if (!out.empty()) {
        fr.push(out.pop());
        break;
      }
    }
  }
  bool drained = arrivals.empty() && dispatch.empty();
  for (int p = pe0; p < pe0 + per_spe; ++p) {
    drained = drained && pes_.output(p).total_occupancy() == 0;
  }
  if (drained) lane_busy_.reset(l);
}

void CellArray::tick_motion_update(int c) {
  CellState& cell = cells_[c];
  if (cell.mu_cursor >= cell.mu_limit) return;
  pe::CellParticle& p = particles_[c][cell.mu_cursor];
  // Leapfrog kick with the adder-tree-combined force, then the quantized
  // drift (§4.2). The particle itself changes only once the update
  // commits, so a migration stalled on the MU ring retries next cycle.
  const md::Motion m = datapath_.motion_update(
      p.pos, p.vel, forces_[c][cell.mu_cursor].to_vec3f(), p.elem);
  ++cell.mu_active;
  if (m.shift == geom::IVec3{0, 0, 0}) {
    p.vel = m.vel;
    p.pos = m.pos;
    ++cell.mu_cursor;
    ++cell.mu_work;
    return;
  }
  // Migration: LCID arithmetic wraps in the global frame, so the token's
  // destination is valid whether the target cell is local or remote.
  sim::Fifo<ring::MigrateToken>& mu = mu_inject_[static_cast<std::size_t>(c)];
  if (!mu.can_push()) return;  // stalled on the MU ring
  ring::MigrateToken token;
  token.dest_lcid = map_.grid().wrap(cell.lcell + m.shift);
  token.offset = m.pos;
  token.vel = m.vel;
  token.elem = p.elem;
  token.particle_id = p.id;
  mu.push(token);
  migrated_[c][cell.mu_cursor] = 1;
  ++cell.mu_cursor;
  ++cell.mu_work;
}

bool CellArray::cell_busy(int c) const {
  const CellState& cell = cells_[c];
  if (!mu_arrivals_[c].empty()) return true;
  switch (cell.phase) {
    case Phase::kIdle:
      return false;
    case Phase::kForce:
      if (!positions_injected(c)) return true;
      for (int s = 0; s < config_.spes; ++s) {
        const std::size_t l = lane(c, s);
        if (!arrivals_[l].empty() || !dispatch_[l].empty()) return true;
      }
      for (int p = first_pe(c); p < first_pe(c + 1); ++p) {
        if (!pes_.output(p).empty()) return true;
      }
      return false;
    case Phase::kMotionUpdate:
      return cell.mu_cursor < cell.mu_limit;
  }
  return false;
}

sim::Cycle CellArray::next_wake(sim::Cycle now) const {
  for (int c = 0; c < num_cells(); ++c) {
    if (cell_busy(c)) return now;
  }
  return pes_.next_wake(now);
}

void CellArray::skip_idle(sim::Cycle from, sim::Cycle to) {
  // An idle cell tick adds one cycle of MU capacity and nothing else — the
  // kIdle case, a drained force phase, and a finished MU cursor alike.
  ticks_ += to - from;
  pes_.skip_idle(from, to);
}

std::vector<geom::Vec3f> CellArray::forces(int c) const {
  std::vector<geom::Vec3f> out;
  out.reserve(forces_[c].size());
  for (const fixed::ForceAccum& f : forces_[c]) out.push_back(f.to_vec3f());
  return out;
}

// ---------------------------------------------------------------- stats

sim::UtilCounter CellArray::pe_util(int c) const {
  const int first = c < 0 ? 0 : first_pe(c);
  const int last = c < 0 ? pes_.size() : first_pe(c + 1);
  sim::UtilCounter out;
  for (int p = first; p < last; ++p) out.merge(pes_.pe_util(p));
  return out;
}

sim::UtilCounter CellArray::filter_util(int c) const {
  const int first = c < 0 ? 0 : first_pe(c);
  const int last = c < 0 ? pes_.size() : first_pe(c + 1);
  sim::UtilCounter out;
  for (int p = first; p < last; ++p) out.merge(pes_.filter_util(p));
  return out;
}

sim::UtilCounter CellArray::mu_util() const {
  sim::UtilCounter out;
  for (int c = 0; c < num_cells(); ++c) out.merge(mu_util(c));
  return out;
}

std::uint64_t CellArray::pairs_issued(int c) const {
  const int first = c < 0 ? 0 : first_pe(c);
  const int last = c < 0 ? pes_.size() : first_pe(c + 1);
  std::uint64_t n = 0;
  for (int p = first; p < last; ++p) n += pes_.pairs_issued(p);
  return n;
}

}  // namespace fasda::cbb
