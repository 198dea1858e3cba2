#include "fasda/pe/processing_element.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace fasda::pe {

PairProbe::Fn PairProbe::hook;
RetireProbe::Fn RetireProbe::hook;
FcProbe::Fn FcProbe::hook;

PeArray::PeArray(const PEConfig& config, const md::Datapath& datapath,
                 int count, int pes_per_pool)
    : config_(config),
      datapath_(datapath),
      filters_(static_cast<std::uint32_t>(std::max(config.num_filters, 0))),
      pair_cap_(static_cast<std::uint32_t>(
          std::max<std::size_t>(config.pair_buffer_depth, 1))),
      // One issue per cycle and a fixed latency: at most `latency` pairs are
      // in flight after any tick.
      pipe_cap_(static_cast<std::uint32_t>(
          std::max(config.pipeline_latency, 0) + 1)),
      pes_per_pool_(std::max(pes_per_pool, 1)),
      lanes_(static_cast<std::size_t>(count)),
      active_(static_cast<std::size_t>(count)),
      inputs_(static_cast<std::size_t>(count),
              sim::Fifo<RefSlot>(config.input_queue_depth)),
      outputs_(static_cast<std::size_t>(count),
               sim::Fifo<ring::ForceToken>(config.output_queue_depth)),
      filter_pos_(static_cast<std::size_t>(count) * filters_),
      filter_min_stream_(static_cast<std::size_t>(count) * filters_),
      filter_ref_(static_cast<std::size_t>(count) * filters_),
      pairs_(static_cast<std::size_t>(count) * pair_cap_),
      pipeline_(static_cast<std::size_t>(count) * pipe_cap_),
      pool_(static_cast<std::size_t>((count + pes_per_pool_ - 1) / pes_per_pool_)),
      free_slots_(pool_.size()),
      retiring_(static_cast<std::size_t>(count)) {
  for (int p = 0; p < count; ++p) lanes_[p].pool = p / pes_per_pool_;
  output_pools_ = sim::Bitset(pool_.size());
}

void PeArray::bind(int p, const std::vector<CellParticle>* home,
                   ForceCache fc) {
  lanes_[p].home = home;
  lanes_[p].fc = fc;
}

void PeArray::append_clocked(std::vector<sim::Clocked*>& out) {
  for (auto& f : inputs_) out.push_back(&f);
  for (auto& f : outputs_) out.push_back(&f);
}

PeArray::RefSlot PeArray::alloc_ref(int pool, const Reference& ref) {
  std::vector<RefSlot>& free = free_slots_[pool];
  RefSlot slot;
  if (!free.empty()) {
    slot = free.back();
    free.pop_back();
    pool_[pool][slot] = RefState{ref};
  } else {
    slot = static_cast<RefSlot>(pool_[pool].size());
    pool_[pool].push_back(RefState{ref});
  }
  return slot;
}

void PeArray::release_ref(int p, RefSlot slot) {
  free_slots_[lanes_[p].pool].push_back(slot);
}

void PeArray::accumulate(const Lane& lane, std::uint16_t slot,
                         const geom::Vec3f& f) {
  assert(slot < lane.fc.slots->size());
  if (FcProbe::hook) FcProbe::hook(lane.fc.gcell, slot, f, lane.fc.fc_index);
  (*lane.fc.slots)[slot].add(f);
}

void PeArray::tick(sim::Cycle now) {
  ++ticks_;
  active_.for_each_set(0, lanes_.size(), [&](std::size_t p) {
    tick_one(static_cast<int>(p), now);
    if (idle(static_cast<int>(p))) active_.reset(p);
  });
}

bool PeArray::idle(int p) const {
  // Nothing loaded, buffered, in flight or retiring (a retiring reference
  // either is retirable or still has pairs in the buffer or pipeline), and
  // nothing queued.
  const Lane& lane = lanes_[p];
  return !lane.pass_active && lane.pair_size == 0 && lane.pipe_size == 0 &&
         lane.retirable == 0 && inputs_[p].total_occupancy() == 0;
}

void PeArray::tick_one(int p, sim::Cycle now) {
  Lane& lane = lanes_[p];
  // Order within a cycle mirrors the RTL stages back-to-front so each stage
  // consumes state its upstream produced in *earlier* cycles. Each stage is
  // entered only when it has something to act on.
  if (lane.pipe_size != 0) drain_pipeline(p, lane, now);
  if (lane.pair_size != 0) issue_pair(p, lane, now);
  if (lane.pass_active) stream_and_filter(p, lane);
  if (lane.retirable != 0) retire_references(p, lane);
  if (!lane.pass_active && !inputs_[p].empty()) reload_filters(p, lane);

  // Time utilization: the PE counts as functioning while a pass streams or
  // pairs are buffered or in flight.
  if (lane.pass_active || lane.pipe_size != 0 || lane.pair_size != 0) {
    ++lane.active_cycles;
  }
}

sim::Cycle PeArray::next_wake(sim::Cycle now) const {
  sim::Cycle wake = sim::kNeverCycle;
  active_.for_each_set(0, lanes_.size(), [&](std::size_t p) {
    const Lane& lane = lanes_[p];
    // A retirable reference means the arbiter acts (or keeps stalling on a
    // full output, which still re-evaluates every cycle).
    if (lane.pass_active || lane.pair_size != 0 || !inputs_[p].empty() ||
        lane.retirable > 0) {
      wake = now;
    } else if (lane.pipe_size != 0) {
      const PipelineEntry& head = pipeline_[p * pipe_cap_ + lane.pipe_head];
      wake = std::min(wake, std::max(head.completes_at, now));
    }
  });
  return wake;
}

void PeArray::skip_idle(sim::Cycle from, sim::Cycle to) {
  // Replays the bookkeeping `to - from` idle ticks accrue: one cycle of
  // capacity each, plus the end-of-tick active flag — true exactly while
  // in-flight pairs sit in the pipeline, the one sleepable state where tick
  // still counts the PE as functioning (a PE only sleeps on a non-empty
  // pipeline waiting for its head's completes_at, so the flag is constant
  // across the window).
  ticks_ += to - from;
  active_.for_each_set(0, lanes_.size(), [&](std::size_t p) {
    if (lanes_[p].pipe_size != 0) lanes_[p].active_cycles += to - from;
  });
}

void PeArray::drain_pipeline(int p, Lane& lane, sim::Cycle now) {
  PipelineEntry* pipe = &pipeline_[static_cast<std::size_t>(p) * pipe_cap_];
  while (lane.pipe_size != 0 && pipe[lane.pipe_head].completes_at <= now) {
    const PipelineEntry& e = pipe[lane.pipe_head];
    accumulate(lane, e.home_slot, e.force_on_home);
    RefState& r = pool_[lane.pool][e.ref];
    r.acc -= e.force_on_home;
    if (--r.pending == 0 && r.pass_done) ++lane.retirable;
    if (++lane.pipe_head == pipe_cap_) lane.pipe_head = 0;
    --lane.pipe_size;
  }
}

void PeArray::issue_pair(int p, Lane& lane, sim::Cycle now) {
  const PairCandidate c =
      pairs_[static_cast<std::size_t>(p) * pair_cap_ + lane.pair_head];
  if (++lane.pair_head == pair_cap_) lane.pair_head = 0;
  --lane.pair_size;
  const CellParticle& home = (*lane.home)[c.home_slot];
  const RefState& r = pool_[lane.pool][c.ref];
  assert(lane.pipe_size < pipe_cap_);
  std::uint32_t tail = lane.pipe_head + lane.pipe_size;
  if (tail >= pipe_cap_) tail -= pipe_cap_;
  PipelineEntry& e = pipeline_[static_cast<std::size_t>(p) * pipe_cap_ + tail];
  e.force_on_home =
      datapath_.pair_force(c.r2q, home.pos, home.elem, r.ref.pos, r.ref.elem);
  e.home_slot = c.home_slot;
  e.ref = c.ref;
  e.completes_at = now + static_cast<sim::Cycle>(config_.pipeline_latency);
  ++lane.pipe_size;
  if (PairProbe::hook) PairProbe::hook(home.id, r.ref, e.force_on_home);
  ++lane.pairs_issued;
}

void PeArray::stream_and_filter(int p, Lane& lane) {
  const auto num_filters = static_cast<std::uint64_t>(config_.num_filters);
  // Worst case every loaded filter accepts this cycle; only advance when the
  // buffer can take the burst (the hardware's filter-output backpressure).
  if (lane.pair_size + lane.loaded > config_.pair_buffer_depth) {
    lane.filter_util.record(0, num_filters, true);
    return;
  }
  const std::size_t bank = static_cast<std::size_t>(p) * filters_;
  const fixed::FixedVec3& home = (*lane.home)[lane.stream_index].pos;
  const std::uint32_t si = lane.stream_index;
  // The filter bank's verdicts for this home particle, worked out for a
  // run of up to 64 filters before any is acted on (acceptance is
  // data-dependent, so the mask keeps the compare out of the branch
  // predictor's way), then the run's accepted pairs in filter order. Each
  // accepted pair keeps the r² the filter computed for the force pipeline.
  PairCandidate* buffer = &pairs_[static_cast<std::size_t>(p) * pair_cap_];
  std::vector<RefState>& pool = pool_[lane.pool];
  for (std::uint32_t base = 0; base < lane.loaded; base += 64) {
    const std::uint32_t run = std::min<std::uint32_t>(lane.loaded - base, 64);
    std::uint64_t r2q[64];
    std::uint64_t accepted = 0;
    for (std::uint32_t f = 0; f < run; ++f) {
      const std::size_t slot = bank + base + f;
      r2q[f] = fixed::r2_fixed(filter_pos_[slot], home);
      const bool pass =
          (si >= filter_min_stream_[slot]) & datapath_.filter(r2q[f]);
      accepted |= static_cast<std::uint64_t>(pass) << f;
    }
    for (; accepted != 0; accepted &= accepted - 1) {
      const auto f = static_cast<std::uint32_t>(std::countr_zero(accepted));
      // `pending` counts from acceptance, not pipeline issue: a reference
      // must not retire while accepted pairs still wait in the buffer.
      const RefSlot ref = filter_ref_[bank + base + f];
      RefState& r = pool[ref];
      r.pending++;
      r.any_pair = true;
      std::uint32_t tail = lane.pair_head + lane.pair_size;
      if (tail >= pair_cap_) tail -= pair_cap_;
      buffer[tail] =
          PairCandidate{ref, static_cast<std::uint16_t>(si), r2q[f]};
      ++lane.pair_size;
    }
  }
  lane.filter_util.record(lane.loaded, num_filters, true);

  if (++lane.stream_index >= lane.home->size()) {
    // Pass complete: all loaded references start retiring.
    for (std::uint32_t f = 0; f < lane.loaded; ++f) {
      const RefSlot ref = filter_ref_[bank + f];
      RefState& r = pool_[lane.pool][ref];
      r.pass_done = true;
      if (r.pending == 0) ++lane.retirable;
      retiring_[p].push_back(ref);
    }
    lane.loaded = 0;
    lane.pass_active = false;
    lane.stream_index = 0;
  }
}

void PeArray::retire_references(int p, Lane& lane) {
  // At most one retirement per cycle (the FRN-side arbiter), oldest first.
  std::vector<RefSlot>& retiring = retiring_[p];
  std::vector<RefState>& pool = pool_[lane.pool];
  for (auto it = retiring.begin(); it != retiring.end(); ++it) {
    RefState& r = pool[*it];
    if (r.pending != 0) continue;  // every retiring reference is pass_done
    if (r.ref.is_home) {
      accumulate(lane, r.ref.home_index, r.acc);
    } else if (r.any_pair) {
      sim::Fifo<ring::ForceToken>& out = outputs_[p];
      if (!out.can_push()) return;  // stall, retry next cycle
      const ring::ForceToken token{r.ref.src_lcid, r.acc, r.ref.slot};
      if (RetireProbe::hook) RetireProbe::hook(token);
      out.push(token);
      output_pools_.set(static_cast<std::size_t>(lane.pool));
    } else {
      ++lane.zero_force_refs;
    }
    ++lane.refs_processed;
    --lane.retirable;
    release_ref(p, *it);
    retiring.erase(it);
    return;
  }
}

void PeArray::reload_filters(int p, Lane& lane) {
  sim::Fifo<RefSlot>& input = inputs_[p];
  if (lane.home->empty()) {
    // An empty home cell still receives broadcasts from its neighbours;
    // they pair with nothing and are discarded like any zero-force
    // reference, otherwise the node could never drain (§5.4).
    while (!input.empty()) {
      release_ref(p, input.pop());
      ++lane.zero_force_refs;
      ++lane.refs_processed;
    }
    return;
  }
  const std::size_t bank = static_cast<std::size_t>(p) * filters_;
  std::vector<RefState>& pool = pool_[lane.pool];
  while (lane.loaded < filters_ && !input.empty()) {
    const RefSlot slot = input.pop();
    const RefState& r = pool[slot];
    filter_ref_[bank + lane.loaded] = slot;
    filter_pos_[bank + lane.loaded] = r.ref.pos;
    // Home references pair only against later stream indices (each
    // intra-cell pair examined once); neighbours pair from index 0.
    filter_min_stream_[bank + lane.loaded] =
        r.ref.is_home ? static_cast<std::uint32_t>(r.ref.home_index) + 1u : 0u;
    ++lane.loaded;
  }
  if (lane.loaded != 0) {
    lane.pass_active = true;
    lane.stream_index = 0;
  }
}

bool PeArray::quiescent(int p) const {
  const Lane& lane = lanes_[p];
  return lane.loaded == 0 && retiring_[p].empty() && lane.pair_size == 0 &&
         lane.pipe_size == 0 && inputs_[p].total_occupancy() == 0 &&
         outputs_[p].total_occupancy() == 0;
}

void PeArray::reset_phase(int p) {
  lanes_[p].stream_index = 0;
  lanes_[p].pass_active = false;
}

}  // namespace fasda::pe
