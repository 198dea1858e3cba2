#pragma once
// The Processing Element (§3.3-3.4, Fig. 6).
//
// Pipeline organization modelled per the paper:
//   * A bank of `num_filters` filters (default 6) shares one home position
//     streamed per cycle from the cell's position cache — one BRAM read,
//     broadcast, so six pair candidates are examined per cycle.
//   * Each filter holds one reference particle: an incoming neighbour
//     position dispatched from the PRN, or a home particle for intra-cell
//     pairs (stream-index > own-index keeps each home pair unique).
//   * Accepted pairs are buffered and arbitrated into the force pipeline
//     (one pair per cycle, fixed latency, fully pipelined). The home half of
//     the result accumulates straight into the Force Cache; the negated
//     neighbour half accumulates in the reference's register.
//   * When a pass over the home stream completes and a reference's last
//     pairs have drained from the pipeline, the reference retires: home
//     references fold their register into the FC, neighbour references emit
//     a ForceToken for the force ring. References whose pairs all failed
//     the filter produce no token (zero forces are discarded, §5.4).
//
// Backpressure: the stream only advances when the pair buffer can absorb a
// worst-case burst (all loaded filters accepting), and retirement emits at
// most one token per cycle into the CBB's arbiter FIFO.
//
// All PEs of one node live in one PeArray: per-PE scalar state in one
// array, and the filter banks, pair buffers and force pipelines in flat
// arrays with a fixed per-PE stride sized from PEConfig at construction.
// A reference is stored once, in the reference pool its SPE's PEs share,
// from the moment the CBB receives it until it retires; the CBB's queues
// and the PE input FIFOs carry pool slots. The PEs are not scheduled
// components; their owner (cbb::CellArray) ticks them in its own pass.

#include <cstdint>
#include <functional>
#include <vector>

#include "fasda/md/datapath.hpp"
#include "fasda/ring/tokens.hpp"
#include "fasda/sim/kernel.hpp"

namespace fasda::pe {

/// One particle as stored in a cell's caches (PC slot + VC slot + element).
struct CellParticle {
  fixed::FixedVec3 pos;  ///< in-cell offset, RCID = 2 frame
  geom::Vec3f vel;       ///< Å/fs
  md::ElementId elem = 0;
  std::uint32_t id = 0;  ///< global particle id
};

/// A reference particle waiting for (or loaded into) a filter.
struct Reference {
  fixed::FixedVec3 pos;  ///< rebased into the home cell's frame (RCID 1..3)
  md::ElementId elem = 0;
  bool is_home = false;
  std::uint16_t home_index = 0;  ///< own stream index when is_home
  geom::IVec3 src_lcid;          ///< neighbour refs: force-return address
  std::uint16_t slot = 0;        ///< particle slot in the source cell
};

struct PEConfig {
  int num_filters = 6;
  int pipeline_latency = 40;        ///< cycles from pair issue to FC write
  std::size_t pair_buffer_depth = 16;
  std::size_t input_queue_depth = 16;   ///< references from the dispatcher
  std::size_t output_queue_depth = 8;   ///< retired neighbour-force tokens
};

/// Test-only global probe: observes every pair issued into any force
/// pipeline (home particle id, the reference, and the computed force on the
/// home particle). Used by equivalence tests to diff pair multisets against
/// a golden enumeration; never set in production runs.
struct PairProbe {
  using Fn = std::function<void(std::uint32_t home_id, const Reference& ref,
                                const geom::Vec3f& force_on_home)>;
  static Fn hook;
};

/// Test-only global probe observing every neighbour-force token emitted at
/// reference retirement (before it enters the force ring).
struct RetireProbe {
  using Fn = std::function<void(const ring::ForceToken& token)>;
  static Fn hook;
};

/// Test-only global probe observing every Force Cache write: the owning
/// cell, target slot, value, and source (fc index for PE-side writes, -1 for
/// force-ring deliveries). Never set in production runs.
struct FcProbe {
  using Fn = std::function<void(const geom::IVec3& gcell, std::uint16_t slot,
                                const geom::Vec3f& force, int source)>;
  static Fn hook;
};

/// The Force Cache bank a PE writes its home-side forces into: one
/// fixed-point accumulator per home slot, owned by the cell.
struct ForceCache {
  std::vector<fixed::ForceAccum>* slots = nullptr;
  geom::IVec3 gcell;  ///< owning cell, for FcProbe
  int fc_index = 0;   ///< which physical FC is written (resource accounting)
};

class PeArray {
 public:
  /// Index of a reference in a reference pool.
  using RefSlot = std::uint32_t;

  /// `count` PEs; each run of `pes_per_pool` consecutive PEs (one SPE)
  /// shares a reference pool.
  PeArray(const PEConfig& config, const md::Datapath& datapath, int count,
          int pes_per_pool);

  PeArray(const PeArray&) = delete;
  PeArray& operator=(const PeArray&) = delete;

  /// Binds PE `p` to the home particle array it streams (the PC/HPC view;
  /// it must outlive the array and only change between force phases) and
  /// the FC bank it accumulates into.
  void bind(int p, const std::vector<CellParticle>* home, ForceCache fc);

  int size() const { return static_cast<int>(lanes_.size()); }

  /// Stores `ref` in pool `pool` until it retires; the slot is what the
  /// CBB queues and dispatches.
  RefSlot alloc_ref(int pool, const Reference& ref);

  /// References in (pool slots of the PE's pool): the CBB dispatcher
  /// pushes here, through push_input.
  bool push_input(int p, RefSlot ref) {
    if (!inputs_[p].push(ref)) return false;
    active_.set(static_cast<std::size_t>(p));
    return true;
  }
  sim::Fifo<RefSlot>& input(int p) { return inputs_[p]; }
  /// Retired neighbour forces out: the CBB arbiter pops from here.
  sim::Fifo<ring::ForceToken>& output(int p) { return outputs_[p]; }
  const sim::Fifo<ring::ForceToken>& output(int p) const { return outputs_[p]; }

  /// The input and output FIFOs of every PE, for scheduler registration.
  void append_clocked(std::vector<sim::Clocked*>& out);

  /// One cycle of every PE. Only the PEs with work (the active set) are
  /// visited; an idle PE's tick only adds capacity, which all PEs share.
  void tick(sim::Cycle now);

  /// Elision oracle over every PE: busy whenever a pass is streaming or
  /// anything is queued; a PE with only pairs in flight sleeps until its
  /// pipeline head completes (the only self-scheduled future event here).
  sim::Cycle next_wake(sim::Cycle now) const;
  void skip_idle(sim::Cycle from, sim::Cycle to);

  /// Pools (SPEs) whose PEs pushed a retired force into their output FIFO
  /// since the last take; the CBB arbiter's work list.
  sim::Bitset& output_pools() { return output_pools_; }

  /// No loaded references, empty pipeline/buffers, nothing retiring.
  bool quiescent(int p) const;
  /// Some PE may have work (a PE outside the active set is quiescent but
  /// for its output FIFO).
  bool any_active() const { return active_.any(); }

  /// Begins a new force phase: home stream may have changed size.
  void reset_phase(int p);

  /// Work is pairs issued; every PE's capacity is one pair per cycle.
  sim::UtilCounter pe_util(int p) const {
    return {lanes_[p].pairs_issued, ticks_, lanes_[p].active_cycles};
  }
  const sim::UtilCounter& filter_util(int p) const {
    return lanes_[p].filter_util;
  }
  std::uint64_t pairs_issued(int p) const { return lanes_[p].pairs_issued; }
  std::uint64_t refs_processed(int p) const { return lanes_[p].refs_processed; }
  std::uint64_t zero_force_refs(int p) const {
    return lanes_[p].zero_force_refs;
  }

 private:
  struct RefState {
    Reference ref;
    geom::Vec3f acc{};  ///< accumulated force on the reference
    int pending = 0;    ///< pairs accepted but not yet out of the pipeline
    bool pass_done = false;
    bool any_pair = false;
  };

  /// An accepted pair, carrying the r² the filter computed for it.
  struct PairCandidate {
    RefSlot ref;
    std::uint16_t home_slot;
    std::uint64_t r2q;
  };

  struct PipelineEntry {
    RefSlot ref;
    std::uint16_t home_slot;
    geom::Vec3f force_on_home;
    sim::Cycle completes_at;
  };

  /// A PE's scalar state. Its filter bank, pair buffer and pipeline are
  /// the PE's stride of the flat arrays below; the buffer and pipeline are
  /// circular (head + size).
  struct Lane {
    int pool = 0;  ///< the SPE's reference pool
    const std::vector<CellParticle>* home = nullptr;
    ForceCache fc;
    std::uint32_t loaded = 0;        ///< filters holding a reference
    std::uint32_t stream_index = 0;  ///< next home particle of the pass
    bool pass_active = false;
    std::uint32_t pair_head = 0, pair_size = 0;
    std::uint32_t pipe_head = 0, pipe_size = 0;
    std::uint32_t retirable = 0;  ///< retiring refs with no pairs pending
    std::uint64_t active_cycles = 0;  ///< ticks ending with work in flight
    sim::UtilCounter filter_util;
    std::uint64_t pairs_issued = 0;
    std::uint64_t refs_processed = 0;
    std::uint64_t zero_force_refs = 0;
  };

  void tick_one(int p, sim::Cycle now);
  bool idle(int p) const;
  void drain_pipeline(int p, Lane& lane, sim::Cycle now);
  void issue_pair(int p, Lane& lane, sim::Cycle now);
  void stream_and_filter(int p, Lane& lane);
  void retire_references(int p, Lane& lane);
  void reload_filters(int p, Lane& lane);
  void accumulate(const Lane& lane, std::uint16_t slot, const geom::Vec3f& f);

  void release_ref(int p, RefSlot slot);

  PEConfig config_;
  const md::Datapath& datapath_;
  std::uint32_t filters_;     ///< filter slots per PE
  std::uint32_t pair_cap_;    ///< pair buffer slots per PE
  std::uint32_t pipe_cap_;    ///< pipeline slots per PE
  int pes_per_pool_;

  std::vector<Lane> lanes_;
  sim::Bitset active_;        ///< PEs that may have work
  sim::Bitset output_pools_;  ///< see output_pools()
  std::uint64_t ticks_ = 0;   ///< cycles ticked or skipped: PE capacity
  std::vector<sim::Fifo<RefSlot>> inputs_;
  std::vector<sim::Fifo<ring::ForceToken>> outputs_;

  // Filter banks, `filters_` slots per PE: the loaded reference's position
  // and pool slot, and the first stream index it pairs with (home
  // references only pair above their own index).
  std::vector<fixed::FixedVec3> filter_pos_;
  std::vector<std::uint32_t> filter_min_stream_;
  std::vector<RefSlot> filter_ref_;

  std::vector<PairCandidate> pairs_;      ///< pair_cap_ per PE
  std::vector<PipelineEntry> pipeline_;  ///< pipe_cap_ per PE

  // Reference pools (grow on demand; freed slots are reused last-in
  // first-out, which keeps the live references in few cache lines), per
  // pool. The retiring lists, per PE.
  std::vector<std::vector<RefState>> pool_;
  std::vector<std::vector<RefSlot>> free_slots_;
  std::vector<std::vector<RefSlot>> retiring_;
};

}  // namespace fasda::pe
