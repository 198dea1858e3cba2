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

#include <cstdint>
#include <deque>
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

/// Where home-side forces land (the cell's FC bank); implemented by the CBB.
class ForceSink {
 public:
  virtual ~ForceSink() = default;
  /// Accumulates into FC[slot]; `fc_index` says which physical FC is
  /// written (one per PE), for resource accounting only.
  virtual void accumulate(std::uint16_t slot, const geom::Vec3f& force,
                          int fc_index) = 0;
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

class ProcessingElement : public sim::Component {
 public:
  /// `home` is the cell's particle array (the PC/HPC view this PE streams);
  /// it must outlive the PE and only change between force phases.
  ProcessingElement(std::string name, const PEConfig& config,
                    const md::Datapath& datapath,
                    const std::vector<CellParticle>* home, ForceSink* sink,
                    int fc_index);

  /// References in: the CBB dispatcher pushes here.
  sim::Fifo<Reference>& input() { return input_; }
  /// Retired neighbour forces out: the CBB arbiter pops from here.
  sim::Fifo<ring::ForceToken>& output() { return output_; }

  void tick(sim::Cycle now) override;

  /// Elision oracle: busy whenever a pass is streaming or anything is
  /// queued; an otherwise-empty PE with pairs in flight sleeps until the
  /// pipeline head completes (the only self-scheduled future event here).
  sim::Cycle next_wake(sim::Cycle now) const override;
  void skip_idle(sim::Cycle from, sim::Cycle to) override;

  /// No loaded references, empty pipeline/buffers, nothing retiring.
  bool quiescent() const;

  /// Begins a new force phase: home stream may have changed size.
  void reset_phase();

  const sim::UtilCounter& pe_util() const { return pe_util_; }
  const sim::UtilCounter& filter_util() const { return filter_util_; }
  std::uint64_t pairs_issued() const { return pairs_issued_; }
  std::uint64_t refs_processed() const { return refs_processed_; }
  std::uint64_t zero_force_refs() const { return zero_force_refs_; }

 private:
  /// Index into the reference slot pool. References used to be
  /// heap-allocated shared_ptr<RefState>; the pool plus the parallel
  /// position/min-stream arrays below keep the filter inner loop walking
  /// contiguous memory (struct-of-arrays hot state).
  using RefSlot = std::uint32_t;

  struct RefState {
    Reference ref;
    geom::Vec3f acc{};  ///< accumulated force on the reference
    int pending = 0;    ///< pairs still in the pipeline
    bool pass_done = false;
    bool any_pair = false;
  };

  struct PipelineEntry {
    RefSlot ref;
    std::uint16_t home_slot;
    geom::Vec3f force_on_home;
    sim::Cycle completes_at;
  };

  struct PairCandidate {
    RefSlot ref;
    std::uint16_t home_slot;
  };

  RefSlot alloc_ref();
  void release_ref(RefSlot slot);

  void drain_pipeline(sim::Cycle now);
  void issue_pair(sim::Cycle now);
  void stream_and_filter();
  void retire_references();
  void reload_filters();

  PEConfig config_;
  const md::Datapath& datapath_;
  const std::vector<CellParticle>* home_;
  ForceSink* sink_;
  int fc_index_;

  sim::Fifo<Reference> input_;
  sim::Fifo<ring::ForceToken> output_;

  std::vector<RefState> pool_;        ///< reference slot pool (grows on demand)
  std::vector<RefSlot> free_slots_;

  std::vector<RefSlot> filters_;      ///< loaded references
  // Hot mirrors of the loaded filters, walked every streaming cycle:
  // reference position and the first stream index it pairs with (home
  // references only pair below their own index).
  std::vector<fixed::FixedVec3> filter_pos_;
  std::vector<std::uint32_t> filter_min_stream_;

  std::vector<RefSlot> retiring_;
  std::size_t retirable_ = 0;  ///< retiring_ entries with no pairs pending
  std::deque<PairCandidate> pair_buffer_;
  std::deque<PipelineEntry> pipeline_;
  std::size_t stream_index_ = 0;
  bool pass_active_ = false;

  sim::UtilCounter pe_util_;
  sim::UtilCounter filter_util_;
  std::uint64_t pairs_issued_ = 0;
  std::uint64_t refs_processed_ = 0;
  std::uint64_t zero_force_refs_ = 0;
};

}  // namespace fasda::pe
