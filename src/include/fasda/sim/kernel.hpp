#pragma once
// Cycle-driven simulation kernel.
//
// One Scheduler cycle models one 200 MHz FPGA clock. Every cycle has two
// phases: all Components tick() (reading only state committed in earlier
// cycles, staging their writes), then all Clocked elements commit().
// Because reads never observe same-cycle writes, results are independent of
// the order components are ticked in — the same property RTL gets from
// edge-triggered registers.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fasda/obs/obs.hpp"

namespace fasda::sim {

using Cycle = std::uint64_t;

/// "No self-scheduled event": a component returning this from next_wake can
/// only be re-activated by another component's activity (which executes a
/// cycle and triggers a fresh wake sweep).
inline constexpr Cycle kNeverCycle = std::numeric_limits<Cycle>::max();

/// Anything with two-phase (staged) state.
class Clocked {
 public:
  virtual ~Clocked() = default;
  virtual void commit() = 0;

  /// Staging reports. An element that sees every write it stages (a Fifo's
  /// push) may accept `list`, a per-shard list it then appends itself to on
  /// its first staged write after each commit; the scheduler commits it from
  /// that list, only in cycles that staged something. Elements that return
  /// false are committed every executed cycle.
  virtual bool report_staging_to(std::vector<Clocked*>* /*list*/) {
    return false;
  }
};

/// Anything that does work each cycle.
class Component {
 public:
  explicit Component(std::string name) : name_(std::move(name)) {}
  virtual ~Component() = default;
  virtual void tick(Cycle now) = 0;

  /// Wake-time contract (DESIGN.md §13). Earliest cycle >= `now` at which
  /// tick() could change ANY observable state, judged from state committed
  /// through cycle now-1 — exactly what tick(now) would read. Must never
  /// over-predict: returning W means every tick in [now, W) is a no-op
  /// apart from the bookkeeping skip_idle replays. The scheduler re-sweeps
  /// after every executed cycle, so a component only needs to report its
  /// OWN pending work (`now`) or self-scheduled future events (timer
  /// expiry, in-flight packet arrival, barrier release, fault boundary);
  /// activation by another component's output is caught by the re-sweep.
  /// The default — always busy — opts a component out of elision safely.
  virtual Cycle next_wake(Cycle now) const {
    (void)now;
    return now;
  }

  /// Replays the bookkeeping `to - from` naive ticks would have accrued
  /// over a window the oracle declared inert (utilization capacity,
  /// heartbeat stamps). Implementations may rely only on the tick count and
  /// the window end: a straggler gate forwards a count-preserving
  /// sub-window for its open cycles.
  virtual void skip_idle(Cycle from, Cycle to) {
    (void)from;
    (void)to;
  }

  /// Eager idle bookkeeping (DESIGN.md §13). A component returning true
  /// gets its skip_idle replayed at every executed cycle and every window
  /// jump even while its whole shard sleeps, instead of being batched into
  /// one deferred window at shard wake-up. Opt in when the bookkeeping is
  /// read by outside observers mid-sleep — the node heartbeat feeding the
  /// watchdog is the one case.
  virtual bool eager_idle() const { return false; }

  const std::string& name() const { return name_; }

  /// Scheduler-managed cache of the last wake sweep; written on the driving
  /// thread between cycles, read during the tick fan-out. Not part of the
  /// component contract.
  Cycle sched_wake() const { return sched_wake_; }
  void set_sched_wake(Cycle w) { sched_wake_ = w; }

 private:
  std::string name_;
  Cycle sched_wake_ = 0;
};

/// Fixed-size bitset with ordered iteration over the set bits: the
/// activity masks of the flat datapath state (busy PEs, busy cells, occupied
/// ring slots).
class Bitset {
 public:
  explicit Bitset(std::size_t n = 0) : size_(n), words_((n + 63) / 64, 0) {}

  std::size_t size() const { return size_; }
  bool test(std::size_t i) const { return (words_[i / 64] >> (i % 64)) & 1u; }
  void set(std::size_t i) { words_[i / 64] |= std::uint64_t{1} << (i % 64); }
  void reset(std::size_t i) {
    words_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
  }
  void clear() { std::fill(words_.begin(), words_.end(), 0); }
  bool any() const {
    for (const std::uint64_t w : words_) {
      if (w != 0) return true;
    }
    return false;
  }

  /// Calls f(i) for each bit set in [lo, hi) when the call starts, in
  /// ascending order; f may clear bits.
  template <class F>
  void for_each_set(std::size_t lo, std::size_t hi, F&& f) const {
    if (lo >= hi) return;
    for (std::size_t w = lo / 64; w <= (hi - 1) / 64; ++w) {
      std::uint64_t bits = words_[w];
      if (w == lo / 64) bits &= ~std::uint64_t{0} << (lo % 64);
      if (w == (hi - 1) / 64 && hi % 64 != 0) {
        bits &= (std::uint64_t{1} << (hi % 64)) - 1;
      }
      for (; bits != 0; bits &= bits - 1) {
        f(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
  }

  /// Sets every bit set in `o` (same size) and clears `o`.
  void take(Bitset& o) {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      words_[w] |= o.words_[w];
      o.words_[w] = 0;
    }
  }

 private:
  std::size_t size_;
  std::vector<std::uint64_t> words_;
};

/// Single-phase bounded queue: one power-of-two circular buffer that grows
/// on demand (doubling) up to `capacity` items and is never sized to the
/// bound up front, so a queue that is never pushed allocates nothing. For
/// queues whose producer and consumer are ticked by the same component in a
/// fixed order, or whose producer always ticks after its consumer within a
/// cycle (where a staged push and a plain push are indistinguishable).
template <class T>
class Queue {
 public:
  explicit Queue(std::size_t capacity) : capacity_(capacity) {}

  bool can_push() const { return size_ < capacity_; }
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }

  /// Appends an item; returns false (and drops nothing) when full.
  bool push(T value) {
    if (!can_push()) return false;
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & mask_] = std::move(value);
    ++size_;
    return true;
  }

  /// Oldest item; the queue must not be empty.
  const T& front() const { return buf_[head_]; }
  T pop() {
    T v = std::move(buf_[head_]);
    head_ = (head_ + 1) & mask_;
    --size_;
    return v;
  }

 private:
  /// Called only when full: moves the occupied run to the start of a
  /// buffer twice the size.
  void grow() {
    std::vector<T> buf(buf_.empty() ? 4 : 2 * buf_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      buf[i] = std::move(buf_[(head_ + i) & mask_]);
    }
    buf_ = std::move(buf);
    mask_ = buf_.size() - 1;
    head_ = 0;
  }

  std::vector<T> buf_;     ///< empty or a power-of-two number of slots
  std::size_t mask_ = 0;   ///< buf_.size() - 1
  std::size_t head_ = 0;   ///< oldest item
  std::size_t size_ = 0;
  std::size_t capacity_;
};

/// Two-phase FIFO: push() stages (visible next cycle); pop()/front() operate
/// on the committed view. Intended for a single consumer per FIFO. Callers
/// must check empty() first; pop()/front() on an empty committed queue throw.
///
/// Storage is one Queue holding the committed items followed by the staged
/// ones, so commit() only moves the boundary.
template <class T>
class Fifo : public Clocked {
 public:
  explicit Fifo(std::size_t capacity) : items_(capacity) {}

  /// Space check against committed + staged occupancy.
  bool can_push() const { return items_.can_push(); }

  /// Stages an item; returns false (and drops nothing) when full.
  bool push(T value) {
    if (!items_.push(std::move(value))) return false;
    if (staged_ == 0 && staged_list_ != nullptr) staged_list_->push_back(this);
    ++staged_;
    return true;
  }

  bool empty() const { return items_.size() == staged_; }
  std::size_t size() const { return items_.size() - staged_; }
  std::size_t capacity() const { return items_.capacity(); }

  /// Committed + staged: used by drain/quiescence checks, not by datapaths.
  std::size_t total_occupancy() const { return items_.size(); }

  const T& front() const {
    if (empty()) throw std::logic_error("Fifo::front on empty committed queue");
    return items_.front();
  }

  T pop() {
    if (empty()) throw std::logic_error("Fifo::pop on empty committed queue");
    return items_.pop();
  }

  void commit() override { staged_ = 0; }

  bool report_staging_to(std::vector<Clocked*>* list) override {
    staged_list_ = list;
    return true;
  }

 private:
  Queue<T> items_;
  std::size_t staged_ = 0;  ///< pushes since the last commit, after the committed run
  std::vector<Clocked*>* staged_list_ = nullptr;  ///< see report_staging_to
};

/// Two-phase single-entry register. Writes land only into a slot that was
/// empty at cycle start (conservative handshake: a full slot must be cleared
/// one cycle before it can be refilled), which keeps behaviour independent
/// of component tick order. Rings own their hop slots collectively and do
/// not use this class.
template <class T>
class Reg : public Clocked {
 public:
  bool valid() const { return valid_; }
  const T& value() const { return value_; }

  bool can_write() const { return !valid_ && !write_staged_; }

  void write(T value) {
    if (!can_write()) throw std::logic_error("Reg overwrite");
    staged_value_ = std::move(value);
    write_staged_ = true;
  }

  void clear() { clear_staged_ = true; }

  void commit() override {
    if (clear_staged_) valid_ = false;
    if (write_staged_) {
      value_ = std::move(staged_value_);
      valid_ = true;
    }
    clear_staged_ = write_staged_ = false;
  }

 private:
  T value_{};
  T staged_value_{};
  bool valid_ = false;
  bool write_staged_ = false;
  bool clear_staged_ = false;
};

/// Utilization bookkeeping for Fig. 17. "Hardware utilization" is work done
/// relative to capacity while the whole run lasted; "time utilization" is
/// the fraction of cycles the component was active (pipeline possibly not
/// full, but functioning).
struct UtilCounter {
  std::uint64_t work = 0;
  std::uint64_t capacity = 0;
  std::uint64_t active_cycles = 0;

  void record(std::uint64_t done, std::uint64_t possible, bool active) {
    work += done;
    capacity += possible;
    active_cycles += active ? 1 : 0;
  }

  void merge(const UtilCounter& o) {
    work += o.work;
    capacity += o.capacity;
    active_cycles += o.active_cycles;
  }

  double hardware_utilization() const {
    return capacity == 0 ? 0.0
                         : static_cast<double>(work) / static_cast<double>(capacity);
  }

  double time_utilization(Cycle total_cycles, std::uint64_t instances = 1) const {
    const auto denom = total_cycles * instances;
    return denom == 0 ? 0.0
                      : static_cast<double>(active_cycles) /
                            static_cast<double>(denom);
  }
};

/// Shard tag for registration. Components of one FPGA node share one shard;
/// elements that are touched from more than one shard during a cycle (the
/// net::Fabric instances, for example) register as kGlobalShard and are
/// ticked/committed by the scheduler outside the sharded fan-out.
using ShardId = int;
inline constexpr ShardId kGlobalShard = -1;

/// Busy-shard fast path (DESIGN.md §13). A group that stays awake for
/// kHotStreak consecutive executed cycles without ever having slept is
/// marked hot: its per-cycle wake sweep (one next_wake call per member,
/// which costs more than the ticks it could save on a busy datapath) is
/// skipped and every member is ticked unconditionally — bitwise safe
/// because unconditional ticking is exactly the naive schedule. Every
/// kHotProbePeriod cycles the group is re-swept so a workload that goes
/// idle later is demoted and can sleep again; the probe bounds the elision
/// opportunity a hot group can hide to one period per demotion.
inline constexpr std::uint32_t kHotStreak = 4;
inline constexpr std::uint32_t kHotProbePeriod = 64;

/// How Scheduler::run_until drives the cluster.
///   kElide    — idle-cycle elision: skip globally-dead windows outright and
///               skip the tick of individually-idle components inside
///               executed cycles. Bitwise identical to kNaive by the
///               next_wake contract (DESIGN.md §13).
///   kNaive    — tick every component every cycle (the pre-elision loop and
///               the FASDA_NAIVE_TICK escape hatch).
///   kValidate — tick naively but audit the elision oracle each cycle:
///               counts cycles the oracle would have skipped (idle wakes)
///               and oracle violations (mispredicts, must stay zero).
enum class TickMode { kElide, kNaive, kValidate };

/// FASDA_NAIVE_TICK (set and not "0") overrides any configured mode with
/// kNaive — the environment escape hatch for bisecting elision bugs.
inline TickMode resolve_tick_mode(TickMode configured) {
  const char* env = std::getenv("FASDA_NAIVE_TICK");
  if (env != nullptr && env[0] != '\0' &&
      !(env[0] == '0' && env[1] == '\0')) {
    return TickMode::kNaive;
  }
  return configured;
}

/// Elision bookkeeping. Deliberately NOT published through the obs registry
/// on elided runs: metrics snapshots must stay bitwise identical between
/// naive and elided runs, so execution-shape counters live here and only
/// kValidate runs surface them as metrics (core::Simulation::publish).
struct ElisionStats {
  /// Cycles actually executed (tick fan-out ran).
  std::uint64_t executed_cycles = 0;
  /// Cycles skipped outright because every component slept past them.
  std::uint64_t elided_cycles = 0;
  /// Component-ticks skipped inside executed cycles (component slept while
  /// others ran).
  std::uint64_t component_idle_skips = 0;
  /// Shard-cycles spent asleep inside executed cycles: the whole shard's
  /// tick fan-out, wake sweep and commits were skipped (kElide only).
  std::uint64_t shard_sleep_cycles = 0;
  /// kValidate: executed cycles the oracle declared globally dead — naive
  /// ticks that "woke with no state change".
  std::uint64_t idle_wakes = 0;
  /// kValidate: sweeps inside a predicted-quiet window that reported an
  /// earlier wake — "state changed while skipped". Must be zero.
  std::uint64_t mispredicts = 0;
};

/// Serial cycle driver, and the interface parallel drivers implement.
/// Ticks every component in registration order, then commits every clocked
/// element. The two-phase contract makes results independent of tick order,
/// so subclasses are free to reorder or parallelize — see
/// sim/parallel_scheduler.hpp for the node-sharded implementation.
class Scheduler {
 public:
  Scheduler() = default;
  virtual ~Scheduler() = default;

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// `shard` is advisory: the serial scheduler ignores it; parallel
  /// schedulers run same-shard registrants on the same worker. (Non-virtual
  /// wrappers keep the default argument out of the virtual interface.)
  void add(Component* c, ShardId shard = kGlobalShard) { add_impl(c, shard); }
  void add_clocked(Clocked* c, ShardId shard = kGlobalShard) {
    add_clocked_impl(c, shard);
  }

  Cycle cycle() const { return cycle_; }

  /// Telemetry hub (nullable; null is the disabled path). Attach after
  /// registration is complete and never mid-run; run_until brackets each
  /// driving window in a scheduler-track span. Note nothing published here
  /// may depend on the worker count — traces and snapshots are bitwise
  /// identical across 1/2/4 workers, so the execution shape stays out of
  /// the registry.
  void set_obs(obs::Hub* hub) { obs_ = hub; }
  obs::Hub* obs() const { return obs_; }

  virtual void run_cycle() {
    for (Component* c : components_) c->tick(cycle_);
    for (ShardGroup& g : groups_) commit_group(g);
    for (Clocked* c : global_clocked_) c->commit();
    ++cycle_;
  }

  void set_tick_mode(TickMode mode) { mode_ = mode; }
  TickMode tick_mode() const { return mode_; }
  const ElisionStats& elision_stats() const { return stats_; }

  /// Cross-shard wake pokes (DESIGN.md §13). A sleeping shard is not
  /// re-swept after every executed cycle, so the two mechanisms that can
  /// activate a shard from outside must poke it explicitly:
  ///
  ///   wake_shard      — a fabric delivery to one node's endpoint. Fabric
  ///                     commits run single-threaded on the driving thread,
  ///                     so a plain min on the group wake is race-free.
  ///   wake_all_shards — a bulk-barrier release, computed under the barrier
  ///                     mutex on whichever worker ticked the last arriving
  ///                     node. Folds through an atomic that the elided loop
  ///                     drains before each sweep.
  ///
  /// Pokes may only shorten a sleep (spurious wakes are safe; the woken
  /// shard just re-sweeps and goes back down). Unknown shard ids and calls
  /// outside kElide are harmless no-ops.
  void wake_shard(ShardId shard, Cycle at) {
    if (shard < 0 || static_cast<std::size_t>(shard) >= groups_.size()) return;
    ShardGroup& g = groups_[static_cast<std::size_t>(shard)];
    if (at < g.wake) g.wake = at;
  }
  void wake_all_shards(Cycle at) {
    Cycle cur = poke_all_.load(std::memory_order_relaxed);
    while (at < cur && !poke_all_.compare_exchange_weak(
                           cur, at, std::memory_order_relaxed)) {
    }
  }

  /// External wake bound for run_until: earliest cycle at which the done()
  /// predicate could change outcome for reasons no component reports itself
  /// (in practice the watchdog trip deadline, which depends on heartbeat
  /// silence rather than on any component's own pending work).
  using ExternalWake = std::function<Cycle(Cycle)>;

  /// Runs until done() is true (checked between cycles) or the budget is
  /// exhausted; returns the cycle count at exit. Throws on budget overrun so
  /// deadlocks in the model fail loudly. When done() throws (watchdog, link
  /// degradation) the scheduler span stays open and is closed at the trace
  /// high-water mark by the next epoch or the export.
  ///
  /// Elision safety: done() is evaluated only between executed cycles and at
  /// skip-window boundaries. That is equivalent to the naive every-cycle
  /// check because done() reads only state that changes on executed cycles —
  /// except the watchdog silence clock, whose trip cycles the caller folds
  /// in through `external_wake` so windows never straddle a trip.
  Cycle run_until(const std::function<bool()>& done, Cycle max_cycles,
                  const ExternalWake& external_wake = {}) {
    if (obs_ != nullptr) {
      obs_->trace().begin(obs::kClusterShard, obs::kClusterPid,
                          obs::Comp::kScheduler, "run-until", cycle_);
    }
    switch (mode_) {
      case TickMode::kNaive:
        run_until_naive(done, max_cycles);
        break;
      case TickMode::kElide:
        run_until_elided(done, max_cycles, external_wake);
        break;
      case TickMode::kValidate:
        run_until_validate(done, max_cycles, external_wake);
        break;
    }
    if (obs_ != nullptr) {
      obs_->trace().end(obs::kClusterShard, obs::kClusterPid,
                        obs::Comp::kScheduler, cycle_);
      obs_->metrics().set(obs::kClusterNode,
                          obs_->metrics().gauge("sched.cycles"),
                          static_cast<double>(cycle_));
    }
    return cycle_;
  }

 protected:
  // ------------------------------------------------ elided-loop phases
  // run_until_elided's steps: begin-run, then per iteration a loop-top
  // sweep (returns the min wake over every group), either a window jump or
  // one executed cycle, and an exit flush.

  /// Arbitrary state may have changed since the last run (loaders, node
  /// arming), so mark every group awake for a total first sweep, and force
  /// the first hot probe.
  void begin_elided_run() {
    for (ShardGroup& g : groups_) {
      g.wake = cycle_;
      g.skip_from = kNeverCycle;
      g.idle = 0;
      g.probe_in = 0;
    }
    poke_all_.store(kNeverCycle, std::memory_order_relaxed);
  }

  /// Loop top at now == cycle_: drains pokes, sweeps global components,
  /// flushes and re-sweeps due groups (with the busy-shard fast path), opens
  /// deferred windows for groups that fall asleep, and returns the earliest
  /// wake over every group.
  Cycle elided_loop_top() {
    const Cycle now = cycle_;
    // Fold worker-thread pokes (barrier releases) into every group.
    const Cycle poke =
        poke_all_.exchange(kNeverCycle, std::memory_order_relaxed);
    if (poke != kNeverCycle) {
      for (ShardGroup& g : groups_) g.wake = std::min(g.wake, poke);
    }
    Cycle wake = kNeverCycle;
    for (Component* c : global_components_) {
      const Cycle w = c->next_wake(now);
      c->set_sched_wake(w);
      wake = std::min(wake, w);
    }
    for (ShardGroup& g : groups_) {
      if (g.hot) {
        if (g.probe_in == 0) {
          sweep_group(g, now);
          if (g.wake > now) {
            // Probe found the group idle: demote and let it sleep.
            g.hot = false;
            g.ever_slept = true;
            g.busy_streak = 0;
            g.skip_from = now;
          } else {
            g.probe_in = kHotProbePeriod;
          }
        } else {
          --g.probe_in;
          g.wake = now;  // hot groups never have a deferred window open
          g.idle = 0;
        }
      } else if (g.wake <= now) {
        flush_group_idle(g, now);
        sweep_group(g, now);
        if (g.wake > now) {  // falls asleep: open window
          g.skip_from = now;
          g.ever_slept = true;
          g.busy_streak = 0;
        } else if (!g.ever_slept && ++g.busy_streak >= kHotStreak) {
          g.hot = true;
          g.probe_in = kHotProbePeriod;
        }
      }
      wake = std::min(wake, g.wake);
    }
    return wake;
  }

  /// Jumps the clock over a globally dead window [cycle_, to): sleeping
  /// groups' deferred windows absorb it, only global components and the
  /// eager prefixes replay it directly.
  void jump_window(Cycle to) {
    const Cycle now = cycle_;
    for (Component* c : global_components_) c->skip_idle(now, to);
    for (ShardGroup& g : groups_) {
      for (std::size_t e = 0; e < g.eager; ++e) {
        g.components[e]->skip_idle(now, to);
      }
    }
    stats_.elided_cycles += to - now;
    cycle_ = to;
  }

  /// Executes one elided cycle: stats accounting over every group, then
  /// the selective tick/commit fan-out.
  void execute_elided_cycle() {
    for (const ShardGroup& g : groups_) {
      if (g.wake > cycle_) {
        stats_.component_idle_skips += g.components.size();
        ++stats_.shard_sleep_cycles;
      } else {
        stats_.component_idle_skips += g.idle;
      }
    }
    run_cycle_elided();
    ++stats_.executed_cycles;
  }

  /// One shard's slice of the registration, plus its sleep state. `wake` is
  /// the cached minimum of the members' swept wakes (folded with any poke);
  /// the group is awake when wake <= now. While a group sleeps its members
  /// are neither ticked, swept nor committed — their idle bookkeeping is
  /// deferred into one [skip_from, wake-cycle) window flushed when the
  /// group wakes, except the eager_idle() prefix, which is replayed every
  /// executed cycle and window jump (the watchdog reads node heartbeats
  /// from outside the shard mid-sleep).
  struct ShardGroup {
    std::vector<Component*> components;  // eager_idle() members first
    std::size_t eager = 0;               // length of the eager prefix
    std::vector<Clocked*> clocked;       // committed every executed cycle
    // Elements that staged a write since the group last committed (see
    // Clocked::report_staging_to). Heap-held so its address survives
    // groups_ reallocation.
    std::unique_ptr<std::vector<Clocked*>> staged =
        std::make_unique<std::vector<Clocked*>>();
    Cycle wake = 0;                      // cached group wake (<= now: awake)
    Cycle skip_from = kNeverCycle;       // deferred idle window start
    std::size_t idle = 0;                // sleepers at the last sweep (stats)
    // Busy-shard fast path: `hot` groups skip the per-cycle sweep and tick
    // every member; demoted by the periodic probe the moment a sweep finds
    // the group asleep. ever_slept gates promotion — a group that has ever
    // slept is elision-profitable and never goes hot.
    bool hot = false;
    bool ever_slept = false;
    std::uint32_t busy_streak = 0;
    std::uint32_t probe_in = 0;
  };

  virtual void add_impl(Component* c, ShardId shard) {
    components_.push_back(c);
    if (shard == kGlobalShard) {
      global_components_.push_back(c);
      return;
    }
    ShardGroup& g = group_at(shard);
    if (c->eager_idle()) {
      g.components.insert(
          g.components.begin() + static_cast<std::ptrdiff_t>(g.eager), c);
      ++g.eager;
    } else {
      g.components.push_back(c);
    }
  }
  virtual void add_clocked_impl(Clocked* c, ShardId shard) {
    if (shard == kGlobalShard) {
      global_clocked_.push_back(c);
      return;
    }
    ShardGroup& g = group_at(shard);
    if (!c->report_staging_to(g.staged.get())) g.clocked.push_back(c);
  }

  /// Commits one group: its every-cycle elements, then those that staged.
  static void commit_group(ShardGroup& g) {
    for (Clocked* c : g.clocked) c->commit();
    for (Clocked* c : *g.staged) c->commit();
    g.staged->clear();
  }

  ShardGroup& group_at(ShardId shard) {
    if (shard < 0) throw std::invalid_argument("Scheduler: bad shard id");
    if (static_cast<std::size_t>(shard) >= groups_.size()) {
      groups_.resize(static_cast<std::size_t>(shard) + 1);
    }
    return groups_[static_cast<std::size_t>(shard)];
  }

  /// One cycle of the elided fast path. Awake groups run the selective
  /// fan-out (tick components whose swept wake is due, replay single-cycle
  /// idle bookkeeping for the rest) and commit their clocked elements;
  /// sleeping groups replay only the eager prefix — no member can have
  /// writes staged, because the sweep that put the group to sleep ran after
  /// its last awake cycle's commits, so skipping the commits is exact.
  /// run_cycle() is left untouched for direct (test) callers.
  virtual void run_cycle_elided() {
    const Cycle now = cycle_;
    for (Component* c : global_components_) {
      if (c->sched_wake() <= now) {
        c->tick(now);
      } else {
        c->skip_idle(now, now + 1);
      }
    }
    for (ShardGroup& g : groups_) {
      if (g.wake > now) {
        for (std::size_t i = 0; i < g.eager; ++i) {
          g.components[i]->skip_idle(now, now + 1);
        }
        continue;
      }
      if (g.hot) {
        // Busy-shard fast path: the loop top skipped the sweep, so the
        // per-member wake caches are stale — tick everyone. That is the
        // naive schedule for this shard, hence bitwise identical.
        for (Component* c : g.components) c->tick(now);
        continue;
      }
      for (Component* c : g.components) {
        if (c->sched_wake() <= now) {
          c->tick(now);
        } else {
          c->skip_idle(now, now + 1);
        }
      }
    }
    for (ShardGroup& g : groups_) {
      if (g.wake > now) continue;
      commit_group(g);
    }
    for (Clocked* c : global_clocked_) c->commit();
    ++cycle_;
  }

  [[noreturn]] static void throw_budget_overrun() {
    throw std::runtime_error("Scheduler::run_until exceeded cycle budget");
  }

  void run_until_naive(const std::function<bool()>& done, Cycle max_cycles) {
    while (!done()) {
      if (cycle_ >= max_cycles) throw_budget_overrun();
      run_cycle();
      ++stats_.executed_cycles;
    }
  }

  /// Flat full sweep: every component's next_wake from post-commit state
  /// (what the next tick would read), cached on the component; returns the
  /// global minimum and counts components that sleep past `now`. The
  /// kValidate audit uses this — the elided path sweeps per group so
  /// sleeping shards cost nothing.
  Cycle sweep_wakes() {
    const Cycle now = cycle_;
    Cycle min_wake = kNeverCycle;
    for (Component* c : components_) {
      const Cycle w = c->next_wake(now);
      c->set_sched_wake(w);
      if (w < min_wake) min_wake = w;
      if (w > now) ++stats_.component_idle_skips;
    }
    return min_wake;
  }

  /// Re-sweeps one awake group from post-commit state, caching per-member
  /// wakes for the selective fan-out and the group minimum for the sleep
  /// decision.
  void sweep_group(ShardGroup& g, Cycle now) {
    Cycle min_wake = kNeverCycle;
    std::size_t idle = 0;
    for (Component* c : g.components) {
      const Cycle w = c->next_wake(now);
      c->set_sched_wake(w);
      if (w < min_wake) min_wake = w;
      if (w > now) ++idle;
    }
    g.wake = min_wake;
    g.idle = idle;
  }

  /// Flushes a waking group's deferred idle window: one count-preserving
  /// skip_idle over every cycle the group slept through, for the non-eager
  /// members (the eager prefix was replayed cycle-by-cycle all along).
  void flush_group_idle(ShardGroup& g, Cycle now) {
    if (g.skip_from == kNeverCycle) return;
    if (g.skip_from < now) {
      for (std::size_t i = g.eager; i < g.components.size(); ++i) {
        g.components[i]->skip_idle(g.skip_from, now);
      }
    }
    g.skip_from = kNeverCycle;
  }

  /// Settles every open deferred window at run_until exit (normal or
  /// unwinding), so utilization counters observed after the run match the
  /// naive schedule exactly.
  void flush_deferred_idle() {
    for (ShardGroup& g : groups_) flush_group_idle(g, cycle_);
  }

  void run_until_elided(const std::function<bool()>& done, Cycle max_cycles,
                        const ExternalWake& external_wake) {
    begin_elided_run();
    try {
      while (!done()) {
        if (cycle_ >= max_cycles) throw_budget_overrun();
        const Cycle now = cycle_;
        Cycle wake = elided_loop_top();
        if (external_wake) wake = std::min(wake, external_wake(now));
        if (wake > now) {
          // Globally dead window [now, wake): no ticks can change state, so
          // jump. Clamping to the budget keeps the overrun throw at the
          // same cycle the naive loop would reach it.
          jump_window(std::min(wake, max_cycles));
          continue;
        }
        execute_elided_cycle();
      }
    } catch (...) {
      flush_deferred_idle();
      throw;
    }
    flush_deferred_idle();
  }

  void run_until_validate(const std::function<bool()>& done, Cycle max_cycles,
                          const ExternalWake& external_wake) {
    // Audits the component oracle alone: external_wake only ever shortens
    // skip windows, so it cannot mask a mispredict and stays out of the
    // predicted-quiet horizon.
    (void)external_wake;
    Cycle quiet_until = cycle_;
    while (!done()) {
      if (cycle_ >= max_cycles) throw_budget_overrun();
      const Cycle wake = sweep_wakes();
      if (cycle_ < quiet_until && wake <= cycle_) ++stats_.mispredicts;
      if (wake > cycle_) {
        ++stats_.idle_wakes;
        if (wake > quiet_until) quiet_until = wake;
      }
      run_cycle();
      ++stats_.executed_cycles;
    }
  }

  // Flat registration order — the naive and validate paths tick these, and
  // sweep_wakes audits over them.
  std::vector<Component*> components_;
  // Sharded view — the elided paths (serial and parallel) drive these.
  std::vector<ShardGroup> groups_;  // indexed by ShardId
  std::vector<Component*> global_components_;
  std::vector<Clocked*> global_clocked_;
  /// Pending wake_all_shards poke (kNeverCycle = none); written by workers,
  /// drained by the driving thread before each sweep.
  std::atomic<Cycle> poke_all_{kNeverCycle};
  Cycle cycle_ = 0;
  obs::Hub* obs_ = nullptr;
  TickMode mode_ = TickMode::kNaive;
  ElisionStats stats_;
};

}  // namespace fasda::sim
