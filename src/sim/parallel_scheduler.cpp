#include "fasda/sim/parallel_scheduler.hpp"

namespace fasda::sim {

ParallelScheduler::ParallelScheduler(std::size_t threads) : pool_(threads) {}

void ParallelScheduler::run_cycle() {
  const Cycle now = cycle_;
  // Global components are two-phase like everything else, so ticking them
  // serially before the fan-out is just another valid order.
  for (Component* c : global_components_) c->tick(now);
  pool_.parallel_phases(
      groups_.size(),
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t s = begin; s < end; ++s) {
          for (Component* c : groups_[s].components) c->tick(now);
        }
      },
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t s = begin; s < end; ++s) commit_group(groups_[s]);
      });
  // Global clocked elements commit on the caller: the join above makes
  // every shard's staged writes visible here, and the serial sweep applies
  // them in a fixed (source-id) order.
  for (Clocked* c : global_clocked_) c->commit();
  ++cycle_;
}

void ParallelScheduler::run_cycle_elided() {
  const Cycle now = cycle_;
  const auto tick_or_skip = [now](Component* c) {
    if (c->sched_wake() <= now) {
      c->tick(now);
    } else {
      c->skip_idle(now, now + 1);
    }
  };
  for (Component* c : global_components_) tick_or_skip(c);
  pool_.parallel_phases(
      groups_.size(),
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t s = begin; s < end; ++s) {
          ShardGroup& g = groups_[s];
          if (g.wake > now) {
            // Sleeping shard: only the eager prefix replays bookkeeping
            // (its own node's heartbeat — same worker owns the shard).
            for (std::size_t i = 0; i < g.eager; ++i) {
              g.components[i]->skip_idle(now, now + 1);
            }
            continue;
          }
          if (g.hot) {
            // Busy-shard fast path: wake caches are stale (no sweep ran),
            // so tick everyone — the naive schedule for this shard.
            for (Component* c : g.components) c->tick(now);
            continue;
          }
          for (Component* c : g.components) tick_or_skip(c);
        }
      },
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t s = begin; s < end; ++s) {
          ShardGroup& g = groups_[s];
          if (g.wake > now) continue;  // nothing staged while asleep
          commit_group(g);
        }
      });
  for (Clocked* c : global_clocked_) c->commit();
  ++cycle_;
}

}  // namespace fasda::sim
