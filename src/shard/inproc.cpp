// In-process shard transport: every shard in one address space, driven by
// Scheduler::run_until. This is the historical core::Simulation::run loop
// moved behind the ShardTransport interface, byte for byte — the serial and
// thread-parallel schedulers both live behind it, so "1 thread" and "N
// threads" are the same transport.

#include <algorithm>
#include <memory>

#include "fasda/shard/transport.hpp"

namespace fasda::shard {

namespace {

class InProcTransport final : public ShardTransport {
 public:
  explicit InProcTransport(ClusterRefs refs) : r_(refs) {}

  const char* kind() const override { return "inproc"; }
  int num_procs() const override { return 0; }
  sim::Cycle cycle() const override { return r_.scheduler->cycle(); }
  const ClusterFold* fold() const override { return nullptr; }
  const sim::ElisionStats& elision_stats() const override {
    return r_.scheduler->elision_stats();
  }

  void run(int iterations, const RunLimits& limits) override {
    const auto& nodes = *r_.nodes;
    const sim::Cycle start = r_.scheduler->cycle();
    for (const auto& node : nodes) {
      node->start(iterations);
    }
    const sim::Cycle budget =
        start + limits.max_cycles_per_iteration *
                    static_cast<sim::Cycle>(iterations);
    // Elision windows must not sail past the cycle where the watchdog would
    // fire: a crashed node's heartbeat freezes while every surviving
    // component sleeps, so the deadline is external to the component
    // oracle. Live nodes' heartbeats advance through skips, pushing the
    // bound ahead.
    sim::Scheduler::ExternalWake watchdog_bound;
    if (limits.watchdog_budget > 0) {
      watchdog_bound = [this, &limits](sim::Cycle) {
        sim::Cycle bound = sim::kNeverCycle;
        for (const auto& node : *r_.nodes) {
          if (node->done()) continue;
          bound = std::min(bound,
                           node->last_heartbeat() + limits.watchdog_budget + 1);
        }
        return bound;
      };
    }
    r_.scheduler->run_until(
        [&] {
          // Evaluated on the caller's thread between cycles (workers idle),
          // so reading node state here is race-free and throwing is safe.
          const sim::Cycle now = r_.scheduler->cycle();
          if (limits.fault_aware) {
            for (const auto& node : nodes) {
              if (auto deg = node->degraded_link()) {
                const auto& peer =
                    nodes.at(static_cast<std::size_t>(deg->first.dst));
                const sim::Cycle silent = now - peer->last_heartbeat();
                if (!peer->done() && silent > kNodeSilenceSlack) {
                  throw sync::NodeFailureError(peer->id(), peer->phase_name(),
                                               silent, now);
                }
                throw sync::DegradedLinkError(deg->first, deg->second);
              }
            }
          }
          if (limits.watchdog_budget > 0) {
            for (const auto& node : nodes) {
              if (node->done()) continue;
              const sim::Cycle silent = now - node->last_heartbeat();
              if (silent > limits.watchdog_budget) {
                throw sync::NodeFailureError(node->id(), node->phase_name(),
                                             silent, now);
              }
            }
          }
          for (const auto& node : nodes) {
            if (!node->done()) return false;
          }
          return true;
        },
        budget, watchdog_bound);
  }

 private:
  ClusterRefs r_;
};

}  // namespace

std::unique_ptr<ShardTransport> make_inproc_transport(ClusterRefs refs) {
  return std::make_unique<InProcTransport>(refs);
}

}  // namespace fasda::shard
