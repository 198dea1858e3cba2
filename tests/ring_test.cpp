#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <utility>

#include "fasda/ring/ring.hpp"

namespace fasda::ring {
namespace {

// A trivial token: value + destination station + optional multicast count.
struct Tok {
  int value = 0;
  int dest = -1;        // -1: nobody consumes
  int multicast = 1;    // deliveries before dropping
};

class TestStation {
 public:
  TestStation(int id, std::size_t fifo_depth = 16)
      : id_(id), inject(fifo_depth), delivered() {}

  Action classify(const Tok& t) const {
    if (t.dest != id_) return Action::kPass;
    return t.multicast <= 1 ? Action::kDeliverAndDrop : Action::kDeliver;
  }

  bool try_deliver(Tok& t) {
    if (blocked) return false;
    delivered.push_back(t.value);
    t.multicast--;
    return true;
  }

  int id_;
  sim::Fifo<Tok> inject;
  std::vector<int> delivered;
  bool blocked = false;
};

// The ring's station set over per-station test objects: slot i asks
// station i.
template <class S>
struct StationSet {
  std::vector<S*> stations;
  Action classify(std::size_t i, const Tok& t) const {
    return stations[i]->classify(t);
  }
  bool try_deliver(std::size_t i, Tok& t) { return stations[i]->try_deliver(t); }
};

/// The set over `stations` and their injection FIFOs, in station order.
template <class S>
std::pair<StationSet<S>, std::vector<sim::Fifo<Tok>*>> station_set(
    const std::vector<std::unique_ptr<S>>& stations) {
  StationSet<S> set;
  std::vector<sim::Fifo<Tok>*> sources;
  for (const auto& s : stations) {
    set.stations.push_back(s.get());
    sources.push_back(&s->inject);
  }
  return {std::move(set), std::move(sources)};
}

struct RingHarness {
  explicit RingHarness(int n) {
    for (int i = 0; i < n; ++i) stations.push_back(std::make_unique<TestStation>(i));
    auto [set, sources] = station_set(stations);
    ring = std::make_unique<Ring<Tok, StationSet<TestStation>>>(
        "test", std::move(set), std::move(sources));
    scheduler.add(ring.get());
    scheduler.add_clocked(ring.get());
  }
  void run(int cycles) {
    for (int i = 0; i < cycles; ++i) scheduler.run_cycle();
  }
  std::vector<std::unique_ptr<TestStation>> stations;
  std::unique_ptr<Ring<Tok, StationSet<TestStation>>> ring;
  sim::Scheduler scheduler;
};

TEST(Ring, DeliversUnicastToken) {
  RingHarness h(5);
  h.stations[0]->inject.push(Tok{42, 3, 1});
  h.run(10);
  ASSERT_EQ(h.stations[3]->delivered.size(), 1u);
  EXPECT_EQ(h.stations[3]->delivered[0], 42);
  EXPECT_EQ(h.ring->occupancy(), 0u) << "token dropped after delivery";
}

TEST(Ring, HopLatencyIsOneCyclePerStation) {
  RingHarness h(5);
  h.stations[0]->inject.push(Tok{1, 3, 1});
  // The push commits at the end of cycle 0, the token enters slot 0 in
  // cycle 1, hops once per cycle (2, 3, 4) and is delivered by station 3's
  // classify in cycle 5.
  h.run(5);
  EXPECT_TRUE(h.stations[3]->delivered.empty());
  h.run(1);
  EXPECT_EQ(h.stations[3]->delivered.size(), 1u);
}

TEST(Ring, WrapsAround) {
  RingHarness h(4);
  h.stations[2]->inject.push(Tok{7, 0, 1});  // 2 -> 3 -> 0
  h.run(10);
  ASSERT_EQ(h.stations[0]->delivered.size(), 1u);
}

TEST(Ring, MulticastVisitsAllDestinations) {
  // dest == id matching can't express multicast to distinct stations, so use
  // a token addressed to consecutive stations via repeated inject. Instead,
  // test the counter path: a token with multicast=2 destined to station 1 on
  // a 3-ring passes twice.
  RingHarness h(3);
  h.stations[0]->inject.push(Tok{9, 1, 2});
  h.run(10);
  EXPECT_EQ(h.stations[1]->delivered.size(), 2u)
      << "kDeliver keeps the token circulating until the counter empties";
  EXPECT_EQ(h.ring->occupancy(), 0u);
}

TEST(Ring, BlockedStationStallsToken) {
  RingHarness h(4);
  h.stations[2]->blocked = true;
  h.stations[0]->inject.push(Tok{5, 2, 1});
  h.run(10);
  EXPECT_TRUE(h.stations[2]->delivered.empty());
  EXPECT_EQ(h.ring->occupancy(), 1u) << "token waits at the blocked station";
  h.stations[2]->blocked = false;
  h.run(2);
  EXPECT_EQ(h.stations[2]->delivered.size(), 1u);
}

TEST(Ring, BackpressurePropagatesBehindStall) {
  RingHarness h(4);
  h.stations[2]->blocked = true;
  // Fill the ring behind the stalled token: three tokens jam slots 2, 1, 0;
  // the fourth cannot inject while slot 0 is occupied.
  for (int i = 0; i < 4; ++i) h.stations[0]->inject.push(Tok{i, 2, 1});
  h.run(20);
  EXPECT_EQ(h.ring->occupancy(), 3u);
  EXPECT_EQ(h.stations[0]->inject.size(), 1u);
  h.stations[2]->blocked = false;
  h.run(20);
  EXPECT_EQ(h.stations[2]->delivered.size(), 4u);
  EXPECT_EQ(h.ring->occupancy(), 0u);
}

TEST(Ring, FullRingRotates) {
  // All four slots occupied by tokens nobody consumes: they must keep
  // rotating (no artificial deadlock), occupancy stays 4.
  RingHarness h(4);
  for (int i = 0; i < 4; ++i) h.stations[i]->inject.push(Tok{i, -1, 1});
  h.run(50);
  EXPECT_EQ(h.ring->occupancy(), 4u);
}

TEST(Ring, ManyTokensAllDelivered) {
  RingHarness h(6);
  int expected = 0;
  for (int src = 0; src < 6; ++src) {
    for (int k = 0; k < 10; ++k) {
      h.stations[src]->inject.push(Tok{src * 100 + k, (src + 3) % 6, 1});
      ++expected;
    }
  }
  h.run(300);
  int delivered = 0;
  for (auto& s : h.stations) delivered += static_cast<int>(s->delivered.size());
  EXPECT_EQ(delivered, expected);
  EXPECT_EQ(h.ring->occupancy(), 0u);
}

TEST(Ring, UtilizationTracksOccupancy) {
  RingHarness h(4);
  h.run(10);
  EXPECT_DOUBLE_EQ(h.ring->util().hardware_utilization(), 0.0);
  for (int i = 0; i < 4; ++i) h.stations[i]->inject.push(Tok{i, -1, 1});
  h.run(10);
  EXPECT_GT(h.ring->util().hardware_utilization(), 0.0);
  EXPECT_GT(h.ring->util().time_utilization(h.scheduler.cycle()), 0.0);
}


// ------------------------------------------------- differential vs relaxation

// Reference model: the movement rule as a can-move relaxation iterated to a
// fixpoint over a scratch copy of the slots. Phases 1 and 3 are the Ring's;
// only phase 2 differs in method, never in outcome.
template <class T, class Stations>
class RelaxationRing : public sim::Component, public sim::Clocked {
 public:
  using Slot = typename Ring<T, Stations>::Slot;

  RelaxationRing(std::string name, Stations stations,
                 std::vector<sim::Fifo<T>*> sources)
      : Component(std::move(name)),
        stations_(std::move(stations)),
        sources_(std::move(sources)),
        slots_(sources_.size()) {}

  const std::optional<Slot>& slot(std::size_t i) const { return slots_[i]; }
  const sim::UtilCounter& util() const { return util_; }

  void commit() override {
    for (sim::Fifo<T>* src : sources_) {
      if (src != nullptr) src->commit();
    }
  }

  void tick(sim::Cycle) override {
    const std::size_t n = slots_.size();
    std::vector<bool> wants_move(n, false);
    std::size_t occupied = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!slots_[i]) continue;
      ++occupied;
      Slot& slot = *slots_[i];
      if (slot.delivered_here) {
        wants_move[i] = true;
        continue;
      }
      switch (stations_.classify(i, slot.token)) {
        case Action::kPass:
          wants_move[i] = true;
          break;
        case Action::kDeliver:
          if (stations_.try_deliver(i, slot.token)) {
            slot.delivered_here = true;
            wants_move[i] = true;
          }
          break;
        case Action::kDeliverAndDrop:
          if (stations_.try_deliver(i, slot.token)) slots_[i].reset();
          break;
        case Action::kDrop:
          slots_[i].reset();
          break;
      }
    }
    util_.record(occupied, n, occupied > 0);

    std::vector<bool> can_move = wants_move;
    for (std::size_t pass = 0; pass < n; ++pass) {
      bool changed = false;
      for (std::size_t i = 0; i < n; ++i) {
        if (!can_move[i]) continue;
        const std::size_t next = (i + 1) % n;
        if (slots_[next] && !can_move[next]) {
          can_move[i] = false;
          changed = true;
        }
      }
      if (!changed) break;
    }
    std::vector<std::optional<Slot>> moved(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (!slots_[i]) continue;
      if (can_move[i]) {
        slots_[i]->delivered_here = false;
        moved[(i + 1) % n] = std::move(slots_[i]);
      } else {
        moved[i] = std::move(slots_[i]);
      }
    }
    slots_.swap(moved);

    for (std::size_t i = 0; i < n; ++i) {
      if (slots_[i]) continue;
      sim::Fifo<T>* src = sources_[i];
      if (src != nullptr && !src->empty()) slots_[i] = Slot{src->pop()};
    }
  }

 private:
  Stations stations_;
  std::vector<sim::Fifo<T>*> sources_;
  std::vector<std::optional<Slot>> slots_;
  sim::UtilCounter util_;
};

using DeliveryLog = std::vector<std::pair<int, int>>;  // (station, value)

// A station that refuses deliveries with a fixed probability from its own
// seeded stream, or always while `blocked`, and logs every acceptance in
// ring-wide order.
class RandomStation {
 public:
  RandomStation(int id, std::uint64_t seed, int refuse_percent, DeliveryLog* log)
      : id_(id), rng_(seed), refuse_percent_(refuse_percent), log_(log),
        inject(8) {}

  Action classify(const Tok& t) const {
    if (t.dest != id_) return Action::kPass;
    return t.multicast <= 1 ? Action::kDeliverAndDrop : Action::kDeliver;
  }

  bool try_deliver(Tok& t) {
    if (blocked) return false;
    if (static_cast<int>(rng_() % 100) < refuse_percent_) return false;
    log_->emplace_back(id_, t.value);
    t.multicast--;
    return true;
  }

  int id_;
  std::mt19937_64 rng_;
  int refuse_percent_;
  DeliveryLog* log_;
  sim::Fifo<Tok> inject;
  bool blocked = false;
};

// One ring under test plus its stations, clocked by its own scheduler.
template <class R>
struct DiffSide {
  DiffSide(int n, std::uint64_t seed, const std::vector<int>& refuse_percent) {
    for (int i = 0; i < n; ++i) {
      stations.push_back(std::make_unique<RandomStation>(
          i, seed * 1000 + static_cast<std::uint64_t>(i), refuse_percent[i], &log));
    }
    auto [set, sources] = station_set(stations);
    ring = std::make_unique<R>("diff", std::move(set), std::move(sources));
    scheduler.add(ring.get());
    scheduler.add_clocked(ring.get());
  }
  DeliveryLog log;
  std::vector<std::unique_ptr<RandomStation>> stations;
  std::unique_ptr<R> ring;
  sim::Scheduler scheduler;
};

using RandomStations = StationSet<RandomStation>;
using FastRing = Ring<Tok, RandomStations>;

// Drives the Ring and the relaxation model with identical token streams,
// refusals and station blocking, and compares them after every cycle.
class RingDifferential {
 public:
  RingDifferential(int n, std::uint64_t seed, int max_refuse_percent)
      : n_(n), rng_(seed), refuse_(refuse_percents(n, max_refuse_percent)),
        fast_(n, seed, refuse_), ref_(n, seed, refuse_) {}

  int n() const { return n_; }
  std::mt19937_64& rng() { return rng_; }
  const FastRing& ring() const { return *fast_.ring; }

  /// Queues a token at station `src` on both sides; true when both accepted.
  bool inject(int src, const Tok& t) {
    const bool a = fast_.stations[src]->inject.push(t);
    const bool b = ref_.stations[src]->inject.push(t);
    EXPECT_EQ(a, b);
    return a;
  }

  void set_blocked(int station, bool blocked) {
    fast_.stations[station]->blocked = blocked;
    ref_.stations[station]->blocked = blocked;
  }

  /// Runs one cycle on both sides; false (with a failure) on divergence.
  bool step() {
    fast_.scheduler.run_cycle();
    ref_.scheduler.run_cycle();
    const std::uint64_t cycle = fast_.scheduler.cycle();
    std::size_t occupied = 0;
    for (int i = 0; i < n_; ++i) occupied += fast_.ring->slot(i).has_value();
    if (fast_.ring->occupancy() != occupied) {
      ADD_FAILURE() << "n=" << n_ << " cycle " << cycle
                    << ": in-flight count " << fast_.ring->occupancy()
                    << " but " << occupied << " occupied slots";
      return false;
    }
    for (int i = 0; i < n_; ++i) {
      const auto& a = fast_.ring->slot(i);
      const auto& b = ref_.ring->slot(i);
      if (a.has_value() != b.has_value() ||
          (a && (a->token.value != b->token.value || a->token.dest != b->token.dest ||
                 a->token.multicast != b->token.multicast ||
                 a->delivered_here != b->delivered_here))) {
        ADD_FAILURE() << "n=" << n_ << " cycle " << cycle << ": slot " << i
                      << " differs";
        return false;
      }
      if (fast_.stations[i]->inject.total_occupancy() !=
          ref_.stations[i]->inject.total_occupancy()) {
        ADD_FAILURE() << "n=" << n_ << " cycle " << cycle << ": station " << i
                      << " injected differently";
        return false;
      }
    }
    if (fast_.log != ref_.log) {
      ADD_FAILURE() << "n=" << n_ << " cycle " << cycle << ": delivery order differs";
      return false;
    }
    const sim::UtilCounter& ua = fast_.ring->util();
    const sim::UtilCounter& ub = ref_.ring->util();
    if (ua.work != ub.work || ua.capacity != ub.capacity ||
        ua.active_cycles != ub.active_cycles) {
      ADD_FAILURE() << "n=" << n_ << " cycle " << cycle << ": util differs";
      return false;
    }
    return true;
  }

 private:
  static std::vector<int> refuse_percents(int n, int max_percent) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(n) * 7919u + max_percent);
    std::vector<int> out;
    for (int i = 0; i < n; ++i) {
      out.push_back(max_percent == 0 ? 0 : static_cast<int>(rng() % (max_percent + 1)));
    }
    return out;
  }

  int n_;
  std::mt19937_64 rng_;
  std::vector<int> refuse_;
  DiffSide<FastRing> fast_;
  DiffSide<RelaxationRing<Tok, RandomStations>> ref_;
};

// Longest run of occupied slots ending at a stalled token.
std::size_t longest_stall_chain(const FastRing& ring) {
  const std::size_t n = ring.num_stations();
  std::size_t best = 0;
  for (std::size_t s = 0; s < n; ++s) {
    if (!ring.slot(s) || !ring.slot(s)->stalled) continue;
    std::size_t len = 1;
    while (len < n && ring.slot((s + n - len) % n)) ++len;
    best = std::max(best, len);
  }
  return best;
}

TEST(RingDifferential, RandomTrafficMatchesRelaxation) {
  for (int n = 2; n <= 40; ++n) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      RingDifferential d(n, seed * 100 + static_cast<std::uint64_t>(n), 60);
      auto& rng = d.rng();
      int value = 0;
      for (int cycle = 0; cycle < 400; ++cycle) {
        // Bursty injection, multicast counts 1..3, occasional blocking.
        const int pushes = static_cast<int>(rng() % 4);
        for (int k = 0; k < pushes; ++k) {
          const int src = static_cast<int>(rng() % n);
          const int dest = static_cast<int>(rng() % n);
          d.inject(src, Tok{value++, dest, 1 + static_cast<int>(rng() % 3)});
        }
        if (rng() % 16 == 0) {
          d.set_blocked(static_cast<int>(rng() % n), rng() % 2 == 0);
        }
        ASSERT_TRUE(d.step()) << "seed " << seed;
      }
    }
  }
}

TEST(RingDifferential, FullRingRotates) {
  for (int n = 2; n <= 40; ++n) {
    RingDifferential d(n, static_cast<std::uint64_t>(n), 0);
    // One never-consumed token per station, plus multicast tokens whose
    // destination delivers a copy and keeps them moving (delivered_here).
    for (int i = 0; i < n; ++i) {
      d.inject(i, Tok{i, i % 3 == 0 ? -1 : (i + 1) % n, 1000});
    }
    for (int cycle = 0; cycle < 3 * n; ++cycle) ASSERT_TRUE(d.step());
    ASSERT_EQ(d.ring().occupancy(), static_cast<std::size_t>(n));
    for (int cycle = 0; cycle < 2 * n; ++cycle) {
      const int before = d.ring().slot(0)->token.value;
      ASSERT_TRUE(d.step());
      ASSERT_EQ(d.ring().occupancy(), static_cast<std::size_t>(n));
      EXPECT_EQ(d.ring().slot(1)->token.value, before) << "full ring rotates";
    }
  }
}

TEST(RingDifferential, FullyStalledRingHoldsThenDrains) {
  for (int n = 2; n <= 40; ++n) {
    RingDifferential d(n, static_cast<std::uint64_t>(n) + 77, 0);
    for (int i = 0; i < n; ++i) d.set_blocked(i, true);
    // Every token is addressed to the station it enters at: each stalls in
    // its own slot, so the whole ring is occupied by stalled tokens.
    for (int i = 0; i < n; ++i) d.inject(i, Tok{i, i, 1 + i % 2});
    for (int cycle = 0; cycle < 3; ++cycle) ASSERT_TRUE(d.step());
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(d.ring().slot(i).has_value());
      EXPECT_TRUE(d.ring().slot(i)->stalled);
      EXPECT_EQ(d.ring().slot(i)->token.value, i);
    }
    for (int i = 0; i < n; i += 2) d.set_blocked(i, false);
    for (int cycle = 0; cycle < 4 * n; ++cycle) ASSERT_TRUE(d.step());
    for (int i = 1; i < n; i += 2) d.set_blocked(i, false);
    for (int cycle = 0; cycle < 4 * n; ++cycle) ASSERT_TRUE(d.step());
    EXPECT_EQ(d.ring().occupancy(), 0u);
  }
}

TEST(RingDifferential, LongStallChainsMatchRelaxation) {
  for (int n = 2; n <= 40; ++n) {
    RingDifferential d(n, static_cast<std::uint64_t>(n) + 1234, 30);
    const int sink = n / 2;
    d.set_blocked(sink, true);
    auto& rng = d.rng();
    std::size_t longest = 0;
    int value = 0;
    for (int cycle = 0; cycle < 6 * n; ++cycle) {
      // Every station keeps feeding the blocked sink, so the jam behind it
      // grows until the ring holds only the stall chain.
      for (int src = 0; src < n; ++src) {
        if (rng() % 2 != 0) continue;
        d.inject(src, Tok{value++, sink, 1 + static_cast<int>(rng() % 2)});
      }
      ASSERT_TRUE(d.step());
      longest = std::max(longest, longest_stall_chain(d.ring()));
    }
    EXPECT_GT(longest, static_cast<std::size_t>(n) / 2) << "n=" << n;
    d.set_blocked(sink, false);
    for (int cycle = 0; cycle < 40 * n; ++cycle) ASSERT_TRUE(d.step());
  }
}

TEST(RingDifferential, EmptyRingIdlesAndRefills) {
  for (int n = 2; n <= 40; ++n) {
    RingDifferential d(n, static_cast<std::uint64_t>(n) + 4242, 40);
    auto& rng = d.rng();
    int value = 0;
    // A ring that has never held a token ticks through the empty fast path.
    for (int cycle = 0; cycle < 5; ++cycle) ASSERT_TRUE(d.step());
    ASSERT_EQ(d.ring().occupancy(), 0u);
    for (int round = 0; round < 6; ++round) {
      // Refill from empty: one token on odd rounds, a burst on even ones,
      // some injected in the same cycle the ring is found empty.
      const int pushes = round % 2 ? 1 : 1 + static_cast<int>(rng() % n);
      for (int k = 0; k < pushes; ++k) {
        const int src = static_cast<int>(rng() % n);
        const int dest = static_cast<int>(rng() % n);
        d.inject(src, Tok{value++, dest, 1 + static_cast<int>(rng() % 3)});
      }
      int drained_after = -1;
      for (int cycle = 0; cycle < 40 * n; ++cycle) {
        ASSERT_TRUE(d.step()) << "round " << round;
        if (d.ring().occupancy() == 0) {
          drained_after = cycle;
          break;
        }
      }
      ASSERT_GE(drained_after, 0) << "n=" << n << " round " << round;
      // Idle gap of varying length before the next refill.
      const int gap = static_cast<int>(rng() % 4);
      for (int cycle = 0; cycle < gap; ++cycle) ASSERT_TRUE(d.step());
    }
  }
}

}  // namespace
}  // namespace fasda::ring
