#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "fasda/sim/kernel.hpp"

// Counts every global allocation in this test binary, so a test can assert
// that a code region allocates nothing.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// GCC pairs the free() below with the `new` expressions it inlines from
// this operator and warns; the replacement pair is matched by construction.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace fasda::sim {
namespace {

TEST(Fifo, PushesBecomeVisibleAfterCommit) {
  Fifo<int> fifo(4);
  EXPECT_TRUE(fifo.push(1));
  EXPECT_TRUE(fifo.empty()) << "staged pushes must be invisible this cycle";
  EXPECT_EQ(fifo.total_occupancy(), 1u);
  fifo.commit();
  ASSERT_FALSE(fifo.empty());
  EXPECT_EQ(fifo.front(), 1);
  EXPECT_EQ(fifo.pop(), 1);
  EXPECT_TRUE(fifo.empty());
}

TEST(Fifo, CapacityCountsStagedItems) {
  Fifo<int> fifo(2);
  EXPECT_TRUE(fifo.push(1));
  EXPECT_TRUE(fifo.push(2));
  EXPECT_FALSE(fifo.can_push());
  EXPECT_FALSE(fifo.push(3));
  fifo.commit();
  EXPECT_FALSE(fifo.can_push());
  fifo.pop();
  EXPECT_TRUE(fifo.can_push());
}

TEST(Fifo, PopAndFrontOnEmptyCommittedQueueThrow) {
  Fifo<int> fifo(4);
  EXPECT_THROW(fifo.pop(), std::logic_error);
  EXPECT_THROW(fifo.front(), std::logic_error);
  // A staged-but-uncommitted item is still invisible to pop()/front().
  EXPECT_TRUE(fifo.push(1));
  EXPECT_THROW(fifo.pop(), std::logic_error);
  EXPECT_THROW(fifo.front(), std::logic_error);
  fifo.commit();
  EXPECT_EQ(fifo.front(), 1);
  EXPECT_EQ(fifo.pop(), 1);
  EXPECT_THROW(fifo.pop(), std::logic_error) << "drained: empty again";
}

TEST(Fifo, PreservesOrderAcrossCommits) {
  Fifo<int> fifo(8);
  fifo.push(1);
  fifo.push(2);
  fifo.commit();
  fifo.push(3);
  fifo.commit();
  EXPECT_EQ(fifo.pop(), 1);
  EXPECT_EQ(fifo.pop(), 2);
  EXPECT_EQ(fifo.pop(), 3);
}

TEST(Fifo, WrapsAcrossGrowthWithStagedItemsPending) {
  Fifo<int> fifo(64);
  int next_in = 0;
  int next_out = 0;
  // Fill the first buffer, then pop most of it so the head sits near the end.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(fifo.push(next_in++));
  fifo.commit();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(fifo.pop(), next_out++);
  // Staged pushes wrap past the end of the buffer, fill it, and then force
  // a growth while they are still uncommitted.
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(fifo.push(next_in++));
  EXPECT_EQ(fifo.size(), 1u) << "growth must not commit staged items";
  EXPECT_EQ(fifo.total_occupancy(), 6u);
  EXPECT_EQ(fifo.pop(), next_out++);
  EXPECT_THROW(fifo.pop(), std::logic_error) << "staged items stay invisible";
  fifo.commit();
  EXPECT_EQ(fifo.size(), 5u);
  // Interleave pops and pushes so the head sweeps the grown buffer, with a
  // second growth along the way.
  for (int round = 0; round < 40; ++round) {
    EXPECT_EQ(fifo.front(), next_out);
    EXPECT_EQ(fifo.pop(), next_out++);
    for (int k = 0; k < 1 + round % 2; ++k) ASSERT_TRUE(fifo.push(next_in++));
    fifo.commit();
  }
  while (!fifo.empty()) EXPECT_EQ(fifo.pop(), next_out++);
  EXPECT_EQ(next_out, next_in);
}

TEST(Fifo, CapacityOneHoldsOneItem) {
  Fifo<int> fifo(1);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(fifo.can_push());
    ASSERT_TRUE(fifo.push(i));
    EXPECT_FALSE(fifo.can_push()) << "a staged item fills capacity 1";
    EXPECT_FALSE(fifo.push(-1));
    fifo.commit();
    EXPECT_FALSE(fifo.push(-1));
    EXPECT_EQ(fifo.size(), 1u);
    EXPECT_EQ(fifo.pop(), i);
    EXPECT_TRUE(fifo.empty());
  }
}

TEST(Fifo, ArrivalShapeFillsAndDrainsInOrder) {
  // The CBB arrival buffer shape: 1024 entries of a multi-word record.
  struct Ref {
    std::uint32_t pos[3];
    std::uint64_t tag;
  };
  constexpr std::size_t kDepth = 1024;
  Fifo<Ref> fifo(kDepth);
  std::uint64_t next_in = 0;
  std::uint64_t next_out = 0;
  for (int round = 0; round < 2; ++round) {
    // Fill at up to three pushes per cycle until the FIFO refuses.
    while (fifo.can_push()) {
      for (int k = 0; k < 3 && fifo.push(Ref{{1, 2, 3}, next_in}); ++k) ++next_in;
      fifo.commit();
    }
    EXPECT_EQ(fifo.size(), kDepth);
    EXPECT_FALSE(fifo.push(Ref{{0, 0, 0}, 0}));
    // Drain the first round partway so the second round's fill wraps.
    const std::size_t drain = round == 0 ? kDepth / 3 : kDepth;
    for (std::size_t k = 0; k < drain; ++k) {
      ASSERT_FALSE(fifo.empty());
      EXPECT_EQ(fifo.pop().tag, next_out++);
    }
  }
  EXPECT_TRUE(fifo.empty());
  EXPECT_EQ(next_out, next_in);
}

TEST(Fifo, NeverPushedAllocatesNothing) {
  // Observations are collected inside the counted region and checked after
  // it, so the assertions themselves cannot allocate into the count.
  bool empty = false;
  bool can_push = false;
  std::size_t occupancy = 1;
  const std::uint64_t before = g_allocations.load();
  {
    Fifo<std::uint64_t> fifo(1024);
    empty = fifo.empty();
    can_push = fifo.can_push();
    fifo.commit();
    occupancy = fifo.total_occupancy();
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_TRUE(empty);
  EXPECT_TRUE(can_push);
  EXPECT_EQ(occupancy, 0u);
  EXPECT_EQ(after, before);
  Fifo<std::uint64_t> pushed(1024);
  pushed.push(1);
  EXPECT_GT(g_allocations.load(), before) << "the counter sees the first push";
}

TEST(Reg, WriteVisibleNextCycleOnly) {
  Reg<int> reg;
  EXPECT_TRUE(reg.can_write());
  reg.write(7);
  EXPECT_FALSE(reg.valid());
  EXPECT_FALSE(reg.can_write());
  reg.commit();
  EXPECT_TRUE(reg.valid());
  EXPECT_EQ(reg.value(), 7);
  EXPECT_FALSE(reg.can_write()) << "full slot: clear first";
  reg.clear();
  reg.commit();
  EXPECT_TRUE(reg.can_write());
}

TEST(Reg, DoubleWriteThrows) {
  Reg<int> reg;
  reg.write(1);
  EXPECT_THROW(reg.write(2), std::logic_error);
}

TEST(UtilCounter, Ratios) {
  UtilCounter c;
  c.record(1, 2, true);
  c.record(1, 2, false);
  EXPECT_DOUBLE_EQ(c.hardware_utilization(), 0.5);
  EXPECT_DOUBLE_EQ(c.time_utilization(2), 0.5);
  EXPECT_DOUBLE_EQ(c.time_utilization(2, 2), 0.25);
  UtilCounter d;
  d.record(2, 2, true);
  c.merge(d);
  EXPECT_DOUBLE_EQ(c.hardware_utilization(), 4.0 / 6.0);
}

TEST(UtilCounter, EmptyIsZero) {
  const UtilCounter c;
  EXPECT_DOUBLE_EQ(c.hardware_utilization(), 0.0);
  EXPECT_DOUBLE_EQ(c.time_utilization(0), 0.0);
}

class Producer : public Component {
 public:
  Producer(Fifo<int>* out) : Component("producer"), out_(out) {}
  void tick(Cycle now) override { out_->push(static_cast<int>(now)); }

 private:
  Fifo<int>* out_;
};

class Consumer : public Component {
 public:
  Consumer(Fifo<int>* in) : Component("consumer"), in_(in) {}
  void tick(Cycle) override {
    if (!in_->empty()) values.push_back(in_->pop());
  }
  std::vector<int> values;

 private:
  Fifo<int>* in_;
};

TEST(Scheduler, TickOrderInvariance) {
  // Producer->FIFO->Consumer must behave identically whichever is ticked
  // first: that's the whole point of two-phase state.
  auto run = [](bool producer_first) {
    Fifo<int> fifo(100);
    Producer p(&fifo);
    Consumer c(&fifo);
    Scheduler s;
    if (producer_first) {
      s.add(&p);
      s.add(&c);
    } else {
      s.add(&c);
      s.add(&p);
    }
    s.add_clocked(&fifo);
    for (int i = 0; i < 10; ++i) s.run_cycle();
    return c.values;
  };
  EXPECT_EQ(run(true), run(false));
  const auto v = run(true);
  ASSERT_GE(v.size(), 2u);
  EXPECT_EQ(v[0], 0);
  EXPECT_EQ(v[1], 1) << "one-cycle FIFO latency";
}

TEST(Scheduler, ShardedFifoCommitsFromItsStagingList) {
  // A Fifo registered on a shard is committed only in cycles it staged
  // something; the consumer must see exactly what an every-cycle commit
  // (global registration) shows, under the naive and the elided loop.
  class EveryOther : public Component {
   public:
    explicit EveryOther(Fifo<int>* out) : Component("every-other"), out_(out) {}
    void tick(Cycle now) override {
      if (now % 2 == 0) out_->push(static_cast<int>(now));
    }

   private:
    Fifo<int>* out_;
  };
  auto run = [](ShardId shard, TickMode mode) {
    Fifo<int> fifo(100);
    EveryOther p(&fifo);
    Consumer c(&fifo);
    Scheduler s;
    s.add(&p, shard);
    s.add(&c, shard);
    s.add_clocked(&fifo, shard);
    s.set_tick_mode(mode);
    s.run_until([&] { return s.cycle() >= 12; }, 100);
    return c.values;
  };
  const auto reference = run(kGlobalShard, TickMode::kNaive);
  EXPECT_EQ(reference, (std::vector<int>{0, 2, 4, 6, 8, 10}));
  EXPECT_EQ(run(0, TickMode::kNaive), reference);
  EXPECT_EQ(run(0, TickMode::kElide), reference);
  EXPECT_EQ(run(3, TickMode::kElide), reference) << "shard ids need not be dense";
}

TEST(Scheduler, SteadyStateCyclesAllocateNothing) {
  // Once buffers have grown to their working depth, a cycle of push, pop
  // and commit through a sharded Fifo (and its shard's staging list) must
  // not touch the heap.
  class Drain : public Component {
   public:
    explicit Drain(Fifo<int>* in) : Component("drain"), in_(in) {}
    void tick(Cycle) override {
      if (!in_->empty()) sum += in_->pop();
    }
    long sum = 0;

   private:
    Fifo<int>* in_;
  };
  Fifo<int> fifo(16);
  Producer p(&fifo);
  Drain d(&fifo);
  Scheduler s;
  s.add(&p, 0);
  s.add(&d, 0);
  s.add_clocked(&fifo, 0);
  for (int i = 0; i < 64; ++i) s.run_cycle();
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 4096; ++i) s.run_cycle();
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after, before);
  EXPECT_GT(d.sum, 0);
}

TEST(Scheduler, RunUntilStopsAndThrowsOnBudget) {
  Scheduler s;
  int count = 0;
  class Counter : public Component {
   public:
    explicit Counter(int* c) : Component("counter"), c_(c) {}
    void tick(Cycle) override { ++*c_; }

   private:
    int* c_;
  } counter(&count);
  s.add(&counter);
  s.run_until([&] { return count >= 5; }, 100);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(s.cycle(), 5u);
  EXPECT_THROW(s.run_until([] { return false; }, 10), std::runtime_error);
}

}  // namespace
}  // namespace fasda::sim
