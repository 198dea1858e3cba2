#include <gtest/gtest.h>

#include "fasda/net/network.hpp"

namespace fasda::net {
namespace {

ChannelConfig fast_config() {
  ChannelConfig c;
  c.link_latency = 10;
  c.cooldown = 2;
  return c;
}

struct TwoNodes {
  TwoNodes() : fabric(fast_config()), a(0, fast_config()), b(1, fast_config()) {
    fabric.attach(&a);
    fabric.attach(&b);
  }
  void pump(sim::Cycle& now, int cycles) {
    for (int i = 0; i < cycles; ++i, ++now) {
      a.tick_egress(now, [&](const Packet<PosRecord>& p) { fabric.send(p, now); });
      b.tick_egress(now, [&](const Packet<PosRecord>& p) { fabric.send(p, now); });
      fabric.commit();  // two-phase: staged sends deliver at end of cycle
    }
  }
  Fabric<PosRecord> fabric;
  Endpoint<PosRecord> a, b;
};

PosRecord record(int slot) {
  PosRecord r;
  r.src_gcell = {1, 2, 3};
  r.slot = static_cast<std::uint16_t>(slot);
  return r;
}

TEST(Endpoint, PacksFourRecordsPerPacket) {
  TwoNodes net;
  sim::Cycle now = 0;
  for (int i = 0; i < 8; ++i) net.a.enqueue(1, record(i));
  net.pump(now, 30);
  EXPECT_EQ(net.fabric.traffic().total_packets, 2u);
  // All 8 records arrive in order, one per poll.
  int seen = 0;
  for (sim::Cycle t = 0; t < 60; ++t) {
    if (auto r = net.b.poll_record(t)) {
      EXPECT_EQ(r->slot, seen);
      ++seen;
    }
  }
  EXPECT_EQ(seen, 8);
}

TEST(Endpoint, PartialPacketHeldUntilFlush) {
  TwoNodes net;
  sim::Cycle now = 0;
  for (int i = 0; i < 3; ++i) net.a.enqueue(1, record(i));
  net.pump(now, 20);
  EXPECT_EQ(net.fabric.traffic().total_packets, 0u) << "3 < 4: not ready";
  EXPECT_TRUE(net.a.egress_pending());
  net.a.flush_last({1});
  net.pump(now, 20);
  EXPECT_EQ(net.fabric.traffic().total_packets, 1u);
  EXPECT_FALSE(net.a.egress_pending());
}

TEST(Endpoint, LastEventSurfacesOnFinalPacket) {
  TwoNodes net;
  sim::Cycle now = 0;
  for (int i = 0; i < 5; ++i) net.a.enqueue(1, record(i));
  net.a.flush_last({1});
  net.pump(now, 40);
  int seen = 0;
  bool last_before_all_records = false;
  for (sim::Cycle t = 0; t < 80; ++t) {
    if (auto r = net.b.poll_record(t)) ++seen;
    for (NodeId src : net.b.take_last_events()) {
      EXPECT_EQ(src, 0);
      if (seen < 4) last_before_all_records = true;  // 2nd packet opened at >=4
    }
  }
  EXPECT_EQ(seen, 5);
  EXPECT_FALSE(last_before_all_records)
      << "last rides the final packet, not an earlier one";
}

TEST(Endpoint, EmptyLastPacketWhenNothingPending) {
  TwoNodes net;
  sim::Cycle now = 0;
  net.a.flush_last({1});
  net.pump(now, 20);
  EXPECT_EQ(net.fabric.traffic().total_packets, 1u);
  bool got_last = false;
  for (sim::Cycle t = 0; t < 40; ++t) {
    EXPECT_FALSE(net.b.poll_record(t).has_value());
    for (NodeId src : net.b.take_last_events()) {
      EXPECT_EQ(src, 0);
      got_last = true;
    }
  }
  EXPECT_TRUE(got_last);
}

TEST(Endpoint, CooldownPacesDepartures) {
  ChannelConfig config;
  config.link_latency = 5;
  config.cooldown = 10;
  Fabric<PosRecord> fabric(config);
  Endpoint<PosRecord> a(0, config), b(1, config);
  fabric.attach(&a);
  fabric.attach(&b);
  for (int i = 0; i < 12; ++i) a.enqueue(1, record(i));  // 3 full packets
  std::vector<sim::Cycle> departures;
  for (sim::Cycle now = 0; now < 100; ++now) {
    a.tick_egress(now, [&](const Packet<PosRecord>& p) {
      departures.push_back(now);
      fabric.send(p, now);
    });
  }
  ASSERT_EQ(departures.size(), 3u);
  EXPECT_GE(departures[1] - departures[0], 10u);
  EXPECT_GE(departures[2] - departures[1], 10u);
}

TEST(Endpoint, LinkLatencyDelaysArrival) {
  TwoNodes net;  // latency 10
  sim::Cycle now = 0;
  for (int i = 0; i < 4; ++i) net.a.enqueue(1, record(i));
  net.pump(now, 1);  // departs at cycle 0
  EXPECT_FALSE(net.b.poll_record(5).has_value());
  EXPECT_TRUE(net.b.poll_record(10).has_value());
}

TEST(Endpoint, IngressPendingTracksInFlightWork) {
  TwoNodes net;
  sim::Cycle now = 0;
  EXPECT_FALSE(net.b.ingress_pending());
  for (int i = 0; i < 4; ++i) net.a.enqueue(1, record(i));
  net.pump(now, 2);
  EXPECT_TRUE(net.b.ingress_pending()) << "packet in flight counts as pending";
  for (sim::Cycle t = 0; t < 40 && net.b.ingress_pending(); ++t) {
    net.b.poll_record(t + 10);
  }
  EXPECT_FALSE(net.b.ingress_pending());
}

TEST(Endpoint, FlushReleasesPackingBuffers) {
  TwoNodes net;
  sim::Cycle now = 0;
  EXPECT_EQ(net.a.packing_buffer_count(), 0u);
  net.a.enqueue(1, record(0));  // opens the dst-1 packing buffer
  EXPECT_EQ(net.a.packing_buffer_count(), 1u);
  net.a.flush_last({1});
  EXPECT_EQ(net.a.packing_buffer_count(), 0u)
      << "flush_last must release the stream's encapsulator registers";
  // Flushing with an empty (never-opened) buffer allocates nothing either.
  net.a.flush_last({1});
  EXPECT_EQ(net.a.packing_buffer_count(), 0u);
  net.pump(now, 40);
  // A full-and-cleared buffer also does not linger.
  for (int i = 0; i < 4; ++i) net.a.enqueue(1, record(i));
  net.a.flush_last({1});
  EXPECT_EQ(net.a.packing_buffer_count(), 0u);
}

TEST(Endpoint, FlushWithEmptyBufferStillSignalsLast) {
  TwoNodes net;
  sim::Cycle now = 0;
  net.a.enqueue(1, record(0));
  net.a.flush_last({1});  // partial packet, tagged last
  net.a.flush_last({1});  // nothing pending: must queue an empty last packet
  net.pump(now, 40);
  int last_events = 0;
  for (sim::Cycle t = 0; t < 80; ++t) {
    net.b.poll_record(t);
    last_events += static_cast<int>(net.b.take_last_events().size());
  }
  EXPECT_EQ(last_events, 2) << "each flush_last is its own stream boundary";
  EXPECT_EQ(net.fabric.traffic().total_packets, 2u);
}

TEST(Endpoint, IdleTrafficClassStillFlushesBoundaries) {
  // Regression: a traffic class a node never sends on (e.g. migrations in a
  // run where no particle crosses a node boundary) must still produce one
  // stream-end packet per flush_last, every iteration — the chained sync
  // counts those boundaries, so an idle link that skipped flush bookkeeping
  // would stall every peer waiting on it.
  TwoNodes net;
  sim::Cycle now = 0;
  int last_events = 0;
  for (int iteration = 0; iteration < 3; ++iteration) {
    net.a.flush_last({1});  // no traffic at all this stream
    net.pump(now, 40);
    for (; last_events < iteration + 1;) {
      ASSERT_LT(now, 400u) << "iteration " << iteration
                           << ": idle stream boundary never arrived";
      if (net.b.poll_record(now)) FAIL() << "idle stream delivered a record";
      last_events += static_cast<int>(net.b.take_last_events().size());
      net.pump(now, 1);
    }
    EXPECT_EQ(net.a.packing_buffer_count(), 0u);
    EXPECT_FALSE(net.a.egress_pending());
  }
  EXPECT_EQ(last_events, 3);
  EXPECT_EQ(net.fabric.traffic().total_packets, 3u);
}

TEST(Endpoint, RepeatedStreamReuse) {
  // Three streams back to back without draining in between: every stream
  // boundary must survive, and the packing map must not grow.
  TwoNodes net;
  sim::Cycle now = 0;
  for (int stream = 0; stream < 3; ++stream) {
    for (int i = 0; i < 5; ++i) net.a.enqueue(1, record(stream * 5 + i));
    net.a.flush_last({1});
    EXPECT_EQ(net.a.packing_buffer_count(), 0u);
  }
  net.pump(now, 80);
  int records = 0, last_events = 0;
  for (sim::Cycle t = 0; t < 200; ++t) {
    if (net.b.poll_record(t)) ++records;
    last_events += static_cast<int>(net.b.take_last_events().size());
  }
  EXPECT_EQ(records, 15);
  EXPECT_EQ(last_events, 3);
}

TEST(Fabric, TrafficMatrixPerPair) {
  ChannelConfig config = fast_config();
  Fabric<FrcRecord> fabric(config);
  Endpoint<FrcRecord> e0(0, config), e1(1, config), e2(2, config);
  fabric.attach(&e0);
  fabric.attach(&e1);
  fabric.attach(&e2);
  for (int i = 0; i < 4; ++i) e0.enqueue(1, FrcRecord{});
  for (int i = 0; i < 8; ++i) e0.enqueue(2, FrcRecord{});
  for (sim::Cycle now = 0; now < 50; ++now) {
    e0.tick_egress(now, [&](const Packet<FrcRecord>& p) { fabric.send(p, now); });
    fabric.commit();
  }
  const auto& t = fabric.traffic();
  EXPECT_EQ(t.packets.at({0, 1}), 1u);
  EXPECT_EQ(t.packets.at({0, 2}), 2u);
  EXPECT_EQ(t.total_packets, 3u);
}

}  // namespace
}  // namespace fasda::net
