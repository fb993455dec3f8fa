#include <gtest/gtest.h>

#include <memory>

#include "net/clock.hpp"
#include "net/event_queue.hpp"
#include "net/network.hpp"

namespace {

using namespace resloc::net;
using resloc::math::Rng;
using resloc::math::Vec2;

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, TiesBreakInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(1.0, [&] { order.push_back(2); });
  q.schedule_at(1.0, [&] { order.push_back(3); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimestampFifoHoldsAcrossHandlerScheduling) {
  // A handler that schedules at an already-populated timestamp lands after
  // the events that were scheduled there first: ties break in schedule
  // order even when scheduling is interleaved with execution.
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(2.0, [&] { order.push_back(1); });
  q.schedule_at(1.0, [&] {
    order.push_back(0);
    q.schedule_at(2.0, [&] { order.push_back(2); });
  });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, HandlersMayScheduleMore) {
  EventQueue q;
  int count = 0;
  std::function<void()> tick = [&]() {
    ++count;
    if (count < 5) q.schedule_after(1.0, tick);
  };
  q.schedule_at(0.0, tick);
  const auto executed = q.run();
  EXPECT_EQ(executed, 5u);
  EXPECT_DOUBLE_EQ(q.now(), 4.0);
}

TEST(EventQueue, RunUntilBound) {
  EventQueue q;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    q.schedule_at(static_cast<double>(i), [&] { ++count; });
  }
  q.run(5.5);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(q.pending(), 5u);
  q.run();
  EXPECT_EQ(count, 10);
}

TEST(Clock, LocalTimeLinearInTrueTime) {
  const Clock c(10.0, 50e-6);
  EXPECT_DOUBLE_EQ(c.local_time(0.0), 10.0);
  EXPECT_DOUBLE_EQ(c.local_time(100.0), 10.0 + 100.0 * (1.0 + 50e-6));
}

TEST(Clock, RoundTripConversion) {
  const Clock c(3.7, -42e-6);
  for (double t : {0.0, 1.0, 55.5, 1234.0}) {
    EXPECT_NEAR(c.true_time(c.local_time(t)), t, 1e-9);
  }
}

TEST(Clock, RoundTripStaysTightAtDriftBounds) {
  // Round-trip error at the drift extremes (+/- 200 ppm, 4x the radio
  // default) over a multi-day horizon: conversion must stay well under a
  // microsecond, or MAC-timestamp ranging would inherit the bias.
  for (double drift : {200e-6, -200e-6, 50e-6, -50e-6}) {
    const Clock c(123.456, drift);
    for (double t : {0.0, 1.0, 3600.0, 86400.0, 3.0 * 86400.0}) {
      EXPECT_NEAR(c.true_time(c.local_time(t)), t, 1e-6) << drift << " " << t;
      // Local time is strictly monotone in true time for |drift| < 1.
      EXPECT_GT(c.local_time(t + 1e-3), c.local_time(t)) << drift << " " << t;
    }
  }
}

TEST(Clock, RandomClockWithinBounds) {
  Rng rng(77);
  for (int i = 0; i < 100; ++i) {
    const Clock c = Clock::random(rng, 1.0, 50e-6);
    EXPECT_GE(c.offset(), 0.0);
    EXPECT_LT(c.offset(), 1.0);
    EXPECT_LE(std::abs(c.drift()), 50e-6);
  }
}

/// Test app: records receptions.
class RecorderApp : public NodeApp {
 public:
  explicit RecorderApp(std::vector<Reception>& log) : log_(log) {}
  void on_message(Network&, NodeId, const Reception& r) override { log_.push_back(r); }

 private:
  std::vector<Reception>& log_;
};

/// Test app: broadcasts once at start.
class BeaconApp : public NodeApp {
 public:
  void on_start(Network& net, NodeId self) override {
    net.schedule_local(self, 0.001, [&net, self]() {
      Message m;
      m.kind = 42;
      m.payload = {1.0, 2.0};
      net.broadcast(self, m);
    });
  }
  void on_message(Network&, NodeId, const Reception&) override {}
};

TEST(Network, BroadcastReachesNodesInRange) {
  RadioParams radio;
  radio.range_m = 50.0;
  Network net(radio, Rng(1));
  std::vector<Reception> log_near, log_far;
  net.add_node(Vec2{0.0, 0.0}, std::make_unique<BeaconApp>());
  net.add_node(Vec2{30.0, 0.0}, std::make_unique<RecorderApp>(log_near));
  net.add_node(Vec2{100.0, 0.0}, std::make_unique<RecorderApp>(log_far));
  net.start();
  net.run();
  ASSERT_EQ(log_near.size(), 1u);
  EXPECT_TRUE(log_far.empty());
  EXPECT_EQ(log_near[0].message.kind, 42);
  EXPECT_EQ(log_near[0].message.sender, 0u);
  EXPECT_EQ(log_near[0].message.payload, (std::vector<double>{1.0, 2.0}));
  EXPECT_NEAR(log_near[0].rssi_distance_hint, 30.0, 1e-12);
  EXPECT_EQ(net.deliveries(), 1u);
  EXPECT_EQ(net.broadcasts(), 1u);
}

TEST(Network, MacTimestampUsesSenderClock) {
  RadioParams radio;
  Network net(radio, Rng(2));
  std::vector<Reception> log;
  const NodeId beacon = net.add_node(Vec2{0.0, 0.0}, std::make_unique<BeaconApp>());
  net.add_node(Vec2{10.0, 0.0}, std::make_unique<RecorderApp>(log));
  net.start();
  net.run();
  ASSERT_EQ(log.size(), 1u);
  // The MAC timestamp is the sender's local clock at the send instant
  // (t = 0.001); reconstruct via the sender clock.
  const double expected = net.clock(beacon).local_time(0.001);
  EXPECT_NEAR(log[0].message.mac_timestamp, expected, 1e-9);
  // Delivery happened after base latency.
  EXPECT_GT(log[0].local_receive_time, 0.0);
}

TEST(Network, LossDropsEverything) {
  RadioParams radio;
  radio.loss_probability = 1.0;
  Network net(radio, Rng(3));
  std::vector<Reception> log;
  net.add_node(Vec2{0.0, 0.0}, std::make_unique<BeaconApp>());
  net.add_node(Vec2{5.0, 0.0}, std::make_unique<RecorderApp>(log));
  net.start();
  net.run();
  EXPECT_TRUE(log.empty());
}

TEST(Network, LossBurstSwallowsBroadcastsWholesale) {
  // A burst schedule dense enough to be active at the send instant drops the
  // whole broadcast (correlated loss: every receiver misses it together).
  RadioParams radio;
  radio.loss_burst_rate_hz = 1e6;   // first burst starts ~1 us in
  radio.loss_burst_duration_s = 10.0;
  Network net(radio, Rng(7));
  std::vector<Reception> log;
  net.add_node(Vec2{0.0, 0.0}, std::make_unique<BeaconApp>());
  net.add_node(Vec2{5.0, 0.0}, std::make_unique<RecorderApp>(log));
  net.start();
  net.run();
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(net.bursts_dropped(), 1u);
  EXPECT_EQ(net.broadcasts(), 1u);  // the send still counts as attempted
}

TEST(Network, BurstsOffByDefaultAndDeterministicUnderSeed) {
  RadioParams radio;  // burst rate 0: the schedule never engages
  Network net(radio, Rng(8));
  std::vector<Reception> log;
  net.add_node(Vec2{0.0, 0.0}, std::make_unique<BeaconApp>());
  net.add_node(Vec2{5.0, 0.0}, std::make_unique<RecorderApp>(log));
  net.start();
  net.run();
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(net.bursts_dropped(), 0u);

  // With bursts on, the drop decision is a pure function of the seed: two
  // same-seeded networks agree exactly.
  radio.loss_burst_rate_hz = 100.0;
  radio.loss_burst_duration_s = 0.005;
  std::size_t dropped[2];
  for (int run = 0; run < 2; ++run) {
    Network bursty(radio, Rng(99));
    std::vector<Reception> sink;
    bursty.add_node(Vec2{0.0, 0.0}, std::make_unique<BeaconApp>());
    bursty.add_node(Vec2{5.0, 0.0}, std::make_unique<RecorderApp>(sink));
    bursty.start();
    bursty.run();
    dropped[run] = bursty.bursts_dropped();
  }
  EXPECT_EQ(dropped[0], dropped[1]);
}

TEST(Network, SenderDoesNotHearItself) {
  RadioParams radio;
  Network net(radio, Rng(4));
  std::vector<Reception> log;
  // Single node that both broadcasts and records.
  class SelfApp : public NodeApp {
   public:
    explicit SelfApp(std::vector<Reception>& log) : log_(log) {}
    void on_start(Network& net, NodeId self) override {
      net.schedule_local(self, 0.0, [&net, self]() { net.broadcast(self, Message{}); });
    }
    void on_message(Network&, NodeId, const Reception& r) override { log_.push_back(r); }

   private:
    std::vector<Reception>& log_;
  };
  net.add_node(Vec2{0.0, 0.0}, std::make_unique<SelfApp>(log));
  net.start();
  net.run();
  EXPECT_TRUE(log.empty());
}

TEST(Network, DeliveryJitterIsSmallAndPositive) {
  Network net(RadioParams{}, Rng(5));
  std::vector<Reception> log;
  net.add_node(Vec2{0.0, 0.0}, std::make_unique<BeaconApp>());
  net.add_node(Vec2{1.0, 0.0}, std::make_unique<RecorderApp>(log));
  net.start();
  net.run();
  ASSERT_EQ(log.size(), 1u);
  // True delivery time = 0.001 (send) + base latency + |jitter|; check the
  // event clock advanced accordingly.
  EXPECT_GE(net.now(), 0.001 + 2e-3);
  EXPECT_LT(net.now(), 0.001 + 2e-3 + 1e-4);
}

}  // namespace
