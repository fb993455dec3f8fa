#include <gtest/gtest.h>

#include <memory>

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

/// Test app: records delivered messages.
class RecorderApp : public NodeApp {
 public:
  explicit RecorderApp(std::vector<Message>& log) : log_(log) {}
  void on_message(Network&, NodeId, const Message& m) override { log_.push_back(m); }

 private:
  std::vector<Message>& log_;
};

/// Test app: broadcasts once at start.
class BeaconApp : public NodeApp {
 public:
  void on_start(Network& net, NodeId self) override {
    net.events().schedule_after(0.001, [&net, self]() {
      Message m;
      m.kind = 42;
      m.payload = {1.0, 2.0};
      net.broadcast(self, m);
    });
  }
  void on_message(Network&, NodeId, const Message&) override {}
};

TEST(Network, BroadcastReachesNodesInRange) {
  RadioParams radio;
  radio.range_m = 50.0;
  Network net(radio, Rng(1));
  std::vector<Message> log_near, log_far;
  net.add_node(Vec2{0.0, 0.0}, std::make_unique<BeaconApp>());
  net.add_node(Vec2{30.0, 0.0}, std::make_unique<RecorderApp>(log_near));
  net.add_node(Vec2{100.0, 0.0}, std::make_unique<RecorderApp>(log_far));
  net.start();
  net.run();
  ASSERT_EQ(log_near.size(), 1u);
  EXPECT_TRUE(log_far.empty());
  EXPECT_EQ(log_near[0].kind, 42);
  EXPECT_EQ(log_near[0].sender, 0u);
  EXPECT_EQ(log_near[0].payload, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(net.deliveries(), 1u);
  EXPECT_EQ(net.broadcasts(), 1u);
}

TEST(Network, LossDropsEverything) {
  RadioParams radio;
  radio.loss_probability = 1.0;
  Network net(radio, Rng(3));
  std::vector<Message> log;
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
  std::vector<Message> log;
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
  std::vector<Message> log;
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
    std::vector<Message> sink;
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
  std::vector<Message> log;
  // Single node that both broadcasts and records.
  class SelfApp : public NodeApp {
   public:
    explicit SelfApp(std::vector<Message>& log) : log_(log) {}
    void on_start(Network& net, NodeId self) override {
      net.events().schedule_after(0.0, [&net, self]() { net.broadcast(self, Message{}); });
    }
    void on_message(Network&, NodeId, const Message& m) override { log_.push_back(m); }

   private:
    std::vector<Message>& log_;
  };
  net.add_node(Vec2{0.0, 0.0}, std::make_unique<SelfApp>(log));
  net.start();
  net.run();
  EXPECT_TRUE(log.empty());
}

TEST(Network, DeliveryJitterIsSmallAndPositive) {
  Network net(RadioParams{}, Rng(5));
  std::vector<Message> log;
  net.add_node(Vec2{0.0, 0.0}, std::make_unique<BeaconApp>());
  net.add_node(Vec2{1.0, 0.0}, std::make_unique<RecorderApp>(log));
  net.start();
  net.run();
  ASSERT_EQ(log.size(), 1u);
  // True delivery time = 0.001 (send) + base latency + |jitter|; check the
  // event clock advanced accordingly.
  EXPECT_GE(net.events().now(), 0.001 + 2e-3);
  EXPECT_LT(net.events().now(), 0.001 + 2e-3 + 1e-4);
}

}  // namespace
