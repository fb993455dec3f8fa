#include "net/network.hpp"

#include <cmath>
#include <utility>

namespace resloc::net {

namespace {
// Substream tag for the burst schedule: keeps correlated-loss draws off the
// main network stream so faults-on/off changes nothing else.
constexpr std::uint64_t kBurstStreamTag = 0xB125;
}  // namespace

Network::Network(RadioParams radio, resloc::math::Rng rng)
    : radio_(radio), rng_(std::move(rng)), burst_rng_(rng_.fork(kBurstStreamTag)) {
  if (radio_.loss_burst_rate_hz > 0.0 && radio_.loss_burst_duration_s > 0.0) {
    next_burst_start_ = burst_rng_.exponential(radio_.loss_burst_rate_hz);
  }
}

bool Network::in_loss_burst() {
  if (radio_.loss_burst_rate_hz <= 0.0 || radio_.loss_burst_duration_s <= 0.0) return false;
  const SimTime now = events_.now();
  // Advance the Poisson schedule past `now`; starts are strictly increasing,
  // so the latest started burst determines the active window.
  while (next_burst_start_ <= now) {
    burst_end_ = next_burst_start_ + radio_.loss_burst_duration_s;
    next_burst_start_ += burst_rng_.exponential(radio_.loss_burst_rate_hz);
  }
  return now < burst_end_;
}

NodeId Network::add_node(resloc::math::Vec2 position, std::unique_ptr<NodeApp> app) {
  const auto id = static_cast<NodeId>(nodes_.size());
  NodeState state;
  state.position = position;
  state.clock = Clock::random(rng_);
  state.app = std::move(app);
  nodes_.push_back(std::move(state));
  return id;
}

void Network::start() {
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    nodes_[id].app->on_start(*this, id);
  }
}

void Network::broadcast(NodeId sender, Message message) {
  ++broadcasts_;
  if (in_loss_burst()) {
    // Correlated interference: the whole transmission is lost for everyone.
    ++bursts_dropped_;
    return;
  }
  message.sender = sender;
  // The MAC layer stamps the message with the sender's local clock at the
  // true start of transmission (now): this is the FTSP trick that removes
  // most of the send-side nondeterminism.
  message.mac_timestamp = nodes_[sender].clock.local_time(events_.now());

  const auto sender_pos = nodes_[sender].position;
  for (NodeId receiver = 0; receiver < nodes_.size(); ++receiver) {
    if (receiver == sender) continue;
    const double d = resloc::math::distance(sender_pos, nodes_[receiver].position);
    if (d > radio_.range_m) continue;
    if (rng_.bernoulli(radio_.loss_probability)) continue;

    const double jitter = std::abs(rng_.gaussian(0.0, kJitterStddevS));
    const double delay = kBaseLatencyS + jitter;
    events_.schedule_after(delay, [this, receiver, message, d]() {
      Reception reception;
      reception.message = message;
      reception.local_receive_time = nodes_[receiver].clock.local_time(events_.now());
      reception.rssi_distance_hint = d;
      ++deliveries_;
      nodes_[receiver].app->on_message(*this, receiver, reception);
    });
  }
}

void Network::schedule_local(NodeId node, double delay_s, std::function<void()> fn) {
  (void)node;  // local-time delays differ from true delays only by drift,
               // which is negligible for protocol timers; kept for intent.
  events_.schedule_after(delay_s, std::move(fn));
}

}  // namespace resloc::net
