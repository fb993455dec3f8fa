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
  nodes_.push_back(NodeState{position, std::move(app)});
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

  const auto sender_pos = nodes_[sender].position;
  for (NodeId receiver = 0; receiver < nodes_.size(); ++receiver) {
    if (receiver == sender) continue;
    const double d = resloc::math::distance(sender_pos, nodes_[receiver].position);
    if (d > radio_.range_m) continue;
    if (rng_.bernoulli(radio_.loss_probability)) continue;

    const double jitter = std::abs(rng_.gaussian(0.0, kJitterStddevS));
    const double delay = kBaseLatencyS + jitter;
    events_.schedule_after(delay, [this, receiver, message]() {
      ++deliveries_;
      nodes_[receiver].app->on_message(*this, receiver, message);
    });
  }
}

}  // namespace resloc::net
