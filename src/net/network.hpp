// Network container: nodes with positions, plus broadcast delivery over the
// shared event queue.
//
// Applications subclass NodeApp and receive messages via on_message(); the
// flooding alignment step of the distributed LSS algorithm (Section 4.3.1,
// "Alignment") runs on this substrate.
#pragma once

#include <memory>
#include <vector>

#include "math/rng.hpp"
#include "math/vec2.hpp"
#include "net/event_queue.hpp"
#include "net/radio.hpp"

namespace resloc::net {

class Network;

/// Base class for per-node protocol logic.
class NodeApp {
 public:
  virtual ~NodeApp() = default;

  /// Called once after the node is attached to the network.
  virtual void on_start(Network& /*net*/, NodeId /*self*/) {}

  /// Called for every delivered message.
  virtual void on_message(Network& net, NodeId self, const Message& message) = 0;
};

/// The simulated network.
class Network {
 public:
  Network(RadioParams radio, resloc::math::Rng rng);

  /// Adds a node at `position`; returns its id.
  NodeId add_node(resloc::math::Vec2 position, std::unique_ptr<NodeApp> app);

  /// Starts all node apps (calls on_start in id order).
  void start();

  /// Broadcasts from `sender`; delivery to every in-range node follows the
  /// radio timing model.
  void broadcast(NodeId sender, Message message);

  /// Runs the simulation until no event is pending.
  void run() { events_.run(); }

  std::size_t node_count() const { return nodes_.size(); }

  /// Event queue for app timers (events().schedule_after).
  EventQueue& events() { return events_; }

  /// Total messages delivered (for protocol-cost accounting; the paper notes
  /// the distributed algorithm needs two local exchanges per node plus one
  /// flood).
  std::size_t deliveries() const { return deliveries_; }
  std::size_t broadcasts() const { return broadcasts_; }
  /// Broadcasts swallowed whole by a loss burst.
  std::size_t bursts_dropped() const { return bursts_dropped_; }

 private:
  struct NodeState {
    resloc::math::Vec2 position;
    std::unique_ptr<NodeApp> app;
  };

  /// True while sim-time `now` falls inside a correlated loss burst. The
  /// burst schedule is a lazily-advanced Poisson process on a dedicated RNG
  /// substream, so enabling bursts never perturbs the per-receiver loss and
  /// jitter draws of the main stream.
  bool in_loss_burst();

  RadioParams radio_;
  resloc::math::Rng rng_;
  resloc::math::Rng burst_rng_;
  EventQueue events_;
  std::vector<NodeState> nodes_;
  std::size_t deliveries_ = 0;
  std::size_t broadcasts_ = 0;
  std::size_t bursts_dropped_ = 0;
  SimTime next_burst_start_ = 0.0;
  SimTime burst_end_ = -1.0;
};

}  // namespace resloc::net
