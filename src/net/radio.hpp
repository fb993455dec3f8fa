// Broadcast radio with MAC-layer timestamping.
//
// Section 3.1: the arrival of a radio message is delayed by non-deterministic
// sender- and receiver-side processing (delta_xmit); FTSP-style MAC-layer
// timestamping "eliminates a significant portion of [that] non-determinism".
// We model a message as reaching each in-range receiver after
//   base_latency + |jitter|,
// where jitter is the residual nondeterminism after MAC timestamping. The
// receiver is handed both the true reception instant (converted to its local
// clock by the Network) and the sender's MAC timestamp, from which protocols
// compute clock correspondences exactly as on real motes.
#pragma once

#include <cstdint>
#include <vector>

#include "math/rng.hpp"
#include "math/vec2.hpp"
#include "net/event_queue.hpp"

namespace resloc::net {

using NodeId = std::uint32_t;

/// Application payload tag; protocols interpret `kind` and `payload` freely.
struct Message {
  NodeId sender = 0;
  int kind = 0;
  std::vector<double> payload;
  /// Sender's local time at the actual start of transmission (MAC timestamp,
  /// filled by the Network at send time).
  double mac_timestamp = 0.0;
};

/// Delivery metadata handed to the receiving node.
struct Reception {
  Message message;
  double local_receive_time = 0.0;  ///< receiver's local clock at reception
  double rssi_distance_hint = 0.0;  ///< true sender-receiver distance (physics, not visible to protocols that shouldn't use it)
};

/// Deterministic part of delta_xmit (encoding + propagation + decoding).
inline constexpr double kBaseLatencyS = 2e-3;
/// Std-dev of the residual delivery jitter after MAC-layer timestamping.
/// FTSP reduces this to the order of microseconds.
inline constexpr double kJitterStddevS = 5e-6;

/// Radio coverage and loss parameters.
struct RadioParams {
  /// Communication range in meters (MICA2 outdoor ranges are tens of m).
  double range_m = 60.0;
  /// Probability an in-range receiver misses the message entirely.
  double loss_probability = 0.0;
  /// Rate (events/s of sim time) at which whole-network loss bursts start.
  /// During a burst every broadcast is dropped for all receivers -- the
  /// correlated-interference failure mode, as opposed to the independent
  /// per-receiver `loss_probability`. Zero disables bursts.
  double loss_burst_rate_hz = 0.0;
  /// Duration of each loss burst in seconds of sim time.
  double loss_burst_duration_s = 0.0;
};

}  // namespace resloc::net
