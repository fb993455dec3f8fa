// Broadcast radio.
//
// Section 3.1: the arrival of a radio message is delayed by non-deterministic
// sender- and receiver-side processing (delta_xmit); FTSP-style MAC-layer
// timestamping "eliminates a significant portion of [that] non-determinism".
// We model a message as reaching each in-range receiver after
//   base_latency + |jitter|,
// where jitter is the residual nondeterminism after MAC timestamping. The
// clock synchronization the ranging service builds on that timestamp is
// modeled in ranging itself (TdoaParams::sync_jitter_s); protocols on this
// radio only exchange payloads.
#pragma once

#include <cstdint>
#include <vector>

namespace resloc::net {

using NodeId = std::uint32_t;

/// Application payload tag; protocols interpret `kind` and `payload` freely.
struct Message {
  NodeId sender = 0;
  int kind = 0;
  std::vector<double> payload;
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
