// TDoA arithmetic (Section 3.1).
//
// The distance between source i and destination j is computed from quantities
// local to j:
//     d_ij = Vs * (t_detect - (t_recv - delta_xmit) - delta_const)
// where t_recv is the radio message arrival on j's clock, delta_xmit the
// (estimated) nondeterministic radio delay, and delta_const the calibrated
// constant lag between the radio message and the chirp plus sensing/actuation
// delays. With MAC-layer timestamping the sync error is microseconds; the
// dominant quantization is the 16 kHz detector sampling rate (~2.1 cm per
// sample at 340 m/s).
#pragma once

#include <cstddef>

namespace resloc::ranging {

/// The receiver's calibrated estimate of delta_const.
inline constexpr double kDeltaConstCalibratedS = 0.030;

/// Timing parameters of the ranging exchange. Vs and fs are
/// acoustics::kSpeedOfSoundMps and acoustics::kSampleRateHz.
struct TdoaParams {
  /// True constant delay between radio message and audible chirp onset
  /// (scheduled chirp lag + mean sensing/actuation delay). Setting it
  /// ~0.3-0.6 ms off kDeltaConstCalibratedS reproduces the paper's "constant
  /// offset of 10-20 cm ... added to every ranging measurement" without
  /// environment calibration.
  double delta_const_true_s = kDeltaConstCalibratedS;
  /// Std-dev of the residual clock-sync error after MAC timestamping.
  double sync_jitter_s = 5e-6;
};

/// Converts a detection sample index (relative to the radio-synchronized
/// window start, which the receiver places at its calibrated estimate of the
/// distance-zero chirp onset) into a distance estimate: d = Vs * index / fs.
/// Calibration bias (delta_const_true - kDeltaConstCalibratedS) and sync
/// jitter shift where the signal lands within the window; they are injected
/// by the channel simulation, not the decoder.
double distance_from_detection_index(int index);

/// Inverse of distance_from_detection_index: the sample index at which the
/// direct signal from `distance_m` away begins (floor; the detector can only
/// fire at whole sample ticks).
int detection_index_for_distance(double distance_m);

/// Number of window samples needed to observe distances up to `max_range_m`
/// plus a full chirp of `chirp_duration_s`.
std::size_t window_samples_for_range(double max_range_m, double chirp_duration_s);

}  // namespace resloc::ranging
