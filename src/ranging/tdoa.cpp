#include "ranging/tdoa.hpp"

#include <cmath>
#include <cstddef>

#include "acoustics/units.hpp"

namespace resloc::ranging {

using acoustics::kSampleRateHz;
using acoustics::kSpeedOfSoundMps;

double distance_from_detection_index(int index) {
  // The receiver opens its sampling window at its best estimate of the chirp
  // onset instant for distance zero, so the detection offset converts
  // directly: d = Vs * t_detect. Calibration bias and sync jitter shift where
  // the true signal lands *within* the window (modeled by the simulator),
  // not how the index is decoded.
  return kSpeedOfSoundMps * static_cast<double>(index) / kSampleRateHz;
}

int detection_index_for_distance(double distance_m) {
  const double t = distance_m / kSpeedOfSoundMps;
  return static_cast<int>(std::floor(t * kSampleRateHz));
}

std::size_t window_samples_for_range(double max_range_m, double chirp_duration_s) {
  const double window_s = max_range_m / kSpeedOfSoundMps + chirp_duration_s;
  return static_cast<std::size_t>(std::ceil(window_s * kSampleRateHz));
}

}  // namespace resloc::ranging
