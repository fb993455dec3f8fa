#include "ranging/dft_detector.hpp"

#include <cmath>

#include "acoustics/units.hpp"
#include "math/constants.hpp"

namespace resloc::ranging {

int nearest_bin(double tone_frequency_hz) {
  return static_cast<int>(std::lround(tone_frequency_hz / acoustics::kSampleRateHz *
                                      static_cast<double>(kDftWindow)));
}

GoertzelSlidingFilter::GoertzelSlidingFilter(int bin) : bin_(bin) {
  for (std::size_t i = 0; i < kDftWindow; ++i) {
    const double angle = 2.0 * resloc::math::kPi * static_cast<double>(bin) *
                         static_cast<double>(i) / static_cast<double>(kDftWindow);
    cos_[i] = std::cos(angle);
    sin_[i] = std::sin(angle);
  }
}

double GoertzelSlidingFilter::step(double sample) {
  const double old = samples_[n_];
  const double delta = sample - old;
  samples_[n_] = sample;
  // One complex multiply-accumulate: the new sample and the one it evicts sit
  // a whole window apart, so they share the twiddle factor at index n_.
  re_ += delta * cos_[n_];
  im_ -= delta * sin_[n_];
  energy_ += sample * sample - old * old;
  n_ = (n_ + 1) % kDftWindow;
  if (++steps_since_resync_ >= kResyncPeriod) resync();
  return re_ * re_ + im_ * im_;
}

void GoertzelSlidingFilter::resync() {
  // Exact recomputation of the incremental sums; kills accumulated rounding
  // (and the energy sum's catastrophic-cancellation residue) so the filter
  // tracks the direct sum to ~1e-12 indefinitely.
  re_ = 0.0;
  im_ = 0.0;
  energy_ = 0.0;
  for (std::size_t i = 0; i < kDftWindow; ++i) {
    re_ += samples_[i] * cos_[i];
    im_ -= samples_[i] * sin_[i];
    energy_ += samples_[i] * samples_[i];
  }
  steps_since_resync_ = 0;
}

void GoertzelSlidingFilter::reset() {
  samples_.fill(0.0);
  n_ = 0;
  steps_since_resync_ = 0;
  re_ = im_ = energy_ = 0.0;
}

GoertzelToneDetector::GoertzelToneDetector(double tone_frequency_hz)
    : filter_(nearest_bin(tone_frequency_hz)) {}

double GoertzelToneDetector::step(double sample) {
  const double band_power = filter_.step(sample);
  // Parseval: the window's total energy equals the mean DFT bin power, which
  // is the automatic noise estimate the paper describes; it is scaled by the
  // correlation margin. The tiny absolute floor keeps sliding-update
  // cancellation residue from reading as a positive detection on an all-zero
  // window.
  constexpr double kNumericFloor = 1e-6;
  return band_power - kSoftwareNoiseScale * filter_.window_energy() - kNumericFloor;
}

void GoertzelToneDetector::run_block(const double* x, std::size_t n, double* metric) {
  for (std::size_t i = 0; i < n; ++i) metric[i] = step(x[i]);
}

void GoertzelToneDetector::reset() { filter_.reset(); }

}  // namespace resloc::ranging
