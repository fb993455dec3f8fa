// Direct-summation sliding single-bin DFT, the reference for the Goertzel
// fast path (tests/test_acoustic_regression.cpp, bench_ranging_goertzel).
//
// It recomputes the bin over its ring on every step -- O(window) per sample,
// the naive per-pair DFT cost the GoertzelSlidingFilter recurrence replaces.
// It exists to be benchmarked against and to pin the fast path's numerics.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "math/constants.hpp"
#include "ranging/dft_detector.hpp"

namespace resloc::reference {

class DirectDftFilter {
 public:
  explicit DirectDftFilter(int bin) : samples_(ranging::kDftWindow, 0.0), bin_(bin) {}

  /// Consumes one sample and returns the current window's bin power. Sample
  /// t lives at ring position t mod window, so the storage index doubles as
  /// the twiddle phase -- the convention GoertzelSlidingFilter uses, making
  /// the two comparable term by term.
  double step(double sample) {
    const double old = samples_[n_];
    samples_[n_] = sample;
    energy_ += sample * sample - old * old;
    n_ = (n_ + 1) % samples_.size();
    // |X_bin|^2 of the whole ring by direct summation.
    const double twiddle = 2.0 * math::kPi * static_cast<double>(bin_) /
                           static_cast<double>(samples_.size());
    double re = 0.0, im = 0.0;
    for (std::size_t i = 0; i < samples_.size(); ++i) {
      const double angle = twiddle * static_cast<double>(i);
      re += samples_[i] * std::cos(angle);
      im -= samples_[i] * std::sin(angle);
    }
    return re * re + im * im;
  }

  /// Sum of squared samples in the current window (Parseval noise estimate).
  double window_energy() const { return energy_; }

  void reset() {
    samples_.assign(samples_.size(), 0.0);
    n_ = 0;
    energy_ = 0.0;
  }
  int bin() const { return bin_; }

 private:
  std::vector<double> samples_;  ///< ring buffer; index = absolute index mod N
  std::size_t n_ = 0;
  int bin_;
  double energy_ = 0.0;
};

}  // namespace resloc::reference
