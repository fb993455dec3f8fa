// Software tone detection for platforms without a hardware tone detector
// (Section 3.7: the XSM signal detection routine).
//
// A sliding-window DFT over the last kDftWindow samples tracks the amplitude
// of the beacon band, and the wrapper subtracts an automatic noise estimate
// -- the average power across all DFT bins, obtained from the window's total
// energy via Parseval -- so that a positive output indicates a tone (the
// paper: "isolate the amplitude of noise and subtract it from the DFT output;
// a positive result indicates detection of a tone").
//
// Figure 9's multiplication-free listing tracks only the fs/4 and fs/6 bands,
// whose roots of unity are 0/+-1/+-2. The campaign path here is its
// generalization to any bin:
//   - GoertzelSlidingFilter: the O(1) per-sample single-bin recurrence (the
//     sliding form of the Goertzel filter) with periodic exact resync so its
//     output never drifts measurably from the direct sum,
//   - GoertzelToneDetector: the noise-subtracting wrapper over it for an
//     arbitrary beacon frequency (the grass campaign chirps at 4.3 kHz, which
//     is not one of the two multiplication-free bands).
// The verbatim Figure 9 listing is the test reference
// tests/reference/figure9_dft.hpp; at 4 kHz (bin 9 = fs/4) the two agree.
#pragma once

#include <array>
#include <cstddef>

namespace resloc::ranging {

/// Samples in the sliding DFT window: Figure 9's 36, divisible by both 4 and
/// 6 so the fs/4 and fs/6 bands sit exactly on bins 9 and 6.
inline constexpr std::size_t kDftWindow = 36;

/// Multiplier on the Parseval noise estimate before subtraction. For white
/// noise the expected band power roughly equals the window energy, but
/// adjacent sliding-window outputs are strongly correlated, so a margin of
/// ~6x is needed to keep noise excursions from forming detection-length runs.
inline constexpr double kSoftwareNoiseScale = 6.0;

/// Nearest DFT bin of the kDftWindow-sample window at acoustics::kSampleRateHz
/// to a target tone frequency (what a mote picks at compile time).
int nearest_bin(double tone_frequency_hz);

/// Fast sliding single-bin filter: the Goertzel recurrence in its sliding
/// form. With the twiddle phase anchored to the absolute sample index, the
/// sample entering the window and the sample leaving it share one twiddle
/// factor, so each step is a single complex multiply-accumulate:
///     S += (x[t] - x[t-N]) * e^(-j*2*pi*bin*(t mod N)/N)
/// -- the generalization of the Figure 9 trick to bins whose roots of unity
/// are not 0/+-1/+-2. Floating-point drift from the incremental update is
/// bounded by an exact direct-sum resync every kResyncPeriod steps, keeping
/// the output within ~1e-12 of recomputing the bin by direct summation every
/// step (the O(window) per-sample cost this recurrence replaces) while
/// staying O(1) amortized.
class GoertzelSlidingFilter {
 public:
  /// Steps between exact recomputations of the running sums.
  static constexpr std::size_t kResyncPeriod = 256;

  explicit GoertzelSlidingFilter(int bin);

  /// Consumes one sample and returns the current window's bin power.
  double step(double sample);

  /// Sum of squared samples in the current window (Parseval noise estimate).
  double window_energy() const { return energy_; }

  void reset();
  int bin() const { return bin_; }

 private:
  void resync();

  std::array<double, kDftWindow> samples_{};  ///< ring; index = absolute index mod N
  std::array<double, kDftWindow> cos_{};      ///< cos(2*pi*bin*i/N) for i in [0, N)
  std::array<double, kDftWindow> sin_{};
  std::size_t n_ = 0;
  std::size_t steps_since_resync_ = 0;
  int bin_;
  double re_ = 0.0, im_ = 0.0;
  double energy_ = 0.0;
};

/// Noise-subtracting tone detector for the beacon frequency, built on the
/// Goertzel sliding fast path.
class GoertzelToneDetector {
 public:
  explicit GoertzelToneDetector(double tone_frequency_hz);

  /// Feeds one sample; returns the noise-subtracted detection metric
  /// (positive indicates a tone).
  double step(double sample);

  /// Block entry point: metric[i] = step(x[i]) for i in [0, n) -- the same
  /// sliding recurrence, resync cadence, and rounding as n scalar calls
  /// (it IS the scalar step, inlined into one loop over a contiguous
  /// buffer, which removes the per-sample cross-TU call).
  void run_block(const double* x, std::size_t n, double* metric);

  void reset();
  int bin() const { return filter_.bin(); }

 private:
  GoertzelSlidingFilter filter_;
};

}  // namespace resloc::ranging
