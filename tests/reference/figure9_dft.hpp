// The verbatim Figure 9 listing (Section 3.7: the XSM signal detection
// routine) and the Figure 10 capture generator, as test and bench references.
//
// A sliding-window DFT over the last 36 samples tracks the amplitude of two
// beacon bands at fs/4 and fs/6. These frequencies are chosen so the complex
// roots of unity are (0, +/-1, +/-2, +/- the sqrt(3) absorbed into the output
// scaling), avoiding multiplications on the mote. The campaign path is the
// production ranging::GoertzelToneDetector, the same recurrence for any bin;
// at 4 kHz (bin 9 = fs/4) it reproduces this listing's fs/4 band to rounding
// (tests/test_acoustic_regression.cpp) and its detections on the Figure 10
// captures (tests/test_ranging_detection.cpp).
//
// synthesize_waveform is the plain Figure 10 capture: constant-frequency
// chirps (one std::sin per sample), Gaussian noise and an optional off-band
// interferer. Campaigns synthesize through RangingService's tone tables
// instead.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <vector>

#include "acoustics/units.hpp"
#include "math/constants.hpp"
#include "math/rng.hpp"
#include "ranging/dft_detector.hpp"

namespace resloc::reference {

/// Band powers produced by one filter step, matching Figure 9's return value
/// [(re4^2 + im4^2), (re6^2 + 3*im6^2)/2].
struct BandPowers {
  double band_fs4 = 0.0;  ///< power around sample_rate / 4
  double band_fs6 = 0.0;  ///< power around sample_rate / 6
};

/// Verbatim implementation of the Figure 9 sliding-DFT filter.
class SlidingDftFilter {
 public:
  static_assert(ranging::kDftWindow % 4 == 0 && ranging::kDftWindow % 6 == 0,
                "both bands need whole periods in the window");

  SlidingDftFilter() { reset(); }

  /// Resets to the all-zero window (init() in Figure 9).
  void reset() {
    samples_.fill(0.0);
    n_ = 0;
    k_ = 0;
    re4_ = im4_ = re6_ = im6_ = 0.0;
    energy_ = 0.0;
  }

  /// Consumes one raw sample and returns the two band powers (filter() in
  /// Figure 9).
  BandPowers filter(double sample) {
    // Figure 9: "sample -= samples[n], samples[n] += sample" -- i.e. compute
    // the delta against the value leaving the window and store the new value.
    const double old = samples_[n_];
    const double delta = sample - old;
    samples_[n_] = sample;
    energy_ += sample * sample - old * old;

    switch (n_ % 4) {
      case 0: re4_ += delta; break;
      case 1: im4_ += delta; break;
      case 2: re4_ -= delta; break;
      default: im4_ -= delta; break;
    }
    switch (k_) {
      case 0: re6_ += 2.0 * delta; break;
      case 1: re6_ += delta; im6_ += delta; break;
      case 2: re6_ -= delta; im6_ += delta; break;
      case 3: re6_ -= 2.0 * delta; break;
      case 4: re6_ -= delta; im6_ -= delta; break;
      default: re6_ += delta; im6_ -= delta; break;
    }

    n_ = (n_ + 1) % ranging::kDftWindow;
    k_ = (k_ + 1) % 6;

    return {re4_ * re4_ + im4_ * im4_, (re6_ * re6_ + 3.0 * im6_ * im6_) / 2.0};
  }

  /// Sum of squared samples in the current window; by Parseval this equals
  /// the mean DFT bin power, used as the automatic noise estimate.
  double window_energy() const { return energy_; }

 private:
  std::array<double, ranging::kDftWindow> samples_{};
  std::size_t n_ = 0;  // index mod 36 (and mod 4 derived from it)
  std::size_t k_ = 0;  // index mod 6
  double re4_ = 0.0, im4_ = 0.0;
  double re6_ = 0.0, im6_ = 0.0;
  double energy_ = 0.0;
};

/// Noise-subtracting tone detector built on the Figure 9 sliding DFT.
class DftToneDetector {
 public:
  /// `band` selects which Figure 9 band carries the beacon: 4 for fs/4,
  /// 6 for fs/6.
  explicit DftToneDetector(int band = 4) : band_(band) { assert(band == 4 || band == 6); }

  /// Feeds one sample; returns the noise-subtracted detection metric
  /// (positive indicates a tone).
  double step(double sample) {
    const BandPowers powers = filter_.filter(sample);
    // The Figure 9 scaling makes band_fs6 carry twice the power of band_fs4
    // for equivalent tones; normalize so one noise estimate fits both.
    const double band_power = band_ == 4 ? powers.band_fs4 : powers.band_fs6 / 2.0;
    // Parseval noise estimate and numeric floor as in
    // ranging::GoertzelToneDetector::step.
    constexpr double kNumericFloor = 1e-6;
    return band_power - ranging::kSoftwareNoiseScale * filter_.window_energy() - kNumericFloor;
  }

  /// Runs the detector over a whole waveform and returns the per-sample
  /// metric series.
  std::vector<double> run(const std::vector<double>& waveform) {
    std::vector<double> metric;
    metric.reserve(waveform.size());
    for (double s : waveform) metric.push_back(step(s));
    return metric;
  }

  /// Counts distinct detections in a metric series: a detection is a run of
  /// at least `min_run` consecutive samples with metric > 0; runs separated
  /// by fewer than `merge_gap` samples are merged. The default min_run of 16
  /// (1 ms at 16 kHz, well under the 8 ms chirp) suppresses short
  /// noise-excursion runs.
  static int count_detections(const std::vector<double>& metric, int min_run = 16,
                              int merge_gap = 16) {
    // A detection region opens when a run of `min_run` positive samples
    // occurs outside any region, and closes after more than `merge_gap`
    // consecutive non-positive samples; shorter gaps merge runs into one.
    int detections = 0;
    int run = 0;
    int silence = 0;
    bool in_region = false;
    for (double m : metric) {
      if (m > 0.0) {
        ++run;
        silence = 0;
        if (!in_region && run >= min_run) {
          in_region = true;
          ++detections;
        }
      } else {
        run = 0;
        ++silence;
        if (in_region && silence > merge_gap) in_region = false;
      }
    }
    return detections;
  }

 private:
  SlidingDftFilter filter_;
  int band_;
};

/// Parameters of a synthesized audio capture at acoustics::kSampleRateHz.
struct WaveformSpec {
  double tone_frequency_hz = 4000.0;  ///< fs/4, one of the Figure 9 bands
  double tone_amplitude = 1000.0;     ///< matches the Figure 10 axis scale
  double noise_stddev = 0.0;          ///< additive white Gaussian noise
  double interference_frequency_hz = 0.0;  ///< 0 disables the interferer
  double interference_amplitude = 0.0;
};

/// A chirp to place in the waveform: [start_sample, start_sample + length).
struct ChirpPlacement {
  std::size_t start_sample = 0;
  std::size_t length = 128;  ///< 8 ms at 16 kHz
};

/// Synthesizes `num_samples` of audio containing the given chirps.
inline std::vector<double> synthesize_waveform(const WaveformSpec& spec,
                                               const std::vector<ChirpPlacement>& chirps,
                                               std::size_t num_samples, math::Rng& rng) {
  std::vector<double> wave(num_samples, 0.0);
  const double dt = 1.0 / acoustics::kSampleRateHz;

  for (const ChirpPlacement& chirp : chirps) {
    const std::size_t end = std::min(num_samples, chirp.start_sample + chirp.length);
    for (std::size_t i = chirp.start_sample; i < end; ++i) {
      const double t = static_cast<double>(i) * dt;
      wave[i] += spec.tone_amplitude * std::sin(2.0 * math::kPi * spec.tone_frequency_hz * t);
    }
  }

  if (spec.interference_amplitude != 0.0 && spec.interference_frequency_hz != 0.0) {
    for (std::size_t i = 0; i < num_samples; ++i) {
      const double t = static_cast<double>(i) * dt;
      wave[i] += spec.interference_amplitude *
                 std::sin(2.0 * math::kPi * spec.interference_frequency_hz * t);
    }
  }

  if (spec.noise_stddev > 0.0) {
    for (double& s : wave) s += rng.gaussian(0.0, spec.noise_stddev);
  }
  return wave;
}

/// Evenly spaced chirp placements: `count` chirps of `length` samples
/// starting at `first_start`, separated by `period` samples.
inline std::vector<ChirpPlacement> periodic_chirps(std::size_t count, std::size_t first_start,
                                                   std::size_t period, std::size_t length) {
  std::vector<ChirpPlacement> chirps;
  chirps.reserve(count);
  for (std::size_t i = 0; i < count; ++i) chirps.push_back({first_start + i * period, length});
  return chirps;
}

}  // namespace resloc::reference
