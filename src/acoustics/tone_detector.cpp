#include "acoustics/tone_detector.hpp"

#include <algorithm>
#include <cmath>

#include "acoustics/propagation.hpp"

namespace resloc::acoustics {

namespace {
constexpr double kFaultyMicFalsePositiveRate = 0.15;
}

ToneDetectorModel::ToneDetectorModel(EnvironmentProfile env, double sample_rate_hz)
    : env_(std::move(env)), sample_rate_hz_(sample_rate_hz) {}

void sample_bracket(double window_start_s, double dt, std::size_t num_samples, double start_s,
                    double end_s, std::size_t& lo, std::size_t& hi) {
  const double n = static_cast<double>(num_samples);
  const double lo_d = std::min(n, std::max(0.0, std::floor((start_s - window_start_s) / dt) - 1.0));
  const double hi_d = std::min(n, std::max(0.0, std::ceil((end_s - window_start_s) / dt) + 1.0));
  lo = static_cast<std::size_t>(lo_d);
  hi = static_cast<std::size_t>(hi_d);
}

SampleSpan interval_sample_span(double window_start_s, double dt, std::size_t num_samples,
                                double start_s, double end_s) {
  std::size_t lo = 0, hi = 0;
  sample_bracket(window_start_s, dt, num_samples, start_s, end_s, lo, hi);
  // Refine the conservative bracket to the exact predicate range. t(i) is
  // strictly increasing, so {i : t >= start && t < end} is contiguous; the
  // bracket has ~one sample of slack per side, so each loop runs a couple of
  // iterations at most. The comparisons are the exact ones the per-sample
  // predicate applied, evaluated on the identical t(i) expression.
  const auto t = [&](std::size_t i) {
    return window_start_s + static_cast<double>(i) * dt;
  };
  while (lo < hi && t(lo) < start_s) ++lo;
  while (hi > lo && t(hi - 1) >= end_s) --hi;
  return {lo, hi};
}

void ToneDetectorModel::fire_thresholds_block(const ReceivedWindow& window,
                                              std::size_t num_samples, const MicUnit& mic,
                                              DetectorScratch& scratch,
                                              std::uint64_t* thresholds) const {
  const double dt = sample_period_s();

  // Off-tone probabilities are per-window constants; a faulty mic's floor is
  // folded in before thresholding (threshold-of-max == max-of-thresholds,
  // the conversion is monotone).
  double base_rate = env_.false_positive_rate;
  double burst_rate = kNoiseBurstFalsePositiveRate;
  if (mic.faulty) {
    base_rate = std::max(base_rate, kFaultyMicFalsePositiveRate);
    burst_rate = std::max(burst_rate, kFaultyMicFalsePositiveRate);
  }
  const std::uint64_t base_threshold = resloc::math::Rng::bernoulli_threshold(base_rate);
  const std::uint64_t burst_threshold = resloc::math::Rng::bernoulli_threshold(burst_rate);

  std::fill(thresholds, thresholds + num_samples, base_threshold);
  for (const NoiseBurst& b : window.bursts) {
    const SampleSpan span =
        interval_sample_span(window.start_s, dt, num_samples, b.start_s, b.end_s);
    std::fill(thresholds + span.lo, thresholds + span.hi, burst_threshold);
  }

  // Tone spans override the noise floors entirely, and overlapping tones
  // combine by max. Converting per interval and maxing thresholds equals
  // converting the strongest SNR, because detection_probability and
  // bernoulli_threshold are both monotone non-decreasing: one
  // detection_probability call per interval instead of per covered sample.
  scratch.tone.assign(num_samples, 0);
  for (const SignalInterval& s : window.signals) {
    const std::uint64_t tone_threshold =
        resloc::math::Rng::bernoulli_threshold(detection_probability(s.snr_db));
    const SampleSpan span =
        interval_sample_span(window.start_s, dt, num_samples, s.start_s, s.end_s);
    for (std::size_t i = span.lo; i < span.hi; ++i) {
      if (scratch.tone[i] != 0) {
        thresholds[i] = std::max(thresholds[i], tone_threshold);
      } else {
        scratch.tone[i] = 1;
        thresholds[i] = tone_threshold;
      }
    }
  }
}

}  // namespace resloc::acoustics
