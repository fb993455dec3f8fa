// Hardware tone detector model.
//
// The MICA sensor board's phase-locked-loop tone detector outputs one bit per
// sample: "tone in the 4.0-4.5 kHz band present". The paper found it
// unreliable -- misses under attenuation, false positives from noise -- but
// with the crucial separation P[b(t)=1 | signal] >> P[b(t)=1 | no signal]
// (Section 3.5) that the accumulation detector exploits. This model gives
// that binary process's per-sample firing thresholds over a ReceivedWindow,
// as runs of equal threshold.
#pragma once

#include <cstdint>
#include <vector>

#include "acoustics/channel.hpp"

namespace resloc::acoustics {

/// Contiguous index range [lo, hi) of the sample set the interval covers.
struct SampleSpan {
  std::size_t lo = 0;
  std::size_t hi = 0;
};

/// One run of a window's per-sample Bernoulli firing thresholds (see
/// math::Rng::bernoulli_threshold): every sample from `first` up to the next
/// run's `first` (or the window end) fires iff its draw's uniform_bits() is
/// below `threshold`.
struct ThresholdRun {
  std::size_t first = 0;
  std::uint64_t threshold = 0;
};

/// Reusable per-window rasterization buffers; keep one per worker thread and
/// reuse it across a campaign's pairs.
struct DetectorScratch {
  std::vector<ThresholdRun> runs;  ///< hardware: the window's threshold runs
  std::vector<SampleSpan> spans;   ///< hardware: burst then tone interval spans
  std::vector<std::uint8_t> burst; ///< sampled audio: 1 = a noise burst covers the sample
};

/// Conservative sample-index bracket of [start_s, end_s) within a window of
/// `num_samples` starting at `window_start_s` with period `sample_period_s`:
/// one sample of slack on each side absorbs the division rounding, and the
/// exact edge refinement in interval_sample_span decides inside it.
void sample_bracket(double window_start_s, double sample_period_s, std::size_t num_samples,
                    double start_s, double end_s, std::size_t& lo, std::size_t& hi);

/// Block variant of interval rasterization: the exact index range of every
/// sample whose time t = window_start_s + i * sample_period_s satisfies
/// t >= start_s && t < end_s. Sample times are strictly increasing, so the
/// predicate selects a contiguous range; the bracket is refined at its two
/// edges with the exact per-sample comparison, which is why callers can fill
/// [lo, hi) wholesale and produce bit-identical rasterizations. All interval
/// rasterization (hardware detector model, sampled-audio envelope) goes
/// through here so the paths cannot drift apart.
SampleSpan interval_sample_span(double window_start_s, double sample_period_s,
                                std::size_t num_samples, double start_s, double end_s);

/// The binary tone-detector output over a received window, as per-sample
/// firing probabilities.
class ToneDetectorModel {
 public:
  /// `sample_rate_hz` is the rate at which the microcontroller polls the
  /// detector.
  ToneDetectorModel(EnvironmentProfile env, double sample_rate_hz = kSampleRateHz);

  /// The deterministic half of the detector: the window's per-sample 53-bit
  /// Bernoulli thresholds as sorted runs in scratch.runs (first run at
  /// sample 0, no two neighbours equal). The interval_sample_span edges of
  /// the tone and burst intervals cut the window into segments, so there are
  /// at most 2 * (signals + bursts) + 1 runs. A segment under some tone takes
  /// the max of the covering tones' detection-probability thresholds
  /// (threshold-of-probability is monotone in SNR, so the max threshold is
  /// the threshold of the strongest tone); otherwise a burst's
  /// false-positive threshold, else the environment's; a faulty microphone
  /// raises both noise floors (Section 3.4, source 3/7). Consumes no
  /// randomness; pair it with SignalAccumulator::record_chirp_runs, which
  /// draws one uniform per sample and fires where it falls under its run's
  /// threshold.
  void threshold_runs(const ReceivedWindow& window, std::size_t num_samples,
                      const MicUnit& mic, DetectorScratch& scratch) const;

  double sample_rate_hz() const { return sample_rate_hz_; }
  double sample_period_s() const { return 1.0 / sample_rate_hz_; }

 private:
  EnvironmentProfile env_;
  double sample_rate_hz_;
};

}  // namespace resloc::acoustics
