// Per-sample reference of RangingService::measure, for the block-kernel
// equivalence tests (tests/test_dsp_kernels.cpp) and bench_campaign_scale.
//
// The production measure path runs each chirp window as staged block kernels
// over contiguous buffers. This is the form they replaced, one sample at a
// time: the channel computes every emission's jitter and echo draws whether
// or not they can reach the window, the hardware detector draws
// rng.bernoulli(p) per sample from the strongest covering tone's SNR, the
// sampled-audio modes synthesize and filter in one fused per-sample loop,
// each chirp's binary series is a std::vector<bool> folded into the 4-bit
// counters sample by sample, and detection restarts its sliding count after
// every rejected candidate (restart_scan.hpp). It draws the same RNG stream
// in the same order, so the production estimate, diagnostics, counters and
// post-call generator state must match it to the last bit. The constants
// below mirror the private ones of acoustics/tone_detector.cpp and
// ranging/ranging_service.cpp; the equivalence tests fail if either side
// drifts.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "acoustics/channel.hpp"
#include "acoustics/chirp_pattern.hpp"
#include "acoustics/propagation.hpp"
#include "acoustics/signal_synth.hpp"
#include "acoustics/tone_detector.hpp"
#include "math/constants.hpp"
#include "math/rng.hpp"
#include "ranging/dft_detector.hpp"
#include "ranging/matched_filter.hpp"
#include "ranging/ranging_service.hpp"
#include "ranging/signal_detection.hpp"
#include "ranging/tdoa.hpp"
#include "restart_scan.hpp"

namespace resloc::reference {

/// Hardware model: a faulty microphone's false-positive floor.
constexpr double kFaultyMicFalsePositiveRate = 0.15;
/// Sampled-audio modes: noise sigma inside a burst, and a faulty
/// microphone's in-band leak amplitude.
constexpr double kBurstNoiseSigma = 4.0;
constexpr double kFaultyMicLeakAmplitude = 1.0;
/// Baseline mode's first-sustained-firing debounce.
constexpr ranging::DetectionParams kBaselineDetection{/*threshold=*/1, /*window=*/4,
                                                      /*min_detections=*/3};

/// acoustics::receive_into with every draw taken eagerly: each emission's
/// power-up jitter, and each echo's delay and SNR, are computed even when
/// they cannot reach the window.
inline void eager_receive_into(acoustics::ReceivedWindow& window,
                               const std::vector<acoustics::Emission>& emissions,
                               double window_start_s, double window_duration_s,
                               const acoustics::LinkResponse& link,
                               const acoustics::SpeakerUnit& speaker,
                               const acoustics::MicUnit& mic,
                               const acoustics::EnvironmentProfile& env,
                               const acoustics::ChannelJitter& jitter, math::Rng& rng) {
  window.signals.clear();
  window.bursts.clear();
  window.start_s = window_start_s;
  window.duration_s = window_duration_s;
  const double window_end = window_start_s + window_duration_s;
  const double direct_snr =
      (((speaker.effective_db() - link.spreading_db) - link.excess_db) + mic.sensitivity_db) -
      env.noise_floor_db;
  const double travel_s = link.travel_s;
  for (const acoustics::Emission& e : emissions) {
    const double audible_start = e.start_s + travel_s + speaker.onset_delay_s +
                                 rng.gaussian(0.0, jitter.actuation_jitter_s);
    const double audible_end = e.start_s + travel_s + e.duration_s;
    const double ramp_end = std::min(audible_start + acoustics::kRampupS, audible_end);
    if (audible_end > window_start_s && audible_start < window_end && audible_end > audible_start) {
      if (ramp_end > audible_start) {
        window.signals.push_back(
            {audible_start, ramp_end, direct_snr - acoustics::kRampupPenaltyDb});
      }
      if (audible_end > ramp_end) window.signals.push_back({ramp_end, audible_end, direct_snr});
    }
    if (env.fixed_echo_lag_s > 0.0) {
      const double echo_start = e.start_s + travel_s + env.fixed_echo_lag_s;
      const double echo_end = echo_start + e.duration_s;
      if (echo_end > window_start_s && echo_start < window_end) {
        window.signals.push_back(
            {echo_start, echo_end, direct_snr - env.fixed_echo_attenuation_db});
      }
    }
    double remaining = env.echo_rate;
    while (remaining > 0.0 && rng.bernoulli(std::min(remaining, 1.0))) {
      remaining -= 1.0;
      const double delay = rng.exponential(1.0 / env.echo_delay_mean_s);
      const double echo_snr = direct_snr - env.echo_attenuation_db + rng.gaussian(0.0, 2.0);
      const double echo_start = e.start_s + travel_s + delay;
      const double echo_end = echo_start + e.duration_s;
      if (echo_end > window_start_s && echo_start < window_end) {
        window.signals.push_back({echo_start, echo_end, echo_snr});
      }
    }
  }
  if (env.noise_burst_rate_hz > 0.0) {
    double t = window_start_s + rng.exponential(env.noise_burst_rate_hz);
    while (t < window_end) {
      window.bursts.push_back({t, t + env.noise_burst_duration_s});
      t += rng.exponential(env.noise_burst_rate_hz);
    }
  }
  std::sort(window.signals.begin(), window.signals.end(),
            [](const acoustics::SignalInterval& a, const acoustics::SignalInterval& b) {
              return a.start_s < b.start_s;
            });
}

/// The 4-bit counters, fed one std::vector<bool> chirp at a time.
class PerSampleAccumulator {
 public:
  explicit PerSampleAccumulator(std::size_t num_samples = 0) { reset(num_samples); }

  void reset(std::size_t num_samples) {
    samples_.assign(num_samples, 0);
    chirps_ = 0;
  }

  void record_chirp(const std::vector<bool>& fired) {
    if (chirps_ >= ranging::SignalAccumulator::kMaxChirps) return;  // counters full
    ++chirps_;
    for (std::size_t i = 0; i < samples_.size(); ++i) {
      if (fired[i] && samples_[i] < 15) ++samples_[i];
    }
  }

  const std::vector<std::uint8_t>& samples() const { return samples_; }
  int chirps_recorded() const { return chirps_; }

 private:
  std::vector<std::uint8_t> samples_;
  int chirps_ = 0;
};

/// Working buffers of the reference measure, reused across calls like
/// RangingScratch.
struct PerSampleScratch {
  std::vector<double> starts;
  std::vector<acoustics::Emission> emissions;
  acoustics::ReceivedWindow received;
  std::vector<double> best_snr;     ///< hardware: strongest covering tone per sample
  std::vector<std::uint8_t> tone;   ///< hardware: 1 = some tone covers the sample
  std::vector<std::uint8_t> burst;  ///< 1 = a noise burst covers the sample
  std::vector<double> amplitude;    ///< sampled audio: tone envelope
  std::vector<double> tone_table;   ///< Goertzel: sin(2*pi*f*i/fs)
  std::vector<double> audio;        ///< NCC: synthesized window
  std::vector<std::uint8_t> marks;  ///< NCC: production byte marks (peaks only)
  std::vector<bool> fired;          ///< one chirp's binary detector output
  PerSampleAccumulator accumulator;
  acoustics::WaveformSynthesizer synth;
};

/// The hardware tone detector over one window: rasterize intervals, then one
/// rng.bernoulli(p) per sample into scratch.fired.
inline void sample_detector_window(const acoustics::EnvironmentProfile& env,
                                   const acoustics::ReceivedWindow& window, std::size_t n,
                                   const acoustics::MicUnit& mic, math::Rng& rng,
                                   PerSampleScratch& scratch) {
  const double dt = 1.0 / acoustics::kSampleRateHz;
  scratch.best_snr.assign(n, -1e9);
  scratch.tone.assign(n, 0);
  scratch.burst.assign(n, 0);
  for (const acoustics::SignalInterval& s : window.signals) {
    const acoustics::SampleSpan span =
        acoustics::interval_sample_span(window.start_s, dt, n, s.start_s, s.end_s);
    for (std::size_t i = span.lo; i < span.hi; ++i) {
      scratch.tone[i] = 1;
      scratch.best_snr[i] = std::max(scratch.best_snr[i], s.snr_db);
    }
  }
  for (const acoustics::NoiseBurst& b : window.bursts) {
    const acoustics::SampleSpan span =
        acoustics::interval_sample_span(window.start_s, dt, n, b.start_s, b.end_s);
    for (std::size_t i = span.lo; i < span.hi; ++i) scratch.burst[i] = 1;
  }
  scratch.fired.assign(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    double p;
    if (scratch.tone[i] != 0) {
      p = acoustics::detection_probability(scratch.best_snr[i]);
    } else {
      p = scratch.burst[i] != 0 ? acoustics::kNoiseBurstFalsePositiveRate
                                : env.false_positive_rate;
      if (mic.faulty) p = std::max(p, kFaultyMicFalsePositiveRate);
    }
    scratch.fired[i] = rng.bernoulli(p);
  }
}

/// The NCC detector's marks as a std::vector<bool>: a kPeakPlateau run at
/// every onset the production scan picked.
inline void ncc_marks(ranging::MatchedFilterNcc& filter, const double* x, std::size_t n,
                      std::size_t chirp_samples, const acoustics::ToneTemplateView& tpl,
                      PerSampleScratch& scratch) {
  scratch.marks.resize(n);
  filter.detect_into(x, n, chirp_samples, tpl, scratch.marks.data());
  scratch.fired.assign(n, false);
  constexpr auto kPlateau = static_cast<std::size_t>(ranging::MatchedFilterNcc::kPeakPlateau);
  for (std::size_t i : filter.peaks()) {
    const std::size_t end = std::min(n, i + kPlateau);
    for (std::size_t j = i; j < end; ++j) scratch.fired[j] = true;
  }
}

/// Sampled-audio envelope: per-sample tone amplitude (the SNR over unit
/// noise) and the burst flags.
inline void rasterize_envelope(std::size_t n, const acoustics::MicUnit& mic,
                               PerSampleScratch& scratch) {
  const double dt = 1.0 / acoustics::kSampleRateHz;
  const acoustics::ReceivedWindow& window = scratch.received;
  scratch.amplitude.assign(n, mic.faulty ? kFaultyMicLeakAmplitude : 0.0);
  for (const acoustics::SignalInterval& s : window.signals) {
    const double amp = std::sqrt(2.0 * std::pow(10.0, s.snr_db / 10.0));
    const acoustics::SampleSpan span =
        acoustics::interval_sample_span(window.start_s, dt, n, s.start_s, s.end_s);
    for (std::size_t i = span.lo; i < span.hi; ++i) {
      scratch.amplitude[i] = std::max(scratch.amplitude[i], amp);
    }
  }
  scratch.burst.assign(n, 0);
  for (const acoustics::NoiseBurst& b : window.bursts) {
    const acoustics::SampleSpan span =
        acoustics::interval_sample_span(window.start_s, dt, n, b.start_s, b.end_s);
    for (std::size_t i = span.lo; i < span.hi; ++i) scratch.burst[i] = 1;
  }
}

/// Section 3.7 Goertzel detector: synthesize and filter in one fused loop;
/// the binary series is the sign of the noise-subtracted metric, shifted
/// left by the half-window group delay.
inline void goertzel_window(const ranging::RangingConfig& config, std::size_t n,
                            const acoustics::MicUnit& mic, math::Rng& rng,
                            PerSampleScratch& scratch) {
  const double fs = acoustics::kSampleRateHz;
  const double frequency_hz = config.pattern.tone_frequency_hz;
  rasterize_envelope(n, mic, scratch);
  scratch.tone_table.resize(n);
  const double step = 2.0 * math::kPi * frequency_hz / fs;
  for (std::size_t i = 0; i < n; ++i) {
    scratch.tone_table[i] = std::sin(step * static_cast<double>(i));
  }
  ranging::GoertzelToneDetector detector(frequency_hz);
  constexpr std::size_t kGroupDelay = ranging::kDftWindow / 2;
  scratch.fired.assign(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    const double sigma = scratch.burst[i] != 0 ? kBurstNoiseSigma : 1.0;
    const double sample =
        scratch.amplitude[i] * scratch.tone_table[i] + rng.gaussian(0.0, sigma);
    if (detector.step(sample) > 0.0 && i >= kGroupDelay) scratch.fired[i - kGroupDelay] = true;
  }
}

/// Matched-filter detector: per-sample synthesis (one gaussian per sample,
/// like the Goertzel loop), then NCC-picked onsets marked.
inline void ncc_window(const ranging::RangingConfig& config, std::size_t n,
                       const acoustics::MicUnit& mic, math::Rng& rng, PerSampleScratch& scratch) {
  const double fs = acoustics::kSampleRateHz;
  rasterize_envelope(n, mic, scratch);
  const acoustics::ToneTemplateView tpl =
      scratch.synth.tone_template_view(config.pattern.tone_frequency_hz, n);
  scratch.audio.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double sigma = scratch.burst[i] != 0 ? kBurstNoiseSigma : 1.0;
    scratch.audio[i] = scratch.amplitude[i] * tpl.sin_t[i] + rng.gaussian(0.0, sigma);
  }
  ranging::MatchedFilterNcc filter;
  const auto chirp_samples =
      static_cast<std::size_t>(std::llround(config.pattern.chirp_duration_s * fs));
  ncc_marks(filter, scratch.audio.data(), n, chirp_samples, tpl, scratch);
}

/// RangingService::measure, per sample. The counters are left in
/// scratch.accumulator.
inline ranging::RangingAttempt measure(const ranging::RangingService& service,
                                       double true_distance_m,
                                       const acoustics::SpeakerUnit& speaker,
                                       const acoustics::MicUnit& mic, math::Rng& rng,
                                       PerSampleScratch& scratch,
                                       const acoustics::LinkResponse* link = nullptr) {
  const ranging::RangingConfig& config = service.config();
  const std::size_t n = service.window_samples();
  ranging::RangingAttempt attempt;

  acoustics::ChirpPattern pattern = config.pattern;
  if (config.baseline) pattern.num_chirps = 1;
  acoustics::chirp_start_times_into(pattern, rng, scratch.starts);
  scratch.emissions.clear();
  for (double s : scratch.starts) scratch.emissions.push_back({s, pattern.chirp_duration_s});

  const double window_duration_s = static_cast<double>(n) / acoustics::kSampleRateHz;
  const double calibration_bias_s =
      config.tdoa.delta_const_true_s - ranging::kDeltaConstCalibratedS;
  const acoustics::LinkResponse link_local =
      link != nullptr ? *link : acoustics::link_response(true_distance_m, config.environment);

  scratch.accumulator.reset(n);
  for (const acoustics::Emission& emission : scratch.emissions) {
    const double sync_error_s =
        calibration_bias_s + rng.gaussian(0.0, config.tdoa.sync_jitter_s);
    eager_receive_into(scratch.received, scratch.emissions, emission.start_s - sync_error_s,
                       window_duration_s, link_local, speaker, mic, config.environment,
                       config.channel_jitter, rng);
    switch (config.detector_mode) {
      case ranging::DetectorMode::kHardware:
        sample_detector_window(config.environment, scratch.received, n, mic, rng, scratch);
        break;
      case ranging::DetectorMode::kGoertzel:
        goertzel_window(config, n, mic, rng, scratch);
        break;
      case ranging::DetectorMode::kMatchedFilter:
        ncc_window(config, n, mic, rng, scratch);
        break;
    }
    scratch.accumulator.record_chirp(scratch.fired);
  }

  const ranging::DetectionParams detection =
      config.baseline ? kBaselineDetection : config.detection;
  const std::vector<std::uint8_t>& samples = scratch.accumulator.samples();
  int index = detect_signal(samples, detection);
  if (!config.baseline && config.verify_pattern) {
    while (index >= 0 &&
           !verify_preceding_silence(samples, index, ranging::kSilenceGapSamples,
                                     detection.threshold, ranging::kSilenceMaxNoisy)) {
      ++attempt.rejected_detections;
      index = detect_signal(samples, detection, index + 1);
    }
  }
  if (index >= 0) {
    attempt.detection_index = index;
    attempt.distance_m = ranging::distance_from_detection_index(index);
  }
  return attempt;
}

}  // namespace resloc::reference
