#include "ranging/ranging_service.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/telemetry.hpp"
#include "ranging/dft_detector.hpp"

namespace resloc::ranging {

namespace {

/// Baseline detection: the raw tone detector's first sustained firing -- one
/// chirp, counts are 0/1, and a short 3-of-4 debounce stands in for the
/// hardware detector's own output latching.
constexpr DetectionParams kBaselineDetection{/*threshold=*/1, /*window=*/4,
                                             /*min_detections=*/3};

/// Software-detector mode: tone amplitude over the unit-variance sample noise
/// that reproduces an interval's SNR (tone power A^2/2 against sigma^2 = 1).
double amplitude_from_snr_db(double snr_db) {
  return std::sqrt(2.0 * std::pow(10.0, snr_db / 10.0));
}

/// Wide-band noise burst: the sample noise floor rises by ~12 dB for its
/// duration. Unlike the hardware detector's fixed false-positive bump, the
/// DFT path's Parseval noise estimate tracks the elevated floor, so bursts
/// mostly mask marginal tones rather than injecting detections -- the
/// robustness Section 3.7 buys at the price of raw sampling.
constexpr double kBurstNoiseSigma = 4.0;

/// Faulty microphone: a persistent in-band self-oscillation leak at borderline
/// amplitude, the software-path analogue of the hardware model's elevated
/// false-positive rate (Section 3.4, source 3/7).
constexpr double kFaultyMicLeakAmplitude = 1.0;
}  // namespace

DetectorMode detector_mode_by_name(const std::string& name) {
  if (name == "hardware") return DetectorMode::kHardware;
  if (name == "goertzel") return DetectorMode::kGoertzel;
  if (name == "ncc") return DetectorMode::kMatchedFilter;
  throw std::invalid_argument("unknown detector mode '" + name +
                              "' (known: hardware, goertzel, ncc)");
}

std::string detector_mode_name(DetectorMode mode) {
  switch (mode) {
    case DetectorMode::kHardware: return "hardware";
    case DetectorMode::kGoertzel: return "goertzel";
    case DetectorMode::kMatchedFilter: return "ncc";
  }
  return "unknown";
}

namespace {

[[noreturn]] void reject(const char* field, const std::string& value, const std::string& why) {
  throw std::invalid_argument(std::string("RangingConfig.") + field + " = " + value + " " + why);
}

void require_positive_finite(double value, const char* field) {
  if (!std::isfinite(value) || value <= 0.0) {
    reject(field, std::to_string(value), "must be finite and > 0; it sizes the sample window");
  }
}

void require_finite(double value, const char* field) {
  if (!std::isfinite(value)) reject(field, std::to_string(value), "must be finite");
}

void require_non_negative_finite(double value, const char* field, const char* why) {
  if (!std::isfinite(value) || value < 0.0) {
    reject(field, std::to_string(value), std::string("must be finite and >= 0; ") + why);
  }
}

/// Every EnvironmentProfile number feeds the channel simulation or the
/// detector model; the rates and durations drive Poisson loops in
/// acoustics::receive_into that never end at an infinite rate.
void validate_environment(const acoustics::EnvironmentProfile& env) {
  require_finite(env.excess_attenuation_db_per_m, "environment.excess_attenuation_db_per_m");
  require_finite(env.noise_floor_db, "environment.noise_floor_db");
  if (!(env.false_positive_rate >= 0.0 && env.false_positive_rate <= 1.0)) {
    reject("environment.false_positive_rate", std::to_string(env.false_positive_rate),
           "is outside [0, 1]; it is a per-sample probability");
  }
  require_non_negative_finite(env.echo_rate, "environment.echo_rate",
                              "it is the expected echo count per chirp");
  if (!std::isfinite(env.echo_delay_mean_s) || env.echo_delay_mean_s <= 0.0) {
    reject("environment.echo_delay_mean_s", std::to_string(env.echo_delay_mean_s),
           "must be finite and > 0; it is the mean of an exponential delay");
  }
  require_finite(env.echo_attenuation_db, "environment.echo_attenuation_db");
  require_finite(env.fixed_echo_lag_s, "environment.fixed_echo_lag_s");
  require_finite(env.fixed_echo_attenuation_db, "environment.fixed_echo_attenuation_db");
  require_non_negative_finite(env.noise_burst_rate_hz, "environment.noise_burst_rate_hz",
                              "it is the rate of a Poisson burst process");
  require_non_negative_finite(env.noise_burst_duration_s, "environment.noise_burst_duration_s",
                              "it is a duration");
}

// Validation runs before any member initializer reads the config: the window
// size is a float-to-integer cast that is undefined for a NaN or negative
// range or chirp duration.
RangingConfig validated(RangingConfig config) {
  validate_ranging_config(config);
  return config;
}

}  // namespace

void validate_ranging_config(const RangingConfig& config) {
  const std::string cap = std::to_string(SignalAccumulator::kMaxChirps);
  const int chirps = config.pattern.num_chirps;
  if (chirps < 1 || chirps > SignalAccumulator::kMaxChirps) {
    reject("pattern.num_chirps", std::to_string(chirps),
           "is outside [1, " + cap +
               "], the 4-bit counter cap; chirps past the cap would be paid for but never "
               "recorded");
  }
  require_positive_finite(config.max_window_range_m, "max_window_range_m");
  require_positive_finite(config.pattern.chirp_duration_s, "pattern.chirp_duration_s");
  if (!std::isfinite(config.pattern.tone_frequency_hz) || config.pattern.tone_frequency_hz <= 0.0) {
    reject("pattern.tone_frequency_hz", std::to_string(config.pattern.tone_frequency_hz),
           "must be finite and > 0; it is the chirp's tone");
  }
  require_non_negative_finite(config.channel_jitter.actuation_jitter_s,
                              "channel_jitter.actuation_jitter_s", "it is a standard deviation");
  require_finite(config.tdoa.delta_const_true_s, "tdoa.delta_const_true_s");
  require_non_negative_finite(config.tdoa.sync_jitter_s, "tdoa.sync_jitter_s",
                              "it is a standard deviation");
  validate_environment(config.environment);
  const DetectionParams& detection = config.detection;
  if (detection.threshold < 1 || detection.threshold > SignalAccumulator::kMaxChirps) {
    reject("detection.threshold", std::to_string(detection.threshold),
           "is outside [1, " + cap + "]; no 4-bit counter can reach it");
  }
  if (detection.window < 1) {
    reject("detection.window", std::to_string(detection.window), "must be >= 1");
  }
  if (detection.min_detections < 1 || detection.min_detections > detection.window) {
    reject("detection.min_detections", std::to_string(detection.min_detections),
           "is outside [1, detection.window = " + std::to_string(detection.window) + "]");
  }
  switch (config.detector_mode) {
    case DetectorMode::kHardware:
    case DetectorMode::kGoertzel:
    case DetectorMode::kMatchedFilter:
      return;
  }
  reject("detector_mode", std::to_string(static_cast<int>(config.detector_mode)),
         "is not a known DetectorMode (known: hardware, goertzel, ncc)");
}

RangingService::RangingService(RangingConfig config)
    : config_(validated(std::move(config))),
      window_samples_(window_samples_for_range(config_.max_window_range_m,
                                               config_.pattern.chirp_duration_s)),
      chirp_draws_(resloc::math::Rng::jump(2 * static_cast<std::uint64_t>(window_samples_))),
      detector_(config_.environment) {}

RangingAttempt RangingService::measure(double true_distance_m,
                                       const acoustics::SpeakerUnit& speaker,
                                       const acoustics::MicUnit& mic, resloc::math::Rng& rng,
                                       RangingScratch& scratch,
                                       const acoustics::LinkResponse* link) const {
  // The sub-stage spans attribute the per-pair acoustic-physics budget (the
  // wall ROADMAP item 1 targets) to named stages, so a regression lands on a
  // stage instead of "measure got slower". The stages are chained, one clock
  // read per boundary: where rdtsc is slow (~23 ns on virtualized cores) two
  // reads per span would cost several percent of a measure with telemetry
  // on. The sampled-audio front ends break the chain around their own spans.
  RESLOC_SPAN("ranging/measure");
  static const obs::SpanId kScheduleSpan = obs::intern_span("ranging/synthesis/schedule");
  static const obs::SpanId kChannelSpan = obs::intern_span("ranging/channel");
  static const obs::SpanId kAccumulateSpan = obs::intern_span("ranging/detection/accumulate");
  static const obs::SpanId kScanSpan = obs::intern_span("ranging/detection/scan");
  obs::SpanChain stages;
  obs::add(obs::Counter::kMeasureCalls);
  RangingAttempt attempt;

  acoustics::ChirpPattern pattern = config_.pattern;
  if (config_.baseline) pattern.num_chirps = 1;

  stages.next(kScheduleSpan);
  acoustics::chirp_start_times_into(pattern, rng, scratch.starts);
  scratch.emissions.clear();
  scratch.emissions.reserve(scratch.starts.size());
  for (double s : scratch.starts) {
    scratch.emissions.push_back({s, pattern.chirp_duration_s});
  }

  const double window_duration_s =
      static_cast<double>(window_samples_) / acoustics::kSampleRateHz;
  const double calibration_bias_s = config_.tdoa.delta_const_true_s - kDeltaConstCalibratedS;

  // The distance-dependent channel response: supplied by the campaign's
  // per-trial cache, or computed here once per measure (the per-chirp
  // receive_into used to redo the log10 spreading term for every window).
  const acoustics::LinkResponse link_local =
      link != nullptr ? *link : acoustics::link_response(true_distance_m, config_.environment);

  // The channel stage of one exchange: the receiver-side onset estimate
  // (true start shifted by the calibration bias plus the per-exchange
  // clock-sync jitter) and the window's link rasterization. Each window is
  // aligned by the radio sync of its chirp; echoes from *earlier* chirps
  // fall into later windows naturally because every emission is visible to
  // every window.
  const std::size_t chirps = scratch.emissions.size();
  scratch.windows.resize(chirps);
  const auto receive = [&](std::size_t k) -> const acoustics::ReceivedWindow& {
    obs::add(obs::Counter::kChirpWindows);
    const double sync_error_s =
        calibration_bias_s + rng.gaussian(0.0, config_.tdoa.sync_jitter_s);
    acoustics::receive_into(scratch.windows[k], scratch.emissions,
                            scratch.emissions[k].start_s - sync_error_s, window_duration_s,
                            link_local, speaker, mic, config_.environment,
                            config_.channel_jitter, rng);
    return scratch.windows[k];
  };

  if (config_.detector_mode == DetectorMode::kHardware) {
    // Every chirp window's detector draws are exactly 2n raw steps (one
    // uniform per sample, drawn even once the counters are full), so the
    // channel pass receives all windows, keeping the generator each window's
    // draws start from and jumping the stream over them; the accumulate pass
    // then draws each window from its kept generator. Draw for draw this is
    // the per-chirp interleaving, with two spans per measure instead of two
    // per chirp.
    stages.next(kChannelSpan);
    scratch.chirp_rngs.resize(chirps);
    for (std::size_t k = 0; k < chirps; ++k) {
      receive(k);
      scratch.chirp_rngs[k] = rng;
      rng.advance(chirp_draws_);
    }
    // Threshold runs (O(intervals)), then the fused draw + accumulate: one
    // uniform per sample, fired = uniform < its run's threshold.
    stages.next(kAccumulateSpan);
    scratch.accumulator.reset(window_samples_);
    for (std::size_t k = 0; k < chirps; ++k) {
      detector_.threshold_runs(scratch.windows[k], window_samples_, mic, scratch.detector);
      scratch.accumulator.record_chirp_runs(scratch.chirp_rngs[k], scratch.detector.runs);
    }
  } else {
    // The sampled-audio paths draw a data-dependent number of normals per
    // window, so they run chirp by chirp, time their own stages and leave
    // the binary series in scratch.dsp.fired to fold into the counters.
    scratch.dsp.resize(window_samples_);
    stages.next(kAccumulateSpan);
    scratch.accumulator.reset(window_samples_);
    for (std::size_t k = 0; k < chirps; ++k) {
      stages.next(kChannelSpan);
      const acoustics::ReceivedWindow& window = receive(k);
      stages.close();
      if (config_.detector_mode == DetectorMode::kGoertzel) {
        goertzel_window(window, mic, rng, scratch);
      } else {
        ncc_window(window, mic, rng, scratch);
      }
      stages.next(kAccumulateSpan);
      scratch.accumulator.record_chirp_block(scratch.dsp.fired.data(), window_samples_);
    }
  }

  // One pass over the accumulated counters: the scanner's qualifying-sample
  // mask serves the whole rejection loop, candidates and silence checks
  // alike, instead of restarting a sliding count after every rejected
  // candidate.
  stages.next(kScanSpan);
  const DetectionParams detection = config_.baseline ? kBaselineDetection : config_.detection;
  SignalScanner& scanner = scratch.scanner;
  scanner.reset(scratch.accumulator.samples(), detection);
  int index = scanner.next();
  if (!config_.baseline && config_.verify_pattern) {
    while (index >= 0 &&
           !scanner.verify_preceding_silence(index, kSilenceGapSamples, kSilenceMaxNoisy)) {
      ++attempt.rejected_detections;
      index = scanner.next();
    }
  }
  stages.close();

  if (index >= 0) {
    attempt.detection_index = index;
    attempt.distance_m = distance_from_detection_index(index);
    obs::add(obs::Counter::kMeasureDetections);
  }
  return attempt;
}

void RangingService::prepare_goertzel(RangingScratch& scratch) const {
  // The detector depends on the chirp tone only through its DFT bin, so it
  // is rebuilt only when a scratch migrates to a service whose tone lands on
  // another bin; otherwise one detector is reset and reused for every pair.
  const double frequency_hz = config_.pattern.tone_frequency_hz;
  const int bin =
      nearest_bin(frequency_hz, acoustics::kSampleRateHz, SlidingDftFilter::kWindow);
  if (!scratch.goertzel || scratch.goertzel->bin() != bin) {
    scratch.goertzel.emplace(frequency_hz);
  } else {
    scratch.goertzel->reset();
  }
}

void RangingService::goertzel_window(const acoustics::ReceivedWindow& window,
                                     const acoustics::MicUnit& mic, resloc::math::Rng& rng,
                                     RangingScratch& scratch) const {
  const std::size_t n = window_samples_;
  prepare_goertzel(scratch);
  synthesize_window(window, mic, rng, scratch);
  // The tone's absolute phase is irrelevant to the single-bin power. The
  // metric at step i covers samples (i - kWindow, i], so the series is
  // shifted left by the half-window group delay to line onsets up with the
  // hardware detector's per-sample convention; the residual latency is
  // within the actuation-jitter budget.
  RESLOC_SPAN("ranging/detection/goertzel");
  scratch.goertzel->run_block(scratch.audio.data(), n, scratch.dsp.metric.data());
  constexpr std::size_t kGroupDelay = SlidingDftFilter::kWindow / 2;
  const std::size_t live = n > kGroupDelay ? n - kGroupDelay : 0;
  std::uint8_t* fired = scratch.dsp.fired.data();
  const double* metric = scratch.dsp.metric.data();
  for (std::size_t j = 0; j < live; ++j) {
    fired[j] = static_cast<std::uint8_t>(metric[j + kGroupDelay] > 0.0);
  }
  std::fill(fired + live, fired + n, std::uint8_t{0});
}

void RangingService::ncc_window(const acoustics::ReceivedWindow& window,
                                const acoustics::MicUnit& mic, resloc::math::Rng& rng,
                                RangingScratch& scratch) const {
  const acoustics::ToneTemplateView tpl = synthesize_window(window, mic, rng, scratch);
  // The scanner's prefix-sum buffers are reused across pairs.
  if (!scratch.ncc) scratch.ncc.emplace();
  const auto chirp_samples = static_cast<std::size_t>(
      std::llround(config_.pattern.chirp_duration_s * acoustics::kSampleRateHz));
  RESLOC_SPAN("ranging/detection/ncc");
  scratch.ncc->detect_into(scratch.audio.data(), window_samples_, chirp_samples, tpl,
                           scratch.dsp.fired.data());
}

acoustics::ToneTemplateView RangingService::synthesize_window(
    const acoustics::ReceivedWindow& window, const acoustics::MicUnit& mic,
    resloc::math::Rng& rng, RangingScratch& scratch) const {
  const std::size_t n = window_samples_;
  {
    // Rasterize the audible intervals into a per-sample tone envelope (and
    // the bursts into a noise-floor flag) via the same exact contiguous spans
    // the hardware model uses, so all paths share one interval->sample
    // convention.
    RESLOC_SPAN("ranging/synthesis/envelope");
    const double dt = 1.0 / acoustics::kSampleRateHz;
    scratch.amplitude.assign(n, mic.faulty ? kFaultyMicLeakAmplitude : 0.0);
    for (const acoustics::SignalInterval& s : window.signals) {
      const double amp = amplitude_from_snr_db(s.snr_db);
      const acoustics::SampleSpan span =
          acoustics::interval_sample_span(window.start_s, dt, n, s.start_s, s.end_s);
      for (std::size_t i = span.lo; i < span.hi; ++i) {
        scratch.amplitude[i] = std::max(scratch.amplitude[i], amp);
      }
    }
    scratch.detector.burst.assign(n, 0);
    for (const acoustics::NoiseBurst& b : window.bursts) {
      const acoustics::SampleSpan span =
          acoustics::interval_sample_span(window.start_s, dt, n, b.start_s, b.end_s);
      std::fill(scratch.detector.burst.begin() + static_cast<std::ptrdiff_t>(span.lo),
                scratch.detector.burst.begin() + static_cast<std::ptrdiff_t>(span.hi),
                std::uint8_t{1});
    }
  }
  const acoustics::ToneTemplateView tone = scratch.synth.tone_template_view(
      acoustics::kSampleRateHz, config_.pattern.tone_frequency_hz, n);
  {
    RESLOC_SPAN("ranging/synthesis/noise");
    rng.fill_gaussian_block(scratch.dsp.noise.data(), n);
  }
  {
    // sigma * N(0, 1) is gaussian(0, sigma) bit for bit.
    RESLOC_SPAN("ranging/synthesis/tone");
    scratch.audio.resize(n);
    acoustics::mix_tone_noise_block(scratch.amplitude.data(), tone.sin_t,
                                    scratch.dsp.noise.data(), scratch.detector.burst.data(),
                                    kBurstNoiseSigma, scratch.audio.data(), n);
  }
  return tone;
}

}  // namespace resloc::ranging
