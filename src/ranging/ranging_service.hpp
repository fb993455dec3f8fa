// The acoustic ranging service: end-to-end simulation of one ranging sequence
// between a source (speaker) and a receiver (microphone + tone detector).
//
// Two operating modes mirror the paper:
//   - baseline (Section 3.1/3.3): a single chirp; the receiver takes the
//     first tone-detector firing as the signal onset. Echoes of earlier
//     chirps and noise bursts produce the large under/over-estimates of
//     Figure 2.
//   - refined (Section 3.5): the pattern's chirps are accumulated into 4-bit
//     counters aligned by the radio sync message; threshold detection with
//     the (T, k, m) parameters finds the onset; optionally the preceding-
//     silence pattern check rejects echo tails.
//
// Timing errors injected per chirp: calibration bias (delta_const_true -
// kDeltaConstCalibratedS), clock-sync jitter after MAC timestamping, speaker
// actuation jitter, and the 16 kHz sampling quantization.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "acoustics/channel.hpp"
#include "acoustics/chirp_pattern.hpp"
#include "acoustics/dsp_scratch.hpp"
#include "acoustics/environment.hpp"
#include "acoustics/signal_synth.hpp"
#include "acoustics/tone_detector.hpp"
#include "acoustics/units.hpp"
#include "math/rng.hpp"
#include "ranging/dft_detector.hpp"
#include "ranging/matched_filter.hpp"
#include "ranging/signal_detection.hpp"
#include "ranging/tdoa.hpp"

namespace resloc::ranging {

/// Which front end turns the received window into the per-sample boolean
/// series the accumulation detector consumes. All modes share the chirp
/// pattern, 4-bit accumulation, (T, k, m) detection, and silence
/// verification; they differ only in how one chirp window becomes booleans.
enum class DetectorMode {
  /// Hardware tone-detector model (Sections 3.4/3.5): interval-level
  /// probabilistic firing as a function of SNR. No sampled audio.
  kHardware,
  /// Software Goertzel tone detector (Section 3.7): synthesized audio through
  /// a 36-sample single-bin sliding DFT with Parseval noise subtraction.
  kGoertzel,
  /// Matched-filter NCC detector: synthesized audio correlated against the
  /// full-length WaveformSynthesizer chirp template with group-delay-
  /// compensated peak picking (see matched_filter.hpp). ~5.5 dB more
  /// processing gain than the Goertzel window; recovers weak direct arrivals
  /// whose fixed-lag echoes would otherwise set the detection index.
  kMatchedFilter,
};

/// Detector mode from its sweep-axis name ("hardware", "goertzel", "ncc").
/// Throws std::invalid_argument naming the unknown value -- a mistyped
/// detector axis fails the trial loudly instead of silently running the
/// default front end.
DetectorMode detector_mode_by_name(const std::string& name);

/// Canonical axis/report name of a detector mode.
std::string detector_mode_name(DetectorMode mode);

/// Preceding-silence pattern check (Section 3.5): a candidate onset is
/// rejected when more than kSilenceMaxNoisy of the kSilenceGapSamples (3 ms
/// at acoustics::kSampleRateHz) samples before it meet the detection
/// threshold.
inline constexpr int kSilenceGapSamples = 48;
inline constexpr int kSilenceMaxNoisy = 2;

/// Full configuration of the ranging service.
struct RangingConfig {
  acoustics::EnvironmentProfile environment = acoustics::EnvironmentProfile::grass();
  acoustics::ChirpPattern pattern;
  acoustics::ChannelJitter channel_jitter;
  DetectionParams detection;
  TdoaParams tdoa;

  /// Sampling window covers acoustic travel up to this range (default 40 m;
  /// determines the buffer size; Section 3.6.2 ties RAM to this).
  double max_window_range_m = 40.0;

  /// Baseline mode: one chirp, first-firing detection, no accumulation
  /// (default off = refined mode).
  bool baseline = false;

  /// Preceding-silence pattern verification with kSilenceGapSamples /
  /// kSilenceMaxNoisy (refined mode only; default on).
  bool verify_pattern = true;

  /// Detector front end (see DetectorMode). kHardware by default; kGoertzel
  /// is the Section 3.7 software tone detector (XSM-class platforms without a
  /// hardware detector sample the microphone and isolate the beacon band in
  /// software).
  DetectorMode detector_mode = DetectorMode::kHardware;
};

/// Diagnostic output of one measurement attempt.
struct RangingAttempt {
  std::optional<double> distance_m;      ///< estimate; nullopt = no detection
  int detection_index = -1;              ///< sample index of the detected onset
  int rejected_detections = 0;           ///< candidates failing the pattern check
};

/// Rejects a configuration no RangingService can run faithfully, throwing
/// std::invalid_argument that names the field:
///   - `pattern.num_chirps` outside [1, SignalAccumulator::kMaxChirps]
///     (chirps past the 4-bit counter cap would be paid for but never
///     recorded);
///   - a non-finite or non-positive `max_window_range_m` or
///     `pattern.chirp_duration_s` (they size the sample window), or
///     `pattern.tone_frequency_hz`;
///   - a non-finite or negative `channel_jitter.actuation_jitter_s` (a NaN
///     would drop every direct path);
///   - `detection.threshold` outside [1, SignalAccumulator::kMaxChirps] (no
///     4-bit counter can reach it), `detection.window` < 1, or
///     `detection.min_detections` outside [1, detection.window];
///   - a non-finite `tdoa.delta_const_true_s`, or a non-finite or negative
///     `tdoa.sync_jitter_s`;
///   - an `environment` with `false_positive_rate` outside [0, 1], a
///     non-finite or negative `echo_rate`, `noise_burst_rate_hz` or
///     `noise_burst_duration_s`, a non-finite or non-positive
///     `echo_delay_mean_s`, or any other non-finite number (an infinite echo
///     or burst rate would never finish drawing a window);
///   - a `detector_mode` that is not a known DetectorMode (an out-of-range
///     enum from a miswired cast or config merge must not silently fall back
///     to the hardware front end).
void validate_ranging_config(const RangingConfig& config);

/// Reusable working buffers for measure(). A campaign loop keeps one per
/// worker thread and passes it to every pair, so the per-sequence vectors
/// (emission schedule, received windows, kernel buffers, 4-bit counters) are
/// allocated once instead of once per pair -- the same buffer reuse the mote
/// firmware's fixed RAM layout implies (Section 3.6.2).
struct RangingScratch {
  std::vector<double> starts;
  std::vector<acoustics::Emission> emissions;
  /// One received window per chirp.
  std::vector<acoustics::ReceivedWindow> windows;
  /// Hardware mode: the generator each chirp window's detector draws start
  /// from (see RangingService::measure).
  std::vector<resloc::math::Rng> chirp_rngs;
  acoustics::DetectorScratch detector;
  /// The 4-bit counters of the last measure(); read them here for
  /// diagnostics (the measure path never copies them out).
  SignalAccumulator accumulator{0};
  /// detect-signal over those counters; its qualifying-sample mask buffer is
  /// reused across pairs.
  SignalScanner scanner;
  /// Sampled-audio modes: per-sample tone amplitudes. Goertzel mode: the
  /// Goertzel detector, keyed by the DFT bin of the chirp tone it was built
  /// for, so a scratch migrating between services whose tones land on
  /// different bins rebuilds it instead of silently filtering the wrong band;
  /// within one service it is built once and reused across every pair.
  std::vector<double> amplitude;
  std::optional<GoertzelToneDetector> goertzel;
  /// The synthesized window audio, and in matched-filter mode the NCC
  /// scanner. The synthesizer holds the chirp tone tables both sampled-audio
  /// modes mix into the audio (and NCC correlates against); it is the same
  /// engine the synthesis path uses, so detection and synthesis share one
  /// definition of the chirp.
  std::vector<double> audio;
  std::optional<MatchedFilterNcc> ncc;
  acoustics::WaveformSynthesizer synth;
  /// The sampled-audio kernel buffers (see dsp_scratch.hpp).
  acoustics::DspScratch dsp;
};

/// Simulates ranging sequences for one source/receiver pair.
class RangingService {
 public:
  /// Throws std::invalid_argument (naming the field) when
  /// validate_ranging_config rejects `config`.
  explicit RangingService(RangingConfig config);

  /// Runs one full ranging sequence at the given true distance; the result's
  /// distance_m is the estimate (nullopt when no signal is detected). Each
  /// chirp window runs as staged block kernels -- threshold runs +
  /// lane-split Bernoulli draws (hardware, in a channel pass over all
  /// windows and then an accumulate pass), or envelope/noise/tone synthesis
  /// over `scratch.dsp` feeding a block Goertzel or NCC scan (sampled-audio
  /// modes, chirp by chirp) -- and leaves the 4-bit counters in
  /// `scratch.accumulator`. The RNG stream is consumed exactly as one chirp
  /// after another would.
  ///
  /// `link` optionally supplies the distance-dependent channel response
  /// precomputed (usually by a sim::ChannelResponseCache); it must equal
  /// acoustics::link_response(true_distance_m, config().environment), and
  /// the result and RNG consumption are then bit-identical to passing
  /// nullptr, which computes the same response inline.
  RangingAttempt measure(double true_distance_m, const acoustics::SpeakerUnit& speaker,
                         const acoustics::MicUnit& mic, resloc::math::Rng& rng,
                         RangingScratch& scratch,
                         const acoustics::LinkResponse* link = nullptr) const;

  /// Number of samples in the per-chirp window.
  std::size_t window_samples() const { return window_samples_; }

  const RangingConfig& config() const { return config_; }

 private:
  /// Section 3.7 path: synthesize_window, then the Goertzel block over
  /// scratch.dsp, the group-delay-compensated binary series into
  /// scratch.dsp.fired.
  void goertzel_window(const acoustics::ReceivedWindow& window, const acoustics::MicUnit& mic,
                       resloc::math::Rng& rng, RangingScratch& scratch) const;

  /// Matched-filter path: synthesize_window, then NCC-picked chirp onsets
  /// marked into scratch.dsp.fired.
  void ncc_window(const acoustics::ReceivedWindow& window, const acoustics::MicUnit& mic,
                  resloc::math::Rng& rng, RangingScratch& scratch) const;

  /// Builds or retunes the scratch's cached tone table + Goertzel detector
  /// for this service and resets the detector for a fresh window.
  void prepare_goertzel(RangingScratch& scratch) const;

  /// The one synthesis path of both sampled-audio detectors, as staged block
  /// kernels over contiguous buffers: the window's signal intervals
  /// rasterized into scratch.amplitude and its noise bursts into
  /// scratch.detector.burst (consumes no randomness), one standard normal per
  /// sample into scratch.dsp.noise, then the tone + noise mix into
  /// scratch.audio. Every mode draws the same normals, so switching detector
  /// modes never shifts any other draw in the campaign. Returns the cached
  /// chirp-tone template the audio was mixed from.
  acoustics::ToneTemplateView synthesize_window(const acoustics::ReceivedWindow& window,
                                                const acoustics::MicUnit& mic,
                                                resloc::math::Rng& rng,
                                                RangingScratch& scratch) const;

  RangingConfig config_;
  std::size_t window_samples_;
  /// One hardware chirp window's detector draws: 2 * window_samples_ raw
  /// steps.
  resloc::math::Rng::Jump chirp_draws_;
  acoustics::ToneDetectorModel detector_;
};

}  // namespace resloc::ranging
