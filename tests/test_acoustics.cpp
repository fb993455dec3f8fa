#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "acoustics/channel.hpp"
#include "acoustics/chirp_pattern.hpp"
#include "acoustics/environment.hpp"
#include "acoustics/propagation.hpp"
#include "acoustics/tone_detector.hpp"
#include "acoustics/units.hpp"
#include "math/rng.hpp"
#include "ranging/signal_detection.hpp"
#include "reference/figure9_dft.hpp"

namespace {

using namespace resloc::acoustics;
using resloc::math::Rng;
using resloc::reference::periodic_chirps;
using resloc::reference::synthesize_waveform;
using resloc::reference::WaveformSpec;

/// One chirp window through the production detector kernels: firing
/// threshold runs, then one Bernoulli draw per sample folded into a fresh
/// 4-bit accumulator, so every counter is 0 or 1. Returns how many fired.
std::size_t detector_hits(const ToneDetectorModel& detector, const ReceivedWindow& window,
                          std::size_t n, const MicUnit& mic, Rng& rng) {
  DetectorScratch scratch;
  detector.threshold_runs(window, n, mic, scratch);
  resloc::ranging::SignalAccumulator accumulator(n);
  accumulator.record_chirp_runs(rng, scratch.runs);
  const std::vector<std::uint8_t>& counters = accumulator.samples();
  return static_cast<std::size_t>(std::count(counters.begin(), counters.end(), 1));
}

/// SNR (dB) at `distance_m` from a source of `source_db`, composed from
/// link_response the way receive_into composes it (mic sensitivity 0 dB).
double link_snr_db(double source_db, double distance_m, const EnvironmentProfile& env) {
  const LinkResponse link = link_response(distance_m, env);
  return ((source_db - link.spreading_db) - link.excess_db) - env.noise_floor_db;
}

/// Distance at which the per-sample detection probability falls to `target`
/// (bisection over [0.1 m, 200 m]; detection falls monotonically with range).
double range_for_detection_probability(double source_db, const EnvironmentProfile& env,
                                       double target) {
  double lo = 0.1;
  double hi = 200.0;
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (detection_probability(link_snr_db(source_db, mid, env)) > target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

/// One chirp window at `distance_m` through the production channel.
ReceivedWindow receive(const std::vector<Emission>& emissions, double window_start_s,
                       double window_duration_s, double distance_m, const EnvironmentProfile& env,
                       const ChannelJitter& jitter, Rng& rng) {
  ReceivedWindow window;
  receive_into(window, emissions, window_start_s, window_duration_s,
               link_response(distance_m, env), SpeakerUnit{}, MicUnit{}, env, jitter, rng);
  return window;
}

TEST(Environment, ProfilesAreDistinct) {
  const auto grass = EnvironmentProfile::grass();
  const auto pavement = EnvironmentProfile::pavement();
  const auto urban = EnvironmentProfile::urban();
  const auto wooded = EnvironmentProfile::wooded();
  // Absorption ordering: pavement < urban < grass < wooded.
  EXPECT_LT(pavement.excess_attenuation_db_per_m, urban.excess_attenuation_db_per_m);
  EXPECT_LT(urban.excess_attenuation_db_per_m, grass.excess_attenuation_db_per_m);
  EXPECT_LT(grass.excess_attenuation_db_per_m, wooded.excess_attenuation_db_per_m);
  // Urban is the echo-rich environment.
  EXPECT_GT(urban.echo_rate, grass.echo_rate);
  EXPECT_GT(urban.echo_rate, pavement.echo_rate);
}

TEST(Propagation, AttenuationGrowsWithDistance) {
  const auto env = EnvironmentProfile::grass();
  double prev = link_snr_db(105.0, 0.5, env);
  for (double d = 1.0; d <= 40.0; d += 1.0) {
    const double snr = link_snr_db(105.0, d, env);
    EXPECT_LT(snr, prev);
    prev = snr;
  }
}

TEST(Propagation, SphericalSpreadingSixDbPerDoubling) {
  EnvironmentProfile vacuum;
  vacuum.excess_attenuation_db_per_m = 0.0;
  const LinkResponse l1 = link_response(5.0, vacuum);
  const LinkResponse l2 = link_response(10.0, vacuum);
  EXPECT_DOUBLE_EQ(l1.excess_db, 0.0);
  EXPECT_NEAR(l2.spreading_db - l1.spreading_db, 20.0 * std::log10(2.0), 1e-9);
  EXPECT_NEAR(l1.spreading_db, 20.0 * std::log10(50.0), 1e-9);  // from the 10 cm reference
}

TEST(Propagation, DetectionProbabilityMonotoneInSnr) {
  double prev = detection_probability(-20.0);
  for (double snr = -15.0; snr <= 40.0; snr += 5.0) {
    const double p = detection_probability(snr);
    EXPECT_GE(p, prev);
    EXPECT_GE(p, 0.0);
    EXPECT_LT(p, 1.0);  // saturates below 1: the detector misses even strong tones
    prev = p;
  }
  EXPECT_LT(detection_probability(-20.0), 0.001);
  EXPECT_GT(detection_probability(30.0), 0.9);
}

TEST(Propagation, PaperRangeShapes) {
  // Section 3.2 / 3.6.2 calibration targets (shape, not exact numbers):
  const auto grass = EnvironmentProfile::grass();
  const auto pavement = EnvironmentProfile::pavement();

  // Stock 88 dB buzzer dies within a few meters on grass...
  const double stock_grass = range_for_detection_probability(kStockBuzzerDb, grass, 0.3);
  EXPECT_LT(stock_grass, 8.0);
  // ...while the 105 dB loudspeaker reaches 2-4x farther.
  const double loud_grass = range_for_detection_probability(kLoudspeakerDb, grass, 0.3);
  EXPECT_GT(loud_grass, 2.0 * stock_grass);
  EXPECT_GT(loud_grass, 10.0);
  EXPECT_LT(loud_grass, 32.0);

  // Pavement carries much farther than grass.
  const double loud_pavement = range_for_detection_probability(kLoudspeakerDb, pavement, 0.3);
  EXPECT_GT(loud_pavement, 1.5 * loud_grass);
}

TEST(Units, SpeakerSamplingVariesAroundNominal) {
  UnitVariationModel model;
  model.fault_probability = 0.0;
  Rng rng(42);
  double min_db = 1e9;
  double max_db = -1e9;
  for (int i = 0; i < 200; ++i) {
    const auto s = model.sample_speaker(kLoudspeakerDb, rng);
    EXPECT_FALSE(s.faulty);
    min_db = std::min(min_db, s.output_db);
    max_db = std::max(max_db, s.output_db);
  }
  EXPECT_LT(min_db, kLoudspeakerDb - 1.0);
  EXPECT_GT(max_db, kLoudspeakerDb + 1.0);
  EXPECT_GT(min_db, kLoudspeakerDb - 10.0);  // bounded spread
}

TEST(Units, FaultySpeakerLosesPower) {
  SpeakerUnit s;
  s.output_db = 105.0;
  EXPECT_DOUBLE_EQ(s.effective_db(), 105.0);
  s.faulty = true;
  EXPECT_LT(s.effective_db(), 85.0);
}

TEST(Units, FaultProbabilityRespected) {
  UnitVariationModel model;
  model.fault_probability = 0.5;
  Rng rng(7);
  int faults = 0;
  for (int i = 0; i < 2000; ++i) {
    if (model.sample_mic(rng).faulty) ++faults;
  }
  EXPECT_NEAR(faults / 2000.0, 0.5, 0.05);
}

TEST(ChirpPattern, StartTimesRespectStructure) {
  ChirpPattern pattern;
  pattern.num_chirps = 10;
  Rng rng(3);
  std::vector<double> starts;
  chirp_start_times_into(pattern, rng, starts);
  ASSERT_EQ(starts.size(), 10u);
  EXPECT_DOUBLE_EQ(starts[0], 0.0);
  for (std::size_t i = 1; i < starts.size(); ++i) {
    const double gap = starts[i] - starts[i - 1];
    EXPECT_GE(gap, pattern.chirp_duration_s + kInterChirpGapS - 1e-12);
    EXPECT_LE(gap, pattern.chirp_duration_s + kInterChirpGapS + kRandomDelayMaxS + 1e-12);
  }
}

TEST(ChirpPattern, RandomDelaysDecorrelate) {
  ChirpPattern pattern;
  Rng rng1(1), rng2(2);
  std::vector<double> a;
  std::vector<double> b;
  chirp_start_times_into(pattern, rng1, a);
  chirp_start_times_into(pattern, rng2, b);
  bool differs = false;
  for (std::size_t i = 1; i < a.size(); ++i) {
    if (std::abs(a[i] - b[i]) > 1e-9) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Channel, DirectSignalArrivesAtTravelTime) {
  auto env = EnvironmentProfile::grass();
  env.echo_rate = 0.0;
  env.noise_burst_rate_hz = 0.0;
  ChannelJitter jitter;
  jitter.actuation_jitter_s = 0.0;
  Rng rng(5);
  const double d = 17.0;
  const auto window = receive({{0.0, 0.008}}, 0.0, 0.2, d, env, jitter, rng);
  // Ramp-up segment plus full-level segment.
  ASSERT_EQ(window.signals.size(), 2u);
  const double travel = d / kSpeedOfSoundMps;
  EXPECT_NEAR(window.signals[0].start_s, travel, 1e-9);
  EXPECT_NEAR(window.signals[0].end_s, travel + kRampupS, 1e-9);
  EXPECT_NEAR(window.signals[0].snr_db + kRampupPenaltyDb, window.signals[1].snr_db, 1e-9);
  EXPECT_NEAR(window.signals[1].end_s, travel + 0.008, 1e-9);
}

TEST(Channel, SignalsOutsideWindowAreDropped) {
  auto env = EnvironmentProfile::grass();
  env.echo_rate = 0.0;
  env.noise_burst_rate_hz = 0.0;
  Rng rng(6);
  // Emission whose sound arrives after the window closes.
  const auto window = receive({{10.0, 0.008}}, 0.0, 0.05, 5.0, env, ChannelJitter{}, rng);
  EXPECT_TRUE(window.signals.empty());
}

TEST(Channel, UrbanProducesEchoes) {
  const auto env = EnvironmentProfile::urban();
  Rng rng(8);
  std::size_t echo_windows = 0;
  for (int i = 0; i < 100; ++i) {
    const auto window = receive({{0.0, 0.008}}, 0.0, 0.3, 10.0, env, ChannelJitter{}, rng);
    if (window.signals.size() > 1) ++echo_windows;
  }
  EXPECT_GT(echo_windows, 30u);  // echo_rate 0.9 -> most windows see an echo
}

TEST(Channel, EchoesAreWeakerAndLater) {
  auto env = EnvironmentProfile::urban();
  env.noise_burst_rate_hz = 0.0;
  Rng rng(9);
  const double d = 10.0;
  const double body_snr = link_snr_db(SpeakerUnit{}.effective_db(), d, env);
  int echoes_seen = 0;
  for (int i = 0; i < 50; ++i) {
    ChannelJitter jitter;
    jitter.actuation_jitter_s = 0.0;
    const auto window = receive({{0.0, 0.008}}, 0.0, 0.5, d, env, jitter, rng);
    // The strongest interval is the full-level direct body; anything clearly
    // below it is an echo and must start no earlier than the direct signal.
    const double direct_start = d / kSpeedOfSoundMps;
    for (const auto& s : window.signals) {
      EXPECT_LE(s.snr_db, body_snr + 3.0);
      if (s.snr_db < body_snr - kRampupPenaltyDb - 0.5) {
        ++echoes_seen;
        EXPECT_GT(s.start_s, direct_start - 1e-9);
      }
    }
  }
  EXPECT_GT(echoes_seen, 20);  // urban is echo-rich
}

TEST(ToneDetector, StrongSignalDetectedOften) {
  auto env = EnvironmentProfile::grass();
  env.false_positive_rate = 0.0;
  const ToneDetectorModel detector(env);
  ReceivedWindow window;
  window.start_s = 0.0;
  window.duration_s = 0.01;
  window.signals.push_back({0.0, 0.01, 30.0});  // very strong tone everywhere
  Rng rng(10);
  const std::size_t hits = detector_hits(detector, window, 160, MicUnit{}, rng);
  EXPECT_GT(hits, 130u);  // ~95% hit rate
}

TEST(ToneDetector, NoSignalRespectsFalsePositiveRate) {
  auto env = EnvironmentProfile::grass();
  env.false_positive_rate = 0.05;
  env.noise_burst_rate_hz = 0.0;
  const ToneDetectorModel detector(env);
  ReceivedWindow window;
  window.duration_s = 1.0;
  Rng rng(11);
  const auto hits = static_cast<double>(detector_hits(detector, window, 16000, MicUnit{}, rng));
  EXPECT_NEAR(hits / 16000.0, 0.05, 0.01);
}

TEST(ToneDetector, NoiseBurstElevatesFalsePositives) {
  auto env = EnvironmentProfile::grass();
  env.false_positive_rate = 0.01;
  const ToneDetectorModel detector(env);
  ReceivedWindow window;
  window.duration_s = 0.1;
  window.bursts.push_back({0.0, 0.1});
  Rng rng(12);
  const auto hits = static_cast<double>(detector_hits(detector, window, 1600, MicUnit{}, rng));
  EXPECT_GT(hits / 1600.0, 0.2);
}

TEST(ToneDetector, FaultyMicIsNoisy) {
  auto env = EnvironmentProfile::grass();
  env.false_positive_rate = 0.005;
  env.noise_burst_rate_hz = 0.0;
  const ToneDetectorModel detector(env);
  ReceivedWindow window;
  window.duration_s = 0.1;
  MicUnit faulty;
  faulty.faulty = true;
  Rng rng(13);
  const auto hits = static_cast<double>(detector_hits(detector, window, 1600, faulty, rng));
  EXPECT_GT(hits / 1600.0, 0.08);
}

TEST(SignalSynth, CleanToneHasExpectedAmplitude) {
  WaveformSpec spec;
  spec.tone_amplitude = 1000.0;
  spec.noise_stddev = 0.0;
  Rng rng(14);
  const auto wave = synthesize_waveform(spec, {{0, 64}}, 128, rng);
  double peak = 0.0;
  for (std::size_t i = 0; i < 64; ++i) peak = std::max(peak, std::abs(wave[i]));
  EXPECT_NEAR(peak, 1000.0, 10.0);
  for (std::size_t i = 64; i < 128; ++i) EXPECT_DOUBLE_EQ(wave[i], 0.0);
}

TEST(SignalSynth, PeriodicChirpsPlacement) {
  const auto chirps = periodic_chirps(3, 100, 500, 128);
  ASSERT_EQ(chirps.size(), 3u);
  EXPECT_EQ(chirps[0].start_sample, 100u);
  EXPECT_EQ(chirps[1].start_sample, 600u);
  EXPECT_EQ(chirps[2].start_sample, 1100u);
}

TEST(SignalSynth, NoiseChangesWaveform) {
  WaveformSpec spec;
  spec.noise_stddev = 100.0;
  Rng rng(15);
  const auto wave = synthesize_waveform(spec, {}, 256, rng);
  double energy = 0.0;
  for (double s : wave) energy += s * s;
  EXPECT_GT(energy / 256.0, 100.0 * 100.0 * 0.5);
}

}  // namespace
