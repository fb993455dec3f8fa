#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "acoustics/environment.hpp"
#include "math/stats.hpp"
#include "ranging/memory_model.hpp"
#include "ranging/ranging_service.hpp"
#include "ranging/statistical_filter.hpp"
#include "ranging/tdoa.hpp"
#include "sim/scenario_registry.hpp"
#include "sim/scenarios.hpp"

namespace {

using namespace resloc::ranging;
using resloc::math::Rng;

TEST(Tdoa, IndexDistanceRoundTrip) {
  for (double d : {1.0, 5.0, 10.0, 20.0}) {
    const int index = detection_index_for_distance(d);
    const double back = distance_from_detection_index(index);
    // Quantization error bounded by one sample of acoustic travel (~2.1 cm).
    EXPECT_NEAR(back, d,
                resloc::acoustics::kSpeedOfSoundMps / resloc::acoustics::kSampleRateHz + 1e-9);
  }
}

TEST(Tdoa, IndexZeroIsDistanceZero) {
  EXPECT_DOUBLE_EQ(distance_from_detection_index(0), 0.0);
}

TEST(Tdoa, WindowCoversRangePlusChirp) {
  const std::size_t samples = window_samples_for_range(20.0, 0.008);
  // 20 m at 340 m/s = 58.8 ms; + 8 ms chirp = 66.8 ms at 16 kHz = 1069 samples.
  EXPECT_NEAR(static_cast<double>(samples), (20.0 / 340.0 + 0.008) * 16000.0, 2.0);
}

TEST(MemoryModel, PaperRamBudget) {
  // Section 3.6.2: "for 15 samples at distances up to 20m, the service uses
  // less than 500 bytes of RAM" with 4 bits per offset.
  EXPECT_LT(hardware_detector_buffer_bytes(20.0), 500u);
  EXPECT_GT(hardware_detector_buffer_bytes(20.0), 400u);
}

TEST(MemoryModel, SoftwareDetectorIsLarger) {
  // Section 3.7: ~2 kB for 20 m at 16 kHz.
  const std::size_t software = dft_detector_buffer_bytes(20.0);
  EXPECT_GT(software, 1500u);
  EXPECT_LT(software, 3000u);
  EXPECT_GT(software, 3 * hardware_detector_buffer_bytes(20.0));
}

TEST(MemoryModel, MaxRangeInverse) {
  const std::size_t bytes = hardware_detector_buffer_bytes(20.0);
  const double range = hardware_detector_max_range_m(bytes);
  EXPECT_NEAR(range, 20.0, 0.1);
}

TEST(StatisticalFilter, EmptyInput) {
  EXPECT_FALSE(filter_measurements({}, FilterPolicy{}).has_value());
}

TEST(StatisticalFilter, MedianRemovesOutlier) {
  FilterPolicy policy;
  policy.kind = FilterKind::kMedian;
  const auto result = filter_measurements({10.0, 10.1, 9.9, 44.0, 10.05}, policy);
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR(*result, 10.05, 1e-9);
}

TEST(StatisticalFilter, MaxSamplesLimitsWindow) {
  FilterPolicy policy;
  policy.kind = FilterKind::kMedian;
  policy.max_samples = 3;
  // Only the first three measurements are used (Figure 4: "up to five").
  const auto result = filter_measurements({1.0, 2.0, 3.0, 100.0, 200.0}, policy);
  EXPECT_DOUBLE_EQ(*result, 2.0);
}

TEST(StatisticalFilter, AutoSwitchesToModeWithEnoughSamples) {
  // kAuto switches at kModeMinSamples (7) to the mode over 0.25 m bins.
  FilterPolicy policy;
  policy.kind = FilterKind::kAuto;
  // 4 samples -> median (average of the central pair).
  const auto median_result = filter_measurements({10.0, 10.1, 9.9, 20.0}, policy);
  // 7 samples -> mode; outliers cannot move the dominant bin.
  const auto mode_result =
      filter_measurements({10.0, 10.1, 9.9, 10.05, 9.95, 20.0, 30.0}, policy);
  ASSERT_TRUE(median_result && mode_result);
  EXPECT_DOUBLE_EQ(*median_result, 10.05);
  EXPECT_NEAR(*mode_result, 10.0, 0.5);
}

TEST(StatisticalFilter, ModeNeedsMoreSamplesThanMedian) {
  // The paper: mode "is more resistant to the effects of uncorrelated
  // outliers than the median, but it needs more measurements to be
  // effective". With 3 samples and 2 outliers in one bin, mode fails where
  // median fails too, but with 5 honest + 2 outliers mode nails it. The
  // filter never runs the mode below kModeMinSamples, so the 3-sample case
  // calls the estimator directly.
  const auto bad =
      resloc::math::binned_mode({10.0, 20.0, 20.1}, resloc::ranging::kModeBinWidthM);
  ASSERT_TRUE(bad.has_value());
  EXPECT_GT(*bad, 15.0);  // two correlated outliers dominate 1 honest sample
  const auto good =
      filter_measurements({10.0, 10.1, 9.9, 10.05, 9.95, 20.0, 20.1}, FilterPolicy{});
  EXPECT_NEAR(*good, 10.0, 0.5);
}

// --- End-to-end ranging service ---

TEST(RangingService, ShortRangeAccurate) {
  const auto config = resloc::sim::grass_refined_ranging();
  const RangingService service(config);
  Rng rng(1);
  RangingScratch scratch;
  int detections = 0;
  double worst = 0.0;
  for (int i = 0; i < 30; ++i) {
    const auto estimate = service
                              .measure(9.0, resloc::acoustics::SpeakerUnit{},
                                       resloc::acoustics::MicUnit{}, rng, scratch)
                              .distance_m;
    if (!estimate) continue;
    ++detections;
    worst = std::max(worst, std::abs(*estimate - 9.0));
  }
  EXPECT_GE(detections, 27);
  EXPECT_LT(worst, 1.5);
}

TEST(RangingService, BeyondMaxRangeRarelyDetects) {
  const auto config = resloc::sim::grass_refined_ranging();
  const RangingService service(config);
  Rng rng(2);
  RangingScratch scratch;
  int detections = 0;
  for (int i = 0; i < 30; ++i) {
    if (service.measure(28.0, resloc::acoustics::SpeakerUnit{}, resloc::acoustics::MicUnit{},
                        rng, scratch).distance_m) {
      ++detections;
    }
  }
  EXPECT_LE(detections, 3);
}

TEST(RangingService, GrassDetectionFallsOffWithDistance) {
  const auto config = resloc::sim::grass_refined_ranging();
  const RangingService service(config);
  Rng rng(3);
  RangingScratch scratch;
  const auto rate = [&](double d) {
    int det = 0;
    for (int i = 0; i < 25; ++i) {
      if (service.measure(d, resloc::acoustics::SpeakerUnit{}, resloc::acoustics::MicUnit{},
                          rng, scratch).distance_m) {
        ++det;
      }
    }
    return det / 25.0;
  };
  EXPECT_GT(rate(10.0), 0.85);  // reliable range
  EXPECT_LT(rate(24.0), 0.25);  // beyond max range
}

TEST(RangingService, StockBuzzerShorterRangeThanLoudspeaker) {
  const auto config = resloc::sim::grass_refined_ranging();
  const RangingService service(config);
  Rng rng(4);
  RangingScratch scratch;
  resloc::acoustics::SpeakerUnit stock;
  stock.output_db = resloc::acoustics::kStockBuzzerDb;
  int stock_detections = 0;
  int loud_detections = 0;
  for (int i = 0; i < 25; ++i) {
    if (service.measure(14.0, stock, resloc::acoustics::MicUnit{}, rng, scratch).distance_m) {
      ++stock_detections;
    }
    if (service.measure(14.0, resloc::acoustics::SpeakerUnit{}, resloc::acoustics::MicUnit{},
                        rng, scratch).distance_m) {
      ++loud_detections;
    }
  }
  EXPECT_GT(loud_detections, stock_detections + 10);
}

TEST(RangingService, RejectsChirpCountsOutsideTheCounterCap) {
  // 0 chirps records nothing; chirps past the 4-bit cap would be paid for but
  // never recorded. Both fail at construction, naming the field.
  for (const int chirps : {0, SignalAccumulator::kMaxChirps + 1}) {
    RangingConfig config = resloc::sim::grass_refined_ranging();
    config.pattern.num_chirps = chirps;
    try {
      const RangingService service(config);
      ADD_FAILURE() << "expected std::invalid_argument for " << chirps << " chirps";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("RangingConfig.pattern.num_chirps"), std::string::npos) << what;
    }
  }
  for (const int chirps : {1, SignalAccumulator::kMaxChirps}) {
    RangingConfig config = resloc::sim::grass_refined_ranging();
    config.pattern.num_chirps = chirps;
    EXPECT_NO_THROW(validate_ranging_config(config)) << chirps << " chirps";
  }
}

/// Expects the RangingService constructor to reject `config` with an
/// std::invalid_argument whose message names `field`.
void expect_rejected(const RangingConfig& config, const std::string& field,
                     const std::string& label) {
  try {
    const RangingService service(config);
    ADD_FAILURE() << "expected std::invalid_argument for " << label;
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("RangingConfig." + field), std::string::npos) << label << ": " << what;
  }
}

const double kNonPositiveOrNonFinite[] = {0.0, -1.0, std::nan(""), HUGE_VAL, -HUGE_VAL};

// The window size is a float-to-integer cast of these two fields, so they
// are validated before the service computes it.
TEST(RangingService, RejectsNonPositiveOrNonFiniteWindowRange) {
  for (const double range : kNonPositiveOrNonFinite) {
    RangingConfig config = resloc::sim::grass_refined_ranging();
    config.max_window_range_m = range;
    expect_rejected(config, "max_window_range_m", std::to_string(range));
  }
}

TEST(RangingService, RejectsNonPositiveOrNonFiniteChirpDuration) {
  for (const double duration : kNonPositiveOrNonFinite) {
    RangingConfig config = resloc::sim::grass_refined_ranging();
    config.pattern.chirp_duration_s = duration;
    expect_rejected(config, "pattern.chirp_duration_s", std::to_string(duration));
  }
}

TEST(RangingService, RejectsDetectionThresholdOutsideTheCounterRange) {
  for (const int threshold : {0, -1, SignalAccumulator::kMaxChirps + 1}) {
    RangingConfig config = resloc::sim::grass_refined_ranging();
    config.detection.threshold = threshold;
    expect_rejected(config, "detection.threshold", std::to_string(threshold));
  }
}

TEST(RangingService, RejectsEmptyDetectionWindow) {
  for (const int window : {0, -32}) {
    RangingConfig config = resloc::sim::grass_refined_ranging();
    config.detection.window = window;
    expect_rejected(config, "detection.window", std::to_string(window));
  }
}

TEST(RangingService, RejectsMinDetectionsOutsideTheWindow) {
  for (const int k : {0, -1, 33}) {
    RangingConfig config = resloc::sim::grass_refined_ranging();
    config.detection.window = 32;
    config.detection.min_detections = k;
    expect_rejected(config, "detection.min_detections", std::to_string(k));
  }
}

TEST(RangingService, AcceptsEveryDetectionSettingInUse) {
  const DetectionParams in_use[] = {
      {1, 32, 6}, {2, 32, 6}, {4, 32, 6},                            // the sweeps' T axis
      {4, 32, 10},                                                   // urban scenario
      {1, 32, 4}, {3, 32, 8}, {6, 32, 14},                           // ablation (T, k)
      {SignalAccumulator::kMaxChirps, 32, 6}, {1, 1, 1}, {2, 32, 32}  // range edges
  };
  for (const DetectionParams& detection : in_use) {
    RangingConfig config = resloc::sim::grass_refined_ranging();
    config.detection = detection;
    EXPECT_NO_THROW(validate_ranging_config(config))
        << "T=" << detection.threshold << " m=" << detection.window
        << " k=" << detection.min_detections;
  }
  EXPECT_NO_THROW(validate_ranging_config(resloc::sim::urban_refined_ranging()));
}

const double kNonFinite[] = {std::nan(""), HUGE_VAL, -HUGE_VAL};
const double kNegativeOrNonFinite[] = {-1e-9, -1.0, std::nan(""), HUGE_VAL, -HUGE_VAL};

TEST(RangingService, RejectsNonFiniteDeltaConst) {
  for (const double delta : kNonFinite) {
    RangingConfig config = resloc::sim::grass_refined_ranging();
    config.tdoa.delta_const_true_s = delta;
    expect_rejected(config, "tdoa.delta_const_true_s", std::to_string(delta));
  }
}

TEST(RangingService, RejectsNegativeOrNonFiniteSyncJitter) {
  for (const double jitter : kNegativeOrNonFinite) {
    RangingConfig config = resloc::sim::grass_refined_ranging();
    config.tdoa.sync_jitter_s = jitter;
    expect_rejected(config, "tdoa.sync_jitter_s", std::to_string(jitter));
  }
}

// The channel's lazy-draw bound reads the jitter; a NaN used to drop every
// direct path silently (no onset compares below the window's end).
TEST(RangingService, RejectsNegativeOrNonFiniteActuationJitter) {
  for (const double jitter : kNegativeOrNonFinite) {
    RangingConfig config = resloc::sim::grass_refined_ranging();
    config.channel_jitter.actuation_jitter_s = jitter;
    expect_rejected(config, "channel_jitter.actuation_jitter_s", std::to_string(jitter));
  }
}

TEST(RangingService, RejectsNonPositiveOrNonFiniteToneFrequency) {
  for (const double frequency : kNonPositiveOrNonFinite) {
    RangingConfig config = resloc::sim::grass_refined_ranging();
    config.pattern.tone_frequency_hz = frequency;
    expect_rejected(config, "pattern.tone_frequency_hz", std::to_string(frequency));
  }
}

TEST(RangingService, RejectsFalsePositiveRateOutsideTheUnitInterval) {
  for (const double rate : {-0.01, 1.01, std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    RangingConfig config = resloc::sim::grass_refined_ranging();
    config.environment.false_positive_rate = rate;
    expect_rejected(config, "environment.false_positive_rate", std::to_string(rate));
  }
  for (const double rate : {0.0, 1.0}) {
    RangingConfig config = resloc::sim::grass_refined_ranging();
    config.environment.false_positive_rate = rate;
    EXPECT_NO_THROW(validate_ranging_config(config)) << rate;
  }
}

TEST(RangingService, RejectsNegativeOrNonFiniteEchoRate) {
  for (const double rate : kNegativeOrNonFinite) {
    RangingConfig config = resloc::sim::grass_refined_ranging();
    config.environment.echo_rate = rate;
    expect_rejected(config, "environment.echo_rate", std::to_string(rate));
  }
}

TEST(RangingService, RejectsNegativeOrNonFiniteNoiseBurstRate) {
  for (const double rate : kNegativeOrNonFinite) {
    RangingConfig config = resloc::sim::grass_refined_ranging();
    config.environment.noise_burst_rate_hz = rate;
    expect_rejected(config, "environment.noise_burst_rate_hz", std::to_string(rate));
  }
}

TEST(RangingService, RejectsNegativeOrNonFiniteNoiseBurstDuration) {
  for (const double duration : kNegativeOrNonFinite) {
    RangingConfig config = resloc::sim::grass_refined_ranging();
    config.environment.noise_burst_duration_s = duration;
    expect_rejected(config, "environment.noise_burst_duration_s", std::to_string(duration));
  }
}

TEST(RangingService, RejectsNonPositiveOrNonFiniteEchoDelayMean) {
  for (const double delay : kNonPositiveOrNonFinite) {
    RangingConfig config = resloc::sim::grass_refined_ranging();
    config.environment.echo_delay_mean_s = delay;
    expect_rejected(config, "environment.echo_delay_mean_s", std::to_string(delay));
  }
}

TEST(RangingService, RejectsOtherNonFiniteEnvironmentNumbers) {
  using resloc::acoustics::EnvironmentProfile;
  const std::pair<const char*, double EnvironmentProfile::*> fields[] = {
      {"excess_attenuation_db_per_m", &EnvironmentProfile::excess_attenuation_db_per_m},
      {"noise_floor_db", &EnvironmentProfile::noise_floor_db},
      {"echo_attenuation_db", &EnvironmentProfile::echo_attenuation_db},
      {"fixed_echo_lag_s", &EnvironmentProfile::fixed_echo_lag_s},
      {"fixed_echo_attenuation_db", &EnvironmentProfile::fixed_echo_attenuation_db},
  };
  for (const auto& [name, field] : fields) {
    for (const double value : kNonFinite) {
      RangingConfig config = resloc::sim::grass_refined_ranging();
      config.environment.*field = value;
      expect_rejected(config, std::string("environment.") + name, std::to_string(value));
    }
  }
}

TEST(RangingService, AcceptsEveryBuiltInEnvironment) {
  // The environments the sweeps and scenarios resolve to, under the ranging
  // configurations the campaigns start from.
  std::vector<std::string> names = resloc::acoustics::environment_names();
  for (const std::string& scenario : resloc::sim::scenario_names()) {
    const std::string env = resloc::sim::scenario_environment(scenario);
    if (!env.empty()) names.push_back(env);
  }
  for (const RangingConfig& base :
       {resloc::sim::grass_refined_ranging(), resloc::sim::urban_refined_ranging(),
        resloc::sim::urban_baseline_ranging(), resloc::sim::grass_campaign_config().ranging,
        resloc::sim::urban_baseline_campaign_config().ranging}) {
    EXPECT_NO_THROW(validate_ranging_config(base));
    for (const std::string& name : names) {
      RangingConfig config = base;
      config.environment = resloc::acoustics::environment_by_name(name);
      EXPECT_NO_THROW(validate_ranging_config(config)) << name;
    }
  }
}

TEST(RangingService, DiagnosticsExposeDetectionIndex) {
  const auto config = resloc::sim::grass_refined_ranging();
  const RangingService service(config);
  Rng rng(5);
  RangingScratch scratch;
  const auto attempt = service.measure(10.0, resloc::acoustics::SpeakerUnit{},
                                       resloc::acoustics::MicUnit{}, rng, scratch);
  ASSERT_TRUE(attempt.distance_m.has_value());
  EXPECT_GE(attempt.detection_index, 0);
  EXPECT_EQ(scratch.accumulator.samples().size(), service.window_samples());
  // Detection index consistent with the returned distance.
  EXPECT_NEAR(distance_from_detection_index(attempt.detection_index),
              *attempt.distance_m, 1e-9);
}

TEST(RangingService, CalibrationBiasShiftsEstimates) {
  // A miscalibrated delta_const adds a constant offset (Section 3.6:
  // "a constant offset of 10-20cm may be added to every ranging measurement").
  // The detector itself has a small distance-invariant bias (it anchors on
  // the earliest jittered chirp onset), so compare against a calibrated run.
  const auto mean_error = [](const resloc::ranging::RangingConfig& config,
                             std::uint64_t seed) {
    const RangingService service(config);
    Rng rng(seed);
    RangingScratch scratch;
    std::vector<double> errors;
    for (int i = 0; i < 60; ++i) {
      const auto estimate = service
                                .measure(8.0, resloc::acoustics::SpeakerUnit{},
                                         resloc::acoustics::MicUnit{}, rng, scratch)
                                .distance_m;
      if (estimate) errors.push_back(*estimate - 8.0);
    }
    return resloc::math::mean(errors);
  };
  auto calibrated = resloc::sim::grass_refined_ranging();
  auto biased = calibrated;
  biased.tdoa.delta_const_true_s = kDeltaConstCalibratedS + 0.0006;
  const double shift = mean_error(biased, 6) - mean_error(calibrated, 6);
  EXPECT_NEAR(shift, 0.0006 * 340.0, 0.1);  // ~20 cm
}

TEST(RangingService, BaselineProducesMoreLargeErrorsThanRefined) {
  // The Figure 2 vs Figure 6 contrast, urban environment. The refined
  // service must use the urban-calibrated thresholds ("a high threshold is
  // advantageous in noisy environments").
  const auto baseline_config = resloc::sim::urban_baseline_ranging();
  const auto refined_config = resloc::sim::urban_refined_ranging();
  const RangingService baseline(baseline_config);
  const RangingService refined(refined_config);
  Rng rng(7);
  RangingScratch scratch;
  int baseline_large = 0;
  int refined_large = 0;
  for (int i = 0; i < 60; ++i) {
    const double d = 15.0;
    const resloc::acoustics::SpeakerUnit speaker;
    const resloc::acoustics::MicUnit mic;
    const auto b = baseline.measure(d, speaker, mic, rng, scratch).distance_m;
    const auto r = refined.measure(d, speaker, mic, rng, scratch).distance_m;
    if (b && std::abs(*b - d) > 1.0) ++baseline_large;
    if (r && std::abs(*r - d) > 1.0) ++refined_large;
  }
  EXPECT_GT(baseline_large, refined_large);
}

}  // namespace
