// Resilience integration tests: the fault-injection tentpole end to end.
//
// What is pinned here: (1) a faulted campaign is byte-identical at any
// thread count, (2) every fault kind x intensity x solver combination is
// survivable -- trials fail closed with a classified reason, never by
// crashing the campaign, (3) degraded localization places under-constrained
// nodes with an explicit kDegraded status, (4) retries are deterministic and
// accounted, and (5) all-failed cells serialize sentinel statistics instead
// of fabricated zeros.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/multilateration.hpp"
#include "core/types.hpp"
#include "eval/aggregate.hpp"
#include "fault/fault_plan.hpp"
#include "ranging/signal_detection.hpp"
#include "runner/campaign_runner.hpp"
#include "runner/sweep_spec.hpp"
#include "sim/scenario_registry.hpp"
#include "sim/scenarios.hpp"

namespace {

using resloc::eval::FailureReason;
using resloc::pipeline::MeasurementSource;
using resloc::pipeline::Solver;
using resloc::runner::CampaignResult;
using resloc::runner::CampaignRunner;
using resloc::runner::RunnerOptions;
using resloc::runner::SweepSpec;

// A small acoustic sweep template: 16-node offset grid, 2-round grass
// campaign, degraded fixes allowed -- the resilience_smoke shape at test size.
SweepSpec acoustic_fault_sweep() {
  SweepSpec spec;
  spec.name = "resilience_test";
  spec.seed = 2026;
  spec.trials_per_cell = 1;
  spec.base.source = MeasurementSource::kAcousticRanging;
  spec.base.campaign = resloc::sim::grass_campaign_config(2);
  spec.base.multilateration.allow_degraded = true;
  spec.axes.scenarios = {"offset_grid"};
  spec.axes.solvers = {Solver::kMultilateration};
  spec.axes.node_counts = {16};
  spec.axes.anchor_counts = {6};
  return spec;
}

TEST(Resilience, FaultedCampaignIsByteIdenticalAcrossThreadCounts) {
  SweepSpec spec = acoustic_fault_sweep();
  spec.axes.fault_kinds = {"none", "node_crash", "corrupt_distance", "all"};
  spec.max_trial_retries = 1;

  const CampaignResult serial = CampaignRunner(RunnerOptions{1}).run(spec);
  const CampaignResult pooled = CampaignRunner(RunnerOptions{8}).run(spec);

  EXPECT_EQ(serial.to_json(), pooled.to_json());
  EXPECT_EQ(serial.to_csv(), pooled.to_csv());

  // The fault axes and resilience statistics are present in the emitters.
  const std::string json = serial.to_json();
  EXPECT_NE(json.find("\"fault_kind\": \"node_crash\""), std::string::npos);
  EXPECT_NE(json.find("\"mean_coverage\""), std::string::npos);
  EXPECT_NE(json.find("\"failed_trials\""), std::string::npos);
  const std::string csv = serial.to_csv();
  EXPECT_NE(csv.find("fault_kind,fault_intensity"), std::string::npos);
  EXPECT_NE(csv.find(",failed_trials,mean_coverage,mean_degraded_rate"), std::string::npos);
}

TEST(Resilience, FuzzMatrixNeverEscapesTheTrialBoundary) {
  // Every fault kind at two intensities under both paper solvers. The bar is
  // fail-closed: each trial either completes or records a classified failure;
  // an exception escaping run() would abort the test process itself.
  SweepSpec spec = acoustic_fault_sweep();
  spec.axes.solvers = {Solver::kMultilateration, Solver::kCentralizedLss};
  spec.axes.fault_kinds = resloc::fault::fault_kind_names();
  spec.axes.fault_intensities = {0.5, 2.0};

  const CampaignResult result = CampaignRunner(RunnerOptions{8}).run(spec);
  ASSERT_EQ(result.trials.size(),
            2u * resloc::fault::fault_kind_names().size() * 2u);
  std::size_t ok = 0;
  for (const auto& t : result.trials) {
    if (t.ok) {
      ++ok;
      EXPECT_EQ(t.failure, FailureReason::kNone);
    } else {
      EXPECT_NE(t.failure, FailureReason::kNone);
      EXPECT_FALSE(t.error.empty());
    }
    // Every placement statistic a downstream report reads must be finite or
    // the explicit NaN sentinel -- never an infinity leaked from corruption.
    EXPECT_FALSE(std::isinf(t.average_error_m));
    EXPECT_FALSE(std::isinf(t.placement_rate));
  }
  // The fault-free cells at minimum must succeed.
  EXPECT_GE(ok, 4u);

  // Serialization of the whole matrix is well-formed and deterministic.
  EXPECT_EQ(result.to_json(), CampaignRunner(RunnerOptions{3}).run(spec).to_json());
}

TEST(Resilience, DegradedMultilaterationPlacesUnderConstrainedNodes) {
  resloc::core::Deployment deployment;
  deployment.positions = {{0.0, 0.0}, {10.0, 0.0}, {5.0, 5.0}};
  deployment.anchors = {0, 1};
  resloc::core::MeasurementSet measurements(3);
  const double d = std::sqrt(50.0);
  measurements.add(0, 2, d);
  measurements.add(1, 2, d);

  resloc::core::MultilaterationOptions options;  // kMinAnchors = 3
  resloc::math::Rng rng_strict(4);
  const auto strict = resloc::core::localize_by_multilateration(
      deployment, measurements, options, rng_strict);
  EXPECT_FALSE(strict.positions[2].has_value());
  EXPECT_EQ(strict.status[2], resloc::core::LocalizationStatus::kUnlocalized);
  EXPECT_EQ(strict.degraded_count(), 0u);

  options.allow_degraded = true;
  resloc::math::Rng rng_degraded(4);
  const auto degraded = resloc::core::localize_by_multilateration(
      deployment, measurements, options, rng_degraded);
  ASSERT_TRUE(degraded.positions[2].has_value());
  EXPECT_EQ(degraded.status[2], resloc::core::LocalizationStatus::kDegraded);
  EXPECT_EQ(degraded.degraded_count(), 1u);
  // The two-anchor fix is one of the two mirror intersections of the range
  // circles: x is pinned, |y| matches up to solver tolerance.
  EXPECT_NEAR(degraded.positions[2]->x, 5.0, 0.5);
  EXPECT_NEAR(std::abs(degraded.positions[2]->y), 5.0, 0.5);
  // Anchors stay full-confidence.
  EXPECT_EQ(degraded.status[0], resloc::core::LocalizationStatus::kOk);
}

TEST(Resilience, RetriesAreAccountedAndDoNotPerturbSuccessfulRuns) {
  // A sweep where every trial succeeds first try must serialize identically
  // with and without a retry budget: attempt 0 uses the historical substreams.
  SweepSpec spec;
  spec.name = "retry_identity";
  spec.seed = 42;
  spec.trials_per_cell = 2;
  spec.base.source = MeasurementSource::kSyntheticGaussian;
  spec.axes.scenarios = {"offset_grid"};
  spec.axes.node_counts = {16};
  spec.axes.anchor_counts = {6};
  const std::string baseline = CampaignRunner(RunnerOptions{2}).run(spec).to_json();
  spec.max_trial_retries = 3;
  const CampaignResult retried = CampaignRunner(RunnerOptions{2}).run(spec);
  EXPECT_EQ(baseline, retried.to_json());
  for (const auto& t : retried.trials) EXPECT_EQ(t.attempts, 1u);

  // A deterministic failure burns the whole budget and stays classified.
  spec.axes.scenarios = {"no_such_scenario"};
  spec.trials_per_cell = 1;
  const CampaignResult failed = CampaignRunner(RunnerOptions{1}).run(spec);
  ASSERT_EQ(failed.trials.size(), 1u);
  EXPECT_FALSE(failed.trials[0].ok);
  EXPECT_EQ(failed.trials[0].attempts, 4u);  // 1 + max_trial_retries
  EXPECT_EQ(failed.trials[0].failure, FailureReason::kScenarioBuild);
}

TEST(Resilience, UnknownFaultKindIsAConfigStageFailure) {
  SweepSpec spec = acoustic_fault_sweep();
  spec.axes.fault_kinds = {"not_a_fault"};
  const CampaignResult result = CampaignRunner(RunnerOptions{1}).run(spec);
  ASSERT_EQ(result.trials.size(), 1u);
  EXPECT_FALSE(result.trials[0].ok);
  EXPECT_EQ(result.trials[0].failure, FailureReason::kConfig);
  EXPECT_NE(result.trials[0].error.find("not_a_fault"), std::string::npos);
}

TEST(Resilience, ChirpCountPastCounterCapIsAConfigStageFailure) {
  SweepSpec spec = acoustic_fault_sweep();
  spec.axes.chirp_counts = {16};
  const CampaignResult result = CampaignRunner(RunnerOptions{1}).run(spec);
  ASSERT_EQ(result.trials.size(), 1u);
  EXPECT_FALSE(result.trials[0].ok);
  EXPECT_EQ(result.trials[0].failure, FailureReason::kConfig);
  EXPECT_NE(result.trials[0].error.find("RangingConfig.pattern.num_chirps"), std::string::npos);
}

TEST(Resilience, DetectionThresholdPastCounterCapIsAConfigStageFailure) {
  SweepSpec spec = acoustic_fault_sweep();
  spec.axes.detection_thresholds = {resloc::ranging::SignalAccumulator::kMaxChirps + 1};
  const CampaignResult result = CampaignRunner(RunnerOptions{1}).run(spec);
  ASSERT_EQ(result.trials.size(), 1u);
  EXPECT_FALSE(result.trials[0].ok);
  EXPECT_EQ(result.trials[0].failure, FailureReason::kConfig);
  EXPECT_NE(result.trials[0].error.find("RangingConfig.detection.threshold"), std::string::npos);
}

TEST(Resilience, InfiniteInterferenceIsAConfigStageFailure) {
  // An infinite echo rate would never finish drawing a chirp window; the
  // trial must fail at config time instead of hanging in measurement.
  SweepSpec spec = acoustic_fault_sweep();
  spec.axes.interference_scales = {HUGE_VAL};
  const CampaignResult result = CampaignRunner(RunnerOptions{1}).run(spec);
  ASSERT_EQ(result.trials.size(), 1u);
  EXPECT_FALSE(result.trials[0].ok);
  EXPECT_EQ(result.trials[0].failure, FailureReason::kConfig);
  EXPECT_NE(result.trials[0].error.find("RangingConfig.environment.echo_rate"),
            std::string::npos)
      << result.trials[0].error;
}

TEST(Resilience, NonStdExceptionsAreIsolatedAndClassified) {
  // The catch-all tier: a scenario builder that throws a plain int must fail
  // its own trial with the dedicated classification, not the campaign.
  resloc::sim::register_scenario(
      "throws_plain_int",
      [](const resloc::sim::ScenarioParams&, resloc::math::Rng&) -> resloc::core::Deployment {
        throw 42;
      });
  SweepSpec spec;
  spec.name = "non_std";
  spec.seed = 1;
  spec.trials_per_cell = 1;
  spec.base.source = MeasurementSource::kSyntheticGaussian;
  spec.axes.scenarios = {"throws_plain_int", "offset_grid"};
  spec.axes.node_counts = {16};
  spec.axes.anchor_counts = {6};
  const CampaignResult result = CampaignRunner(RunnerOptions{2}).run(spec);
  ASSERT_EQ(result.trials.size(), 2u);
  EXPECT_FALSE(result.trials[0].ok);
  EXPECT_EQ(result.trials[0].failure, FailureReason::kNonStdException);
  EXPECT_EQ(result.trials[0].error, "non-std exception");
  EXPECT_TRUE(result.trials[1].ok);  // the campaign itself survived
}

TEST(Resilience, AllFailedCellsSerializeSentinelsNotZeros) {
  // Satellite pin: a cell where every trial failed reports coverage 0 (the
  // resilience headline: nothing was placed) but NaN/null for the statistics
  // that have no data -- a plotted 0 error would read as perfection.
  SweepSpec spec = acoustic_fault_sweep();
  spec.axes.scenarios = {"no_such_scenario"};
  spec.axes.fault_kinds = {"node_crash"};
  spec.trials_per_cell = 2;
  const CampaignResult result = CampaignRunner(RunnerOptions{1}).run(spec);
  ASSERT_EQ(result.cells.size(), 1u);
  const auto& agg = result.cells[0].aggregate;
  EXPECT_EQ(agg.trials, 2u);
  EXPECT_EQ(agg.ok_trials, 0u);
  EXPECT_EQ(agg.failed_trials, 2u);
  EXPECT_EQ(agg.mean_coverage, 0.0);
  EXPECT_TRUE(std::isnan(agg.mean_degraded_rate));
  EXPECT_TRUE(std::isnan(agg.mean_error_m));

  const std::string json = result.to_json();
  EXPECT_NE(json.find("\"failed_trials\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"mean_coverage\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"mean_degraded_rate\": null"), std::string::npos);
  EXPECT_NE(json.find("\"mean_error_m\": null"), std::string::npos);
}

TEST(Resilience, FaultFreeSweepsCarryNoResilienceColumns) {
  // Golden-compatibility pin: a sweep without a fault axis serializes exactly
  // the historical shape -- no fault columns, no resilience statistics.
  SweepSpec spec;
  spec.name = "plain";
  spec.seed = 42;
  spec.trials_per_cell = 1;
  spec.base.source = MeasurementSource::kSyntheticGaussian;
  spec.axes.scenarios = {"offset_grid"};
  spec.axes.node_counts = {16};
  spec.axes.anchor_counts = {6};
  const CampaignResult result = CampaignRunner(RunnerOptions{1}).run(spec);
  const std::string json = result.to_json();
  EXPECT_EQ(json.find("fault_kind"), std::string::npos);
  EXPECT_EQ(json.find("mean_coverage"), std::string::npos);
  EXPECT_EQ(json.find("failed_trials"), std::string::npos);
  const std::string csv = result.to_csv();
  EXPECT_EQ(csv.find("fault_"), std::string::npos);
  EXPECT_EQ(csv.find("mean_coverage"), std::string::npos);
}

}  // namespace
