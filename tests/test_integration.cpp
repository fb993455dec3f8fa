// End-to-end integration tests: full ranging -> filtering -> localization
// pipelines on seeded scenarios, plus failure injection.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/alignment_protocol.hpp"
#include "core/distributed_lss.hpp"
#include "core/lss.hpp"
#include "core/multilateration.hpp"
#include "eval/metrics.hpp"
#include "sim/deployments.hpp"
#include "sim/measurement_gen.hpp"
#include "sim/scenarios.hpp"

namespace {

using namespace resloc;

TEST(Integration, GrassCampaignProducesUsableData) {
  const auto scenario = sim::grass_grid_scenario(1001, /*rounds=*/2);
  EXPECT_EQ(scenario.deployment.size(), 46u);
  // The campaign measures a substantial fraction of in-range pairs.
  EXPECT_GT(scenario.measurements.edge_count(), 120u);
  EXPECT_LT(scenario.measurements.edge_count(), 300u);
  // Median filtering keeps typical errors small.
  std::vector<double> errors;
  for (const auto& e : scenario.measurements.edges()) {
    const double true_d = math::distance(scenario.deployment.positions[e.i],
                                         scenario.deployment.positions[e.j]);
    errors.push_back(e.distance_m - true_d);
  }
  const auto report = eval::summarize_ranging_errors(errors);
  EXPECT_LT(report.median_abs_m, 0.8);
}

TEST(Integration, CentralizedLssOnFieldData) {
  const auto scenario = sim::grass_grid_scenario(1002, /*rounds=*/3);
  core::LssOptions options;
  options.min_spacing_m = 9.0;
  options.gd.max_iterations = 6000;
  options.independent_inits = 16;
  options.target_stress_per_edge = 0.75;
  math::Rng rng(3);
  const auto result = core::localize_lss(scenario.measurements, options, rng);
  const auto report =
      eval::evaluate_localization(result.positions, scenario.deployment.positions, true);
  // The paper reports 2.2 m on its field data; allow a generous band.
  EXPECT_LT(report.average_error_m, 5.0);
  EXPECT_EQ(report.localized, scenario.deployment.size());
}

TEST(Integration, MultilaterationVsLssOnSparseData) {
  // The paper's central comparison: on sparse field data, multilateration
  // localizes a minority while LSS localizes everyone.
  auto scenario = sim::grass_grid_scenario(1003, /*rounds=*/3);
  math::Rng anchor_rng(77);
  sim::choose_random_anchors(scenario.deployment, 13, anchor_rng);

  core::MultilaterationOptions mopt;
  math::Rng rng(4);
  const auto mlat =
      core::localize_by_multilateration(scenario.deployment, scenario.measurements, mopt, rng);
  const auto mlat_rep = eval::evaluate_localization(
      mlat.positions, scenario.deployment.positions, false, scenario.deployment.anchors);

  core::LssOptions lopt;
  lopt.min_spacing_m = 9.0;
  lopt.gd.max_iterations = 5000;
  lopt.independent_inits = 12;
  lopt.target_stress_per_edge = 0.75;
  const auto lss = core::localize_lss(scenario.measurements, lopt, rng);
  const auto lss_rep = eval::evaluate_localization(
      lss.positions, scenario.deployment.positions, true, scenario.deployment.anchors);

  EXPECT_LT(mlat_rep.localized, mlat_rep.total_nodes);  // some nodes always fail
  EXPECT_EQ(lss_rep.localized, lss_rep.total_nodes);    // LSS localizes everyone
}

TEST(Integration, DistributedImprovesWithDensity) {
  const auto scenario = sim::grass_grid_scenario(1004, /*rounds=*/3);
  core::DistributedLssOptions options;
  options.local_lss.min_spacing_m = 9.0;
  options.local_lss.independent_inits = 6;
  options.local_lss.restarts.rounds = 2;
  options.local_lss.gd.max_iterations = 1500;
  options.local_lss.target_stress_per_edge = 0.3;

  math::Rng rng1(5);
  const auto sparse = core::localize_distributed(scenario.measurements, 22, options, rng1);
  const auto sparse_rep =
      eval::evaluate_localization(sparse.result.positions, scenario.deployment.positions, true);

  auto augmented = scenario.measurements;
  sim::GaussianNoiseModel wide;
  wide.max_range_m = 30.0;
  math::Rng aug(6);
  sim::augment_with_gaussian(augmented, scenario.deployment, wide, aug, 370);
  math::Rng rng2(5);
  const auto dense = core::localize_distributed(augmented, 22, options, rng2);
  const auto dense_rep =
      eval::evaluate_localization(dense.result.positions, scenario.deployment.positions, true);

  EXPECT_LT(dense_rep.average_error_m, sparse_rep.average_error_m);
  EXPECT_EQ(dense_rep.localized, scenario.deployment.size());
}

/// Shifts each edge, with probability `fraction`, by a draw from
/// N(0, magnitude_sigma_m), clamped below at 0.3 m: gross echo/hardware
/// outliers on a synthetic measurement set.
void inject_outliers(core::MeasurementSet& measurements, double fraction,
                     double magnitude_sigma_m, math::Rng& rng) {
  const auto edges = measurements.edges();  // copy: add() mutates storage
  for (const auto& e : edges) {
    if (!rng.bernoulli(fraction)) continue;
    const double corrupted = std::max(0.3, e.distance_m + rng.gaussian(0.0, magnitude_sigma_m));
    measurements.add(e.i, e.j, corrupted, e.weight);
  }
}

TEST(Integration, OutlierInjectionDegradesGracefullyWithWeights) {
  // Corrupt 10% of edges; the weighted pipeline (downweight suspicious
  // unidirectional edges) should beat uniform weighting.
  const auto town = sim::town_blocks_59();
  math::Rng rng(7);
  auto clean = sim::gaussian_measurements(town, {}, rng);
  auto corrupted = clean;
  inject_outliers(corrupted, 0.10, 10.0, rng);

  core::LssOptions options;
  options.min_spacing_m = 9.0;
  options.gd.max_iterations = 5000;
  options.independent_inits = 12;
  options.target_stress_per_edge = 2.0;
  math::Rng r1(8);
  const auto noisy = core::localize_lss(corrupted, options, r1);
  const auto noisy_rep = eval::evaluate_localization(noisy.positions, town.positions, true);
  // Resilience claim: 10% gross outliers leave the map usable (a few meters),
  // not destroyed (tens of meters).
  EXPECT_LT(noisy_rep.average_error_m, 8.0);
}

TEST(Integration, FaultyHardwareCampaignStillLocalizes) {
  // Crank the hardware fault rate: per-node faults correlate errors. Keeping
  // every suspicious unidirectional estimate poisons the map; restricting to
  // bidirectionally-confirmed pairs (the Section 3.5 consistency check)
  // strips the per-node corruption and keeps localization usable.
  math::Rng rng(1005);
  core::Deployment deployment = sim::offset_grid_with_failures(3, rng);
  sim::FieldExperimentConfig config = sim::grass_campaign_config(/*rounds=*/3);
  config.units.fault_probability = 0.10;
  const auto data = sim::run_field_experiment(deployment, config, rng);

  core::MeasurementSet confirmed(deployment.size());
  confirmed.set_node_count(deployment.size());
  for (const auto& pair : data.raw.bidirectional_only(config.filter, 1.0)) {
    confirmed.add(pair.a, pair.b, pair.distance_m);
  }
  ASSERT_GT(confirmed.edge_count(), 100u);

  core::LssOptions options;
  options.min_spacing_m = 9.0;
  options.gd.max_iterations = 5000;
  options.independent_inits = 12;
  options.target_stress_per_edge = 1.0;
  math::Rng r(9);
  const auto result = core::localize_lss(confirmed, options, r);
  const auto report =
      eval::evaluate_localization(result.positions, deployment.positions, true);
  EXPECT_LT(report.average_without_worst(6), 5.0);
}

TEST(Integration, MessageLossSlowsButDoesNotBreakAlignment) {
  // Event-driven alignment under 20% radio loss: the flood is redundant
  // enough to keep most of the network aligned.
  const auto grid = sim::offset_grid(4, 4);
  math::Rng noise_rng(0);
  auto meas = sim::gaussian_measurements(grid, {/*sigma_m=*/0.0, /*max_range_m=*/22.0}, noise_rng);
  core::DistributedLssOptions options;
  options.local_lss.min_spacing_m = 9.0;
  options.local_lss.independent_inits = 8;
  options.local_lss.gd.max_iterations = 2500;
  options.local_lss.target_stress_per_edge = 1e-4;
  math::Rng rng(10);
  const auto graph_run = core::localize_distributed(meas, 0, options, rng);

  net::RadioParams radio;
  radio.range_m = 60.0;
  radio.loss_probability = 0.2;
  const auto protocol = core::run_alignment_protocol(graph_run.maps, 0, grid.positions,
                                                     options, radio, 1234);
  EXPECT_GE(protocol.result.localized_count(), grid.size() - 4);
}

}  // namespace
