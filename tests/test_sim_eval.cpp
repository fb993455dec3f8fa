#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>

#include "eval/metrics.hpp"

#include "eval/report.hpp"
#include "math/stats.hpp"
#include "math/transform2d.hpp"
#include "sim/deployments.hpp"
#include "sim/measurement_gen.hpp"
#include "sim/scenario_registry.hpp"
#include "sim/scenarios.hpp"

namespace {

using namespace resloc::sim;
using resloc::core::Deployment;
using resloc::core::MeasurementSet;
using resloc::core::NodeId;
using resloc::math::Rng;
using resloc::math::Vec2;

/// Noise-free distances for every pair closer than `max_range_m`, through the
/// production generator at sigma 0.
MeasurementSet exact_measurements(const Deployment& d, double max_range_m) {
  Rng rng(0);
  return gaussian_measurements(d, {/*sigma_m=*/0.0, max_range_m}, rng);
}

TEST(Deployments, OffsetGridGeometry) {
  const auto d = offset_grid();
  EXPECT_EQ(d.size(), 49u);
  // Column spacing 9 m; even columns offset by 4.5 m. The paper discusses
  // node (0, 4.5): it must exist.
  bool found = false;
  for (const auto& p : d.positions) {
    if (std::abs(p.x) < 1e-9 && std::abs(p.y - 4.5) < 1e-9) found = true;
  }
  EXPECT_TRUE(found);
  // Nearest-neighbor distances are 9 m (in-column) and ~10 m (cross-column).
  double min_d = 1e9;
  for (std::size_t i = 0; i < d.size(); ++i) {
    for (std::size_t j = i + 1; j < d.size(); ++j) {
      min_d = std::min(min_d, resloc::math::distance(d.positions[i], d.positions[j]));
    }
  }
  EXPECT_NEAR(min_d, 9.0, 1e-9);
}

TEST(Deployments, OffsetGridWithFailures) {
  Rng rng(1);
  const auto d = offset_grid_with_failures(3, rng);
  EXPECT_EQ(d.size(), 46u);
}

TEST(Deployments, RandomUniformRespectsSpacingAndBounds) {
  Rng rng(2);
  const auto d = random_uniform(40, 100.0, 50.0, 5.0, rng);
  EXPECT_EQ(d.size(), 40u);
  for (const auto& p : d.positions) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 100.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 50.0);
  }
  for (std::size_t i = 0; i < d.size(); ++i) {
    for (std::size_t j = i + 1; j < d.size(); ++j) {
      EXPECT_GE(resloc::math::distance(d.positions[i], d.positions[j]), 5.0);
    }
  }
}

TEST(Deployments, TownBlocksInvariants) {
  const auto d = town_blocks_59();
  EXPECT_EQ(d.size(), 59u);
  // Min spacing supports the paper's 9 m soft constraint.
  double min_d = 1e9;
  for (std::size_t i = 0; i < d.size(); ++i) {
    for (std::size_t j = i + 1; j < d.size(); ++j) {
      min_d = std::min(min_d, resloc::math::distance(d.positions[i], d.positions[j]));
    }
  }
  EXPECT_GT(min_d, 8.5);
  // The 22 m measurement graph is connected (required for localization).
  const auto meas = exact_measurements(d, 22.0);
  EXPECT_GT(meas.edge_count(), 250u);
  std::vector<bool> seen(d.size(), false);
  std::vector<NodeId> stack{0};
  seen[0] = true;
  while (!stack.empty()) {
    const NodeId cur = stack.back();
    stack.pop_back();
    for (const auto& [n, dist] : meas.neighbors(cur)) {
      (void)dist;
      if (!seen[n]) {
        seen[n] = true;
        stack.push_back(n);
      }
    }
  }
  for (std::size_t i = 0; i < d.size(); ++i) EXPECT_TRUE(seen[i]) << "node " << i;
}

TEST(Deployments, ParkingLot) {
  const auto d = parking_lot_15();
  EXPECT_EQ(d.size(), 15u);
  EXPECT_EQ(d.anchors.size(), 5u);
  for (const auto& p : d.positions) {
    EXPECT_GE(p.x, -1.0);
    EXPECT_LE(p.x, 26.0);
  }
}

TEST(Deployments, RandomAnchors) {
  auto d = offset_grid();
  Rng rng(3);
  choose_random_anchors(d, 13, rng);
  EXPECT_EQ(d.anchors.size(), 13u);
  const std::set<NodeId> unique(d.anchors.begin(), d.anchors.end());
  EXPECT_EQ(unique.size(), 13u);
  EXPECT_TRUE(std::is_sorted(d.anchors.begin(), d.anchors.end()));
}

// Regression: an anchor request larger than the deployment used to be
// forwarded unchecked into sample_indices, which in release builds padded
// the pick list with duplicate zero indices.
TEST(Deployments, ChooseRandomAnchorsClampsOversizedCount) {
  auto d = offset_grid(3, 3);  // 9 nodes
  Rng rng(7);
  choose_random_anchors(d, 50, rng);
  EXPECT_EQ(d.anchors.size(), 9u);
  const std::set<NodeId> unique(d.anchors.begin(), d.anchors.end());
  EXPECT_EQ(unique.size(), 9u);  // distinct picks, no duplicates
  for (NodeId id : d.anchors) EXPECT_LT(id, 9u);
}

TEST(Deployments, ChooseRandomAnchorsReplacesPreviousSet) {
  auto d = offset_grid();
  Rng first(1);
  choose_random_anchors(d, 13, first);
  Rng second(2);
  choose_random_anchors(d, 5, second);  // second call must not accumulate
  EXPECT_EQ(d.anchors.size(), 5u);
  const std::set<NodeId> unique(d.anchors.begin(), d.anchors.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(ScenarioRegistry, BuiltinsPresent) {
  for (const char* name :
       {"offset_grid", "grass_grid", "town", "parking_lot", "random_uniform"}) {
    EXPECT_TRUE(has_scenario(name)) << name;
  }
  EXPECT_FALSE(has_scenario("no_such_scenario"));
  const auto names = scenario_names();
  EXPECT_GE(names.size(), 5u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(ScenarioRegistry, BuildsParameterizedDeployments) {
  Rng rng(11);
  ScenarioParams params;
  params.node_count = 25;
  const auto grid = build_scenario("offset_grid", params, rng);
  EXPECT_EQ(grid.size(), 25u);

  ScenarioParams defaults;
  Rng rng2(11);
  EXPECT_EQ(build_scenario("grass_grid", defaults, rng2).size(), 46u);  // 49 - 3 failures
  EXPECT_EQ(build_scenario("town", defaults, rng2).size(), 59u);
  EXPECT_EQ(build_scenario("parking_lot", defaults, rng2).anchors.size(), 5u);
  EXPECT_THROW(build_scenario("no_such_scenario", defaults, rng2), std::out_of_range);
}

TEST(ScenarioRegistry, FixedGeometryRejectsMismatchedNodeCount) {
  Rng rng(19);
  ScenarioParams params;
  params.node_count = 25;  // town is a fixed 59-node layout
  EXPECT_THROW(build_scenario("town", params, rng), std::invalid_argument);
  EXPECT_THROW(build_scenario("parking_lot", params, rng), std::invalid_argument);
  params.node_count = 59;  // the native size is accepted
  EXPECT_EQ(build_scenario("town", params, rng).size(), 59u);
}

TEST(ScenarioRegistry, DropPreservesAnchorsAndRemapsIds) {
  Rng rng(13);
  auto lot = parking_lot_15();
  drop_random_nodes(lot, 4, rng);
  EXPECT_EQ(lot.size(), 11u);  // 15 - 4, anchors never dropped
  EXPECT_EQ(lot.anchors.size(), 5u);
  for (NodeId id : lot.anchors) EXPECT_LT(id, lot.size());
  const std::set<NodeId> unique(lot.anchors.begin(), lot.anchors.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(ScenarioRegistry, RegisterCustomScenario) {
  register_scenario("unit_test_line", [](const ScenarioParams& p, Rng&) {
    Deployment d;
    const std::size_t n = p.node_count == 0 ? 3 : p.node_count;
    for (std::size_t i = 0; i < n; ++i) {
      d.positions.push_back(Vec2{static_cast<double>(i) * 10.0, 0.0});
    }
    return d;
  });
  Rng rng(17);
  ScenarioParams params;
  params.node_count = 6;
  EXPECT_EQ(build_scenario("unit_test_line", params, rng).size(), 6u);
}

TEST(MeasurementGen, NoiseFreeMeasurementsRespectCutoff) {
  const auto d = offset_grid(3, 3);
  const auto meas = exact_measurements(d, 10.5);
  for (const auto& e : meas.edges()) {
    EXPECT_LT(e.distance_m, 10.5);
    EXPECT_NEAR(e.distance_m,
                resloc::math::distance(d.positions[e.i], d.positions[e.j]), 1e-12);
  }
}

TEST(MeasurementGen, GaussianNoiseStatistics) {
  const auto d = offset_grid();
  Rng rng(4);
  GaussianNoiseModel noise;
  const auto meas = gaussian_measurements(d, noise, rng);
  std::vector<double> errors;
  for (const auto& e : meas.edges()) {
    errors.push_back(e.distance_m -
                     resloc::math::distance(d.positions[e.i], d.positions[e.j]));
  }
  ASSERT_GT(errors.size(), 100u);
  EXPECT_NEAR(resloc::math::mean(errors), 0.0, 0.08);
  EXPECT_NEAR(resloc::math::stddev(errors), 0.33, 0.08);
}

TEST(MeasurementGen, AugmentOnlyAddsMissing) {
  const auto d = offset_grid(3, 3);
  Rng rng(5);
  auto meas = exact_measurements(d, 10.5);
  const std::size_t before = meas.edge_count();
  const std::size_t full = exact_measurements(d, 22.0).edge_count();
  const std::size_t added = augment_with_gaussian(meas, d, {}, rng, 0);
  EXPECT_EQ(meas.edge_count(), before + added);
  EXPECT_EQ(meas.edge_count(), full);
  // Idempotent: nothing more to add.
  Rng rng2(6);
  EXPECT_EQ(augment_with_gaussian(meas, d, {}, rng2, 0), 0u);
}

TEST(MeasurementGen, AugmentRespectsCap) {
  const auto d = offset_grid();
  Rng rng(7);
  MeasurementSet meas(d.size());
  const std::size_t added = augment_with_gaussian(meas, d, {}, rng, 10);
  EXPECT_EQ(added, 10u);
  EXPECT_EQ(meas.edge_count(), 10u);
}

TEST(MeasurementGen, SubsampleEdges) {
  const auto d = offset_grid();
  Rng rng(8);
  const auto full = exact_measurements(d, 22.0);
  const auto sub = subsample_edges(full, 50, rng);
  EXPECT_EQ(sub.edge_count(), 50u);
  EXPECT_EQ(sub.node_count(), full.node_count());
  for (const auto& e : sub.edges()) EXPECT_TRUE(full.has(e.i, e.j));
}

// --- eval ---

TEST(Metrics, PerfectEstimatesZeroError) {
  const std::vector<Vec2> actual{{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}};
  const auto report = resloc::eval::evaluate_localization(actual, actual, false);
  EXPECT_EQ(report.localized, 3u);
  EXPECT_DOUBLE_EQ(report.average_error_m, 0.0);
}

TEST(Metrics, UnlocalizedNodesCounted) {
  std::vector<std::optional<Vec2>> est{Vec2{0.0, 0.0}, std::nullopt, Vec2{0.0, 1.2}};
  const std::vector<Vec2> actual{{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}};
  const auto report = resloc::eval::evaluate_localization(est, actual, false);
  EXPECT_EQ(report.total_nodes, 3u);
  EXPECT_EQ(report.localized, 2u);
  EXPECT_NEAR(report.average_error_m, 0.1, 1e-12);
  EXPECT_NEAR(report.localized_fraction(), 2.0 / 3.0, 1e-12);
  EXPECT_FALSE(report.node_errors[1].has_value());
  EXPECT_TRUE(report.node_errors[2].has_value());
}

TEST(Metrics, ExclusionList) {
  const std::vector<Vec2> actual{{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}};
  std::vector<std::optional<Vec2>> est{Vec2{5.0, 5.0}, Vec2{1.0, 0.0}, Vec2{0.0, 1.0}};
  const auto report = resloc::eval::evaluate_localization(est, actual, false, {0});
  EXPECT_EQ(report.total_nodes, 2u);
  EXPECT_DOUBLE_EQ(report.average_error_m, 0.0);
}

TEST(Metrics, AlignmentRemovesRigidMotion) {
  const std::vector<Vec2> actual{{0.0, 0.0}, {10.0, 0.0}, {10.0, 10.0}, {0.0, 10.0}};
  const resloc::math::Transform2D motion(0.9, true, {50.0, -20.0});
  std::vector<Vec2> est;
  for (const Vec2& p : actual) est.push_back(motion.apply(p));
  const auto unaligned = resloc::eval::evaluate_localization(est, actual, false);
  const auto aligned = resloc::eval::evaluate_localization(est, actual, true);
  EXPECT_GT(unaligned.average_error_m, 10.0);
  EXPECT_NEAR(aligned.average_error_m, 0.0, 1e-9);
}

TEST(Metrics, AverageWithoutWorst) {
  resloc::eval::LocalizationReport report;
  report.per_node_errors = {1.0, 1.0, 1.0, 10.0};
  EXPECT_DOUBLE_EQ(report.average_without_worst(1), 1.0);
  EXPECT_DOUBLE_EQ(report.average_without_worst(4), 0.0);  // nothing left
}

TEST(Metrics, RangingSummary) {
  const std::vector<double> errors{-0.1, 0.2, 0.05, -2.0, 3.5, 0.0};
  const auto report = resloc::eval::summarize_ranging_errors(errors);
  EXPECT_EQ(report.count, 6u);
  EXPECT_EQ(report.underestimates_beyond_1m, 1u);
  EXPECT_EQ(report.overestimates_beyond_1m, 1u);
  EXPECT_DOUBLE_EQ(report.within_30cm_fraction, 4.0 / 6.0);
  EXPECT_DOUBLE_EQ(report.max_abs_m, 3.5);
}

TEST(Report, TableFormatsRows) {
  resloc::eval::Table table({"name", "value"});
  table.add_row(std::vector<std::string>{"alpha", "1"});
  table.add_row({2.5, 10.136}, 2);
  const std::string out = table.to_string();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("10.14"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
}

}  // namespace
