// The measurement-acquisition scaling contract: grid-culled pair enumeration
// must find exactly the dense scan's in-range pair set (same pairs, same
// order, same distances) across benign and degenerate geometries, and the
// campaign's counter-based RNG substreams must make its output independent of
// enumeration path and thread count -- byte for byte, not approximately.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "math/grid_pairs.hpp"
#include "math/rng.hpp"
#include "reference/dense_campaign.hpp"
#include "sim/field_experiment.hpp"
#include "sim/measurement_gen.hpp"
#include "sim/scenarios.hpp"

namespace {

using resloc::core::Deployment;
using resloc::core::MeasurementSet;
using resloc::core::NodeId;
using resloc::math::GridPairEnumerator;
using resloc::math::Rng;
using resloc::math::Vec2;
using resloc::reference::MeasurePath;
using resloc::reference::PairScan;

using PairList = std::vector<std::tuple<std::size_t, std::size_t, double>>;

PairList dense_pairs(const std::vector<Vec2>& points, double cutoff, bool include_equal) {
  PairList out;
  for (std::size_t i = 0; i + 1 < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      const double d = resloc::math::distance(points[i], points[j]);
      if (include_equal ? d <= cutoff : d < cutoff) out.emplace_back(i, j, d);
    }
  }
  return out;
}

PairList grid_pairs(const std::vector<Vec2>& points, double cutoff, bool include_equal) {
  GridPairEnumerator pairs;
  pairs.build(points.data(), points.size(), cutoff, include_equal);
  PairList out;
  pairs.for_each_pair([&](std::size_t i, std::size_t j, double d) { out.emplace_back(i, j, d); });
  return out;
}

void expect_matches_dense(const std::vector<Vec2>& points, double cutoff,
                          const char* label) {
  for (const bool include_equal : {false, true}) {
    const PairList dense = dense_pairs(points, cutoff, include_equal);
    const PairList grid = grid_pairs(points, cutoff, include_equal);
    // Exact tuple equality: same set, same (i, j)-lexicographic order, and
    // bit-identical distances (tested via == on the doubles).
    EXPECT_EQ(dense, grid) << label << " cutoff " << cutoff
                           << (include_equal ? " inclusive" : " strict");

    // Neighbor lists must replay the dense receiver scan's ascending order.
    GridPairEnumerator enumerator;
    enumerator.build(points.data(), points.size(), cutoff, include_equal);
    for (std::size_t i = 0; i < points.size(); ++i) {
      std::vector<std::size_t> expected;
      for (std::size_t j = 0; j < points.size(); ++j) {
        if (j == i) continue;
        const double d = resloc::math::distance(points[i], points[j]);
        if (include_equal ? d <= cutoff : d < cutoff) expected.push_back(j);
      }
      std::vector<std::size_t> got;
      enumerator.for_each_neighbor(i, [&](std::size_t j, double d) {
        got.push_back(j);
        EXPECT_EQ(d, resloc::math::distance(points[i], points[j]));
      });
      EXPECT_EQ(expected, got) << label << " node " << i;
      EXPECT_EQ(enumerator.degree(i), expected.size());
    }
  }
}

TEST(GridPairEnumerator, MatchesDenseScanOnRandomDeployment) {
  Rng rng(0xF1E1D);
  std::vector<Vec2> points;
  for (int i = 0; i < 70; ++i) {
    points.push_back({rng.uniform(0.0, 90.0), rng.uniform(0.0, 60.0)});
  }
  for (const double cutoff : {0.0, 4.0, 22.0, 45.0, 1000.0}) {
    expect_matches_dense(points, cutoff, "random");
  }
}

TEST(GridPairEnumerator, MatchesDenseScanOnClusteredDeployment) {
  // Tight blobs far apart: many same-cell candidates inside a blob, nothing
  // across blobs -- the regime that punishes a wrong cell size.
  Rng rng(0xC1);
  std::vector<Vec2> points;
  const Vec2 centers[] = {{0.0, 0.0}, {200.0, 10.0}, {40.0, 300.0}, {-150.0, -80.0}};
  for (const Vec2& c : centers) {
    for (int i = 0; i < 20; ++i) {
      points.push_back({c.x + rng.gaussian(0.0, 2.5), c.y + rng.gaussian(0.0, 2.5)});
    }
  }
  for (const double cutoff : {1.0, 8.0, 250.0}) {
    expect_matches_dense(points, cutoff, "clustered");
  }
}

TEST(GridPairEnumerator, MatchesDenseScanOnExactSpacingBoundaries) {
  // Collinear nodes at exact 10 m spacing with a cutoff of exactly 10, 20,
  // 30 m: every link distance sits on the strict-vs-inclusive boundary, the
  // case a grid cell sized exactly at the cutoff can lose to floating-point
  // rounding at cell edges.
  std::vector<Vec2> points;
  for (int i = 0; i < 41; ++i) points.push_back({10.0 * i, 3.0});
  for (const double cutoff : {10.0, 20.0, 30.0}) {
    expect_matches_dense(points, cutoff, "collinear-exact");
  }
  // The same boundary on a square lattice (both axes at play).
  std::vector<Vec2> lattice;
  for (int r = 0; r < 8; ++r) {
    for (int c = 0; c < 8; ++c) lattice.push_back({7.0 * c, 7.0 * r});
  }
  for (const double cutoff : {7.0, 7.0 * std::sqrt(2.0), 14.0}) {
    expect_matches_dense(lattice, cutoff, "lattice-exact");
  }
}

TEST(GridPairEnumerator, MatchesDenseScanOnDegenerateDeployments) {
  expect_matches_dense({}, 10.0, "empty");
  expect_matches_dense({{3.0, 4.0}}, 10.0, "single");
  // All coincident: every pair at distance 0 (kept only inclusively at
  // cutoff 0), all in one cell.
  std::vector<Vec2> coincident(12, Vec2{5.0, -7.0});
  for (const double cutoff : {0.0, 1.0}) {
    expect_matches_dense(coincident, cutoff, "coincident");
  }
  // Negative cutoff keeps nothing, inclusively or not.
  EXPECT_TRUE(grid_pairs(coincident, -1.0, true).empty());
}

// --- Campaign equivalence: the grid front end against the seed-shaped dense
// reference path, and thread-count independence. ---

Deployment small_field(std::size_t n, double side) {
  Deployment d;
  Rng rng(0xDE90 + n);
  for (std::size_t i = 0; i < n; ++i) {
    d.positions.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  }
  return d;
}

void expect_same_campaign(const resloc::sim::FieldExperimentData& a,
                          const resloc::sim::FieldExperimentData& b) {
  EXPECT_EQ(a.skipped_pairs, b.skipped_pairs);
  // Every raw estimate, per direction and in order, compared exactly.
  EXPECT_EQ(a.raw.entries(), b.raw.entries());
  ASSERT_EQ(a.filtered.size(), b.filtered.size());
  for (std::size_t i = 0; i < a.filtered.size(); ++i) {
    EXPECT_EQ(a.filtered[i].a, b.filtered[i].a);
    EXPECT_EQ(a.filtered[i].b, b.filtered[i].b);
    EXPECT_EQ(a.filtered[i].distance_m, b.filtered[i].distance_m);
    EXPECT_EQ(a.filtered[i].bidirectional, b.filtered[i].bidirectional);
  }
  const MeasurementSet ma = a.to_measurement_set(0);
  const MeasurementSet mb = b.to_measurement_set(0);
  ASSERT_EQ(ma.edge_count(), mb.edge_count());
  for (std::size_t i = 0; i < ma.edge_count(); ++i) {
    EXPECT_EQ(ma.edges()[i].i, mb.edges()[i].i);
    EXPECT_EQ(ma.edges()[i].j, mb.edges()[i].j);
    EXPECT_EQ(ma.edges()[i].distance_m, mb.edges()[i].distance_m);
  }
}

TEST(FieldExperimentScale, GridFrontEndMatchesDenseReferenceBitExactly) {
  const Deployment deployment = small_field(26, 55.0);
  resloc::sim::FieldExperimentConfig config = resloc::sim::grass_campaign_config(/*rounds=*/2);

  Rng rng_grid(31);
  const auto grid = resloc::sim::run_field_experiment(deployment, config, rng_grid);
  Rng rng_dense(31);
  const auto dense = resloc::reference::run_field_experiment(
      deployment, config, rng_dense, PairScan::kDense, MeasurePath::kProduction);

  EXPECT_GT(grid.raw.measurement_count(), 0u);
  expect_same_campaign(grid, dense);
  // Both paths must leave the caller's generator in the same state: only the
  // per-node unit draws advance it, never the campaign substreams.
  EXPECT_EQ(rng_grid.next_u32(), rng_dense.next_u32());
}

TEST(FieldExperimentScale, ThreadCountDoesNotChangeBytes) {
  const Deployment deployment = small_field(24, 50.0);
  resloc::sim::FieldExperimentConfig config = resloc::sim::grass_campaign_config(/*rounds=*/2);

  Rng rng1(97);
  const auto one = resloc::sim::run_field_experiment(deployment, config, rng1);
  config.threads = 4;
  Rng rng4(97);
  const auto four = resloc::sim::run_field_experiment(deployment, config, rng4);
  // The single-threaded dense reference matches the sharded campaign.
  Rng rng_dense(97);
  const auto dense4 = resloc::reference::run_field_experiment(
      deployment, config, rng_dense, PairScan::kDense, MeasurePath::kProduction);

  EXPECT_GT(one.raw.measurement_count(), 0u);
  expect_same_campaign(one, four);
  expect_same_campaign(one, dense4);
}

TEST(FieldExperimentScale, PerSampleReferenceCampaignMatchesProduction) {
  // The production block-DSP measure path against the per-sample reference
  // measure, campaign-wide: bench_campaign_scale's survey gate in miniature.
  const Deployment deployment = small_field(20, 45.0);
  const resloc::sim::FieldExperimentConfig config =
      resloc::sim::grass_campaign_config(/*rounds=*/2);
  Rng rng_block(53);
  const auto block = resloc::sim::run_field_experiment(deployment, config, rng_block);
  Rng rng_ref(53);
  const auto per_sample = resloc::reference::run_field_experiment(
      deployment, config, rng_ref, PairScan::kGrid, MeasurePath::kPerSample);
  EXPECT_GT(block.raw.measurement_count(), 0u);
  expect_same_campaign(block, per_sample);
}

TEST(FieldExperimentScale, SkippedPairsCountsOutOfRangePairsOnce) {
  // Three nodes: one close pair, one node far away -> 2 skipped unordered
  // pairs regardless of rounds, threads, or scan path.
  Deployment d;
  d.positions = {{0.0, 0.0}, {5.0, 0.0}, {500.0, 0.0}};
  resloc::sim::FieldExperimentConfig config = resloc::sim::grass_campaign_config(/*rounds=*/3);
  for (const bool dense : {false, true}) {
    Rng rng(3);
    const auto data = dense ? resloc::reference::run_field_experiment(
                                  d, config, rng, PairScan::kDense, MeasurePath::kProduction)
                            : resloc::sim::run_field_experiment(d, config, rng);
    EXPECT_EQ(data.skipped_pairs, 2u) << (dense ? "dense" : "grid");
  }
}

// --- Generator equivalence: the grid-culled synthetic generators against the
// seed's dense loops, draw for draw. ---

MeasurementSet legacy_gaussian(const Deployment& deployment,
                               const resloc::sim::GaussianNoiseModel& noise, Rng& rng) {
  MeasurementSet set(deployment.size());
  for (NodeId i = 0; i < deployment.size(); ++i) {
    for (NodeId j = i + 1; j < deployment.size(); ++j) {
      const double d = resloc::math::distance(deployment.positions[i], deployment.positions[j]);
      if (d >= noise.max_range_m) continue;
      set.add(i, j, std::max(0.05, d + rng.gaussian(0.0, noise.sigma_m)));
    }
  }
  return set;
}

std::size_t legacy_augment(MeasurementSet& measurements, const Deployment& deployment,
                           const resloc::sim::GaussianNoiseModel& noise, Rng& rng,
                           std::size_t max_added) {
  // The seed implementation, distance-recomputation flaw and all: the flaw
  // cost time, not draws, so the rewritten version must consume the
  // generator identically.
  measurements.set_node_count(deployment.size());
  std::vector<std::pair<NodeId, NodeId>> candidates;
  for (NodeId i = 0; i < deployment.size(); ++i) {
    for (NodeId j = i + 1; j < deployment.size(); ++j) {
      if (measurements.has(i, j)) continue;
      const double d = resloc::math::distance(deployment.positions[i], deployment.positions[j]);
      if (d < noise.max_range_m) candidates.emplace_back(i, j);
    }
  }
  rng.shuffle(candidates);
  std::size_t added = 0;
  for (const auto& [i, j] : candidates) {
    if (max_added > 0 && added >= max_added) break;
    const double d = resloc::math::distance(deployment.positions[i], deployment.positions[j]);
    measurements.add(i, j, std::max(0.05, d + rng.gaussian(0.0, noise.sigma_m)));
    ++added;
  }
  return added;
}

void expect_same_edges(const MeasurementSet& a, const MeasurementSet& b) {
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (std::size_t i = 0; i < a.edge_count(); ++i) {
    EXPECT_EQ(a.edges()[i].i, b.edges()[i].i);
    EXPECT_EQ(a.edges()[i].j, b.edges()[i].j);
    EXPECT_EQ(a.edges()[i].distance_m, b.edges()[i].distance_m);
    EXPECT_EQ(a.edges()[i].weight, b.edges()[i].weight);
  }
}

TEST(MeasurementGenScale, GaussianMeasurementsMatchLegacyDenseLoop) {
  const Deployment deployment = small_field(60, 70.0);
  resloc::sim::GaussianNoiseModel noise;
  Rng rng_new(0xAB);
  const MeasurementSet fast = resloc::sim::gaussian_measurements(deployment, noise, rng_new);
  Rng rng_old(0xAB);
  const MeasurementSet slow = legacy_gaussian(deployment, noise, rng_old);
  EXPECT_GT(fast.edge_count(), 0u);
  expect_same_edges(fast, slow);
  EXPECT_EQ(rng_new.next_u32(), rng_old.next_u32());
}

TEST(MeasurementGenScale, AugmentDrawsPerPairUnchangedByDistanceCache) {
  const Deployment deployment = small_field(50, 60.0);
  resloc::sim::GaussianNoiseModel noise;
  // Seed both sets with the same sparse base so augmentation has real gaps.
  Rng base_rng(0x5EED);
  MeasurementSet fast = resloc::sim::gaussian_measurements(deployment, noise, base_rng);
  fast = resloc::sim::subsample_edges(fast, fast.edge_count() / 3, base_rng);
  MeasurementSet slow = fast;

  for (const std::size_t max_added : {std::size_t{0}, std::size_t{17}}) {
    MeasurementSet fast_copy = fast;
    MeasurementSet slow_copy = slow;
    Rng rng_new(0xCAC4E);
    Rng rng_old(0xCAC4E);
    const std::size_t added_fast =
        resloc::sim::augment_with_gaussian(fast_copy, deployment, noise, rng_new, max_added);
    const std::size_t added_slow =
        legacy_augment(slow_copy, deployment, noise, rng_old, max_added);
    EXPECT_GT(added_fast, 0u);
    EXPECT_EQ(added_fast, added_slow);
    expect_same_edges(fast_copy, slow_copy);
    // Identical post-call state: the cache removed a distance computation,
    // not a draw.
    EXPECT_EQ(rng_new.next_u32(), rng_old.next_u32());
  }
}

}  // namespace
