#include <gtest/gtest.h>

#include <cmath>

#include "core/lss.hpp"
#include "eval/metrics.hpp"
#include "math/transform2d.hpp"
#include "reference/classical_mds.hpp"
#include "sim/deployments.hpp"
#include "sim/measurement_gen.hpp"

namespace {

using namespace resloc::core;
using resloc::math::Rng;
using resloc::math::Vec2;

/// Small square with full noise-free measurements.
MeasurementSet unit_square_measurements() {
  MeasurementSet set(4);
  const std::vector<Vec2> pos{{0.0, 0.0}, {10.0, 0.0}, {10.0, 10.0}, {0.0, 10.0}};
  for (NodeId i = 0; i < 4; ++i) {
    for (NodeId j = i + 1; j < 4; ++j) {
      set.add(i, j, resloc::math::distance(pos[i], pos[j]));
    }
  }
  return set;
}

TEST(LssStress, ZeroAtExactConfiguration) {
  const auto meas = unit_square_measurements();
  const std::vector<Vec2> exact{{0.0, 0.0}, {10.0, 0.0}, {10.0, 10.0}, {0.0, 10.0}};
  LssOptions opt;
  opt.min_spacing_m = 5.0;
  EXPECT_NEAR(lss_stress(meas, exact, opt), 0.0, 1e-12);
}

TEST(LssStress, RigidMotionInvariant) {
  const auto meas = unit_square_measurements();
  const std::vector<Vec2> exact{{0.0, 0.0}, {10.0, 0.0}, {10.0, 10.0}, {0.0, 10.0}};
  std::vector<Vec2> moved;
  const resloc::math::Transform2D motion(0.7, true, {33.0, -12.0});
  for (const Vec2& p : exact) moved.push_back(motion.apply(p));
  LssOptions opt;
  opt.min_spacing_m = 5.0;
  EXPECT_NEAR(lss_stress(meas, moved, opt), 0.0, 1e-9);
}

TEST(LssStress, PenalizesWrongDistances) {
  const auto meas = unit_square_measurements();
  const std::vector<Vec2> squashed{{0.0, 0.0}, {5.0, 0.0}, {5.0, 5.0}, {0.0, 5.0}};
  LssOptions opt;
  opt.min_spacing_m.reset();
  EXPECT_GT(lss_stress(meas, squashed, opt), 50.0);
}

TEST(LssStress, SoftConstraintOnlyHitsUnmeasuredClosePairs) {
  MeasurementSet meas(3);
  meas.add(0, 1, 2.0);  // measured pair closer than dmin: exempt
  LssOptions opt;
  opt.min_spacing_m = 9.0;
  opt.constraint_weight = 10.0;
  // Node 2 has no measurements; placing it close to node 0 violates dmin.
  const std::vector<Vec2> pos{{0.0, 0.0}, {2.0, 0.0}, {3.0, 0.0}};
  const double with = lss_stress(meas, pos, opt);
  // Expected: pair (0,2) at 3.0 -> (3-9)^2*10 = 360; pair (1,2) at 1.0 ->
  // (1-9)^2*10 = 640; pair (0,1) measured, exempt. Total 1000.
  EXPECT_NEAR(with, 1000.0, 1e-9);
  opt.min_spacing_m.reset();
  EXPECT_NEAR(lss_stress(meas, pos, opt), 0.0, 1e-12);
}

TEST(LocalizeLss, RecoversSquareUpToRigidMotion) {
  const auto meas = unit_square_measurements();
  LssOptions opt;
  opt.min_spacing_m = 5.0;
  opt.init_box_m = 20.0;
  Rng rng(1);
  const auto result = localize_lss(meas, opt, rng);
  EXPECT_LT(result.stress, 1e-6);
  const std::vector<Vec2> actual{{0.0, 0.0}, {10.0, 0.0}, {10.0, 10.0}, {0.0, 10.0}};
  const auto report = resloc::eval::evaluate_localization(result.positions, actual, true);
  EXPECT_LT(report.average_error_m, 1e-3);
}

TEST(LocalizeLss, ToleratesMissingEdges) {
  // 3x3 grid with only nearest-neighbor measurements (no diagonals): LSS
  // works on a subset of D_full, unlike classical MDS.
  std::vector<Vec2> pos;
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 3; ++x) pos.push_back(Vec2{x * 10.0, y * 10.0});
  }
  MeasurementSet meas(9);
  for (NodeId i = 0; i < 9; ++i) {
    for (NodeId j = i + 1; j < 9; ++j) {
      const double d = resloc::math::distance(pos[i], pos[j]);
      if (d < 15.0) meas.add(i, j, d);  // 4-neighborhood + center diagonals
    }
  }
  LssOptions opt;
  opt.min_spacing_m = 9.0;
  opt.init_box_m = 30.0;
  opt.target_stress_per_edge = 1e-6;
  Rng rng(2);
  const auto result = localize_lss(meas, opt, rng);
  const auto report = resloc::eval::evaluate_localization(result.positions, pos, true);
  EXPECT_LT(report.average_error_m, 0.5);
}

TEST(LocalizeLss, WeightsSuppressBadEdge) {
  // Square with one corrupted edge; downweighting it protects the fit.
  MeasurementSet corrupt = unit_square_measurements();
  corrupt.add(0, 2, 30.0, 1.0);  // true diagonal is 14.14
  MeasurementSet weighted = unit_square_measurements();
  weighted.add(0, 2, 30.0, 0.01);
  const std::vector<Vec2> actual{{0.0, 0.0}, {10.0, 0.0}, {10.0, 10.0}, {0.0, 10.0}};
  LssOptions opt;
  opt.min_spacing_m.reset();
  opt.init_box_m = 20.0;
  Rng rng1(3);
  Rng rng2(3);
  const auto bad = localize_lss(corrupt, opt, rng1);
  const auto good = localize_lss(weighted, opt, rng2);
  const auto bad_rep = resloc::eval::evaluate_localization(bad.positions, actual, true);
  const auto good_rep = resloc::eval::evaluate_localization(good.positions, actual, true);
  EXPECT_LT(good_rep.average_error_m, bad_rep.average_error_m);
  EXPECT_LT(good_rep.average_error_m, 0.2);
}

TEST(LocalizeLss, TraceRecordsDecreasingStress) {
  const auto meas = unit_square_measurements();
  LssOptions opt;
  opt.min_spacing_m = 5.0;
  opt.gd.record_trace = true;
  opt.independent_inits = 1;
  Rng rng(4);
  const auto result = localize_lss(meas, opt, rng);
  ASSERT_GE(result.error_trace.size(), 2u);
  EXPECT_GE(result.error_trace.front(), result.error_trace.back());
}

TEST(LocalizeLssAnchored, PinsAnchorsExactly) {
  const auto meas = unit_square_measurements();
  const std::vector<std::pair<NodeId, Vec2>> anchors{
      {0, {0.0, 0.0}}, {1, {10.0, 0.0}}, {3, {0.0, 10.0}}};
  LssOptions opt;
  opt.min_spacing_m = 5.0;
  opt.init_box_m = 20.0;
  Rng rng(5);
  const auto result = localize_lss_anchored(meas, anchors, opt, rng);
  for (const auto& [id, pos] : anchors) {
    EXPECT_NEAR(result.positions[id].x, pos.x, 1e-12);
    EXPECT_NEAR(result.positions[id].y, pos.y, 1e-12);
  }
  // The free node lands at the true corner, in the absolute frame.
  EXPECT_NEAR(result.positions[2].x, 10.0, 0.05);
  EXPECT_NEAR(result.positions[2].y, 10.0, 0.05);
}

TEST(LocalizeLss, ConstraintRescuesSparseFoldedGraph) {
  // The headline behaviour (Figures 18/19, 21/22): on a sparse measurement
  // graph the unconstrained stress surface has folded minima; the
  // min-spacing soft constraint penalizes them away.
  auto town = resloc::sim::town_blocks_59();
  Rng noise(7);
  const auto meas = resloc::sim::gaussian_measurements(town, {}, noise);
  LssOptions con;
  con.min_spacing_m = 9.0;
  con.gd.max_iterations = 5000;
  con.target_stress_per_edge = 0.5;
  LssOptions uncon = con;
  uncon.min_spacing_m.reset();
  int constrained_fail = 0;
  int unconstrained_fail = 0;
  for (int seed = 1; seed <= 3; ++seed) {
    Rng r1(static_cast<std::uint64_t>(seed));
    Rng r2(static_cast<std::uint64_t>(seed));
    const auto rc = localize_lss(meas, con, r1);
    const auto ru = localize_lss(meas, uncon, r2);
    const auto repc =
        resloc::eval::evaluate_localization(rc.positions, town.positions, true);
    const auto repu =
        resloc::eval::evaluate_localization(ru.positions, town.positions, true);
    if (repc.average_error_m > 1.0) ++constrained_fail;
    if (repu.average_error_m > 1.0) ++unconstrained_fail;
  }
  EXPECT_EQ(constrained_fail, 0);
  EXPECT_GE(unconstrained_fail, 1);
}

// --- Classical MDS baseline ---

TEST(ClassicalMds, ExactOnCompleteMatrix) {
  const std::vector<Vec2> pos{{0.0, 0.0}, {10.0, 0.0}, {10.0, 10.0}, {0.0, 10.0}, {5.0, 5.0}};
  resloc::reference::Matrix d(5, 5);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      d(i, j) = resloc::math::distance(pos[i], pos[j]);
    }
  }
  const auto result = resloc::reference::classical_mds(d);
  ASSERT_TRUE(result.has_value());
  EXPECT_GT(result->planarity, 0.999);  // genuinely planar data
  const auto report = resloc::eval::evaluate_localization(result->positions, pos, true);
  EXPECT_LT(report.average_error_m, 1e-6);
}

TEST(ClassicalMds, RejectsBadInput) {
  EXPECT_FALSE(resloc::reference::classical_mds(resloc::reference::Matrix{}).has_value());
  EXPECT_FALSE(resloc::reference::classical_mds(resloc::reference::Matrix(2, 3)).has_value());
}

TEST(ShortestPathCompletion, FillsMissingDistances) {
  MeasurementSet meas(3);
  meas.add(0, 1, 5.0);
  meas.add(1, 2, 7.0);
  const auto d = resloc::reference::shortest_path_completion(meas);
  EXPECT_DOUBLE_EQ(d(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(d(0, 2), 12.0);  // via node 1
  EXPECT_DOUBLE_EQ(d(2, 0), 12.0);
  EXPECT_DOUBLE_EQ(d(1, 1), 0.0);
}

TEST(ShortestPathCompletion, UnreachableMarked) {
  MeasurementSet meas(4);
  meas.add(0, 1, 5.0);
  meas.add(2, 3, 2.0);
  const auto d = resloc::reference::shortest_path_completion(meas, 999.0);
  EXPECT_DOUBLE_EQ(d(0, 2), 999.0);
}

TEST(MdsMap, SparseInputDistortsButLocalizesDenseInput) {
  // Dense graph: MDS-MAP is accurate. Sparse graph: shortest-path inflation
  // distorts geometry -- the motivation for LSS.
  std::vector<Vec2> pos;
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) pos.push_back(Vec2{x * 10.0, y * 10.0});
  }
  MeasurementSet dense(16);
  MeasurementSet sparse(16);
  for (NodeId i = 0; i < 16; ++i) {
    for (NodeId j = i + 1; j < 16; ++j) {
      const double d = resloc::math::distance(pos[i], pos[j]);
      if (d < 45.0) dense.add(i, j, d);
      if (d < 11.0) sparse.add(i, j, d);
    }
  }
  const auto dense_result = resloc::reference::mds_map(dense);
  const auto sparse_result = resloc::reference::mds_map(sparse);
  ASSERT_TRUE(dense_result && sparse_result);
  const auto dense_rep =
      resloc::eval::evaluate_localization(dense_result->positions, pos, true);
  const auto sparse_rep =
      resloc::eval::evaluate_localization(sparse_result->positions, pos, true);
  EXPECT_LT(dense_rep.average_error_m, 0.5);
  EXPECT_GT(sparse_rep.average_error_m, dense_rep.average_error_m);
}

}  // namespace
