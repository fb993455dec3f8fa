// Locks the solver-scaling contract of the LSS soft-constraint pair list:
//   - the production objective (a Verlet neighbor list over a spatial grid)
//     is BIT-equal to the dense all-pairs reference in reference/dense_lss.hpp
//     (error and every gradient component, to the last ulp), both on one-shot
//     evaluations (the exact build) and over whole solves that reuse the list
//     across evaluations (stress, iterations, every coordinate),
//   - the SpatialHashGrid's neighborhood/pair enumeration never misses a
//     point pair within one cell size of each other,
//   - the analytic gradient of both stress terms matches finite differences
//     (so neither this rewrite nor a future objective edit can silently ship
//     a wrong gradient),
//   - the large-scale scenarios and the DV-hop-seeded pipeline mode work end
//     to end at a few hundred nodes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/distributed_lss.hpp"
#include "core/local_map.hpp"
#include "core/lss.hpp"
#include "eval/metrics.hpp"
#include "math/rng.hpp"
#include "math/spatial_hash_grid.hpp"
#include "obs/telemetry.hpp"
#include "pipeline/localization_pipeline.hpp"
#include "reference/dense_lss.hpp"
#include "sim/deployments.hpp"
#include "sim/measurement_gen.hpp"
#include "sim/scenario_registry.hpp"

namespace {

using namespace resloc::core;
using resloc::math::Rng;
using resloc::math::SpatialHashGrid;
using resloc::math::Vec2;

// --- Production-vs-dense-reference bit-equivalence ---

/// One-shot evaluations against the dense reference. Random configuration +
/// random sparse measurement set; box side controls how violated the
/// constraint is (small box = everything overlapping).
void expect_paths_bit_equal(std::size_t n, double box, double dmin, double measured_fraction,
                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec2> config(n);
  for (auto& v : config) v = Vec2{rng.uniform(-box / 2.0, box / 2.0), rng.uniform(0.0, box)};
  MeasurementSet meas(n);
  for (NodeId i = 0; i + 1 < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      if (rng.bernoulli(measured_fraction)) {
        meas.add(i, j, rng.uniform(0.5, box), rng.uniform(0.5, 2.0));
      }
    }
  }

  LssOptions opt;
  opt.min_spacing_m = dmin;
  std::vector<double> grid_grad;
  std::vector<double> dense_grad;
  const double grid_e = lss_stress_with_gradient(meas, config, opt, grid_grad);
  const double dense_e = resloc::reference::dense_stress_with_gradient(meas, config, opt, dense_grad);

  // Bit equality, not tolerance: both paths must run identical arithmetic in
  // identical order.
  EXPECT_EQ(grid_e, dense_e) << "n=" << n << " box=" << box << " seed=" << seed;
  ASSERT_EQ(grid_grad.size(), dense_grad.size());
  for (std::size_t k = 0; k < grid_grad.size(); ++k) {
    EXPECT_EQ(grid_grad[k], dense_grad[k])
        << "grad[" << k << "] n=" << n << " box=" << box << " seed=" << seed;
  }
}

TEST(LssGridEquivalence, RandomConfigurationsAcrossScales) {
  std::uint64_t seed = 100;
  for (const std::size_t n : {2u, 3u, 7u, 20u, 60u, 150u}) {
    for (const double box : {120.0, 40.0, 8.0}) {  // spread, busy, heavily violated
      expect_paths_bit_equal(n, box, 9.14, 0.15, seed++);
    }
  }
}

TEST(LssGridEquivalence, AllPointsInOneCell) {
  // Every pair active and in the same grid cell: the worst clustering case.
  expect_paths_bit_equal(40, 3.0, 9.0, 0.3, 7);
}

TEST(LssGridEquivalence, PointsOnCellBoundaries) {
  // Coordinates at exact multiples of d_min (cell edges) and coincident
  // points (the kMinSeparation guard).
  const double dmin = 9.0;
  std::vector<Vec2> config;
  for (int x = -2; x <= 2; ++x) {
    for (int y = -2; y <= 2; ++y) {
      config.push_back(Vec2{x * dmin, y * dmin});
    }
  }
  config.push_back(config.front());  // exact duplicate
  const std::size_t n = config.size();
  MeasurementSet meas(n);
  meas.add(0, 1, 5.0);

  LssOptions opt;
  opt.min_spacing_m = dmin;
  std::vector<double> g1;
  std::vector<double> g2;
  EXPECT_EQ(lss_stress_with_gradient(meas, config, opt, g1),
            resloc::reference::dense_stress_with_gradient(meas, config, opt, g2));
  EXPECT_EQ(g1, g2);
}

/// The bits of a double. Comparing bits tells -0.0 from 0.0 and lets two
/// identically produced NaNs compare equal, which == does not.
std::uint64_t bits(double v) {
  std::uint64_t out = 0;
  std::memcpy(&out, &v, sizeof out);
  return out;
}

/// Whole-solve identity: stress, accepted iterations, every coordinate.
void expect_solves_identical(const LssResult& a, const LssResult& b) {
  EXPECT_EQ(bits(a.stress), bits(b.stress)) << a.stress << " vs " << b.stress;
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.non_finite, b.non_finite);
  ASSERT_EQ(a.positions.size(), b.positions.size());
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    EXPECT_EQ(bits(a.positions[i].x), bits(b.positions[i].x)) << "node " << i;
    EXPECT_EQ(bits(a.positions[i].y), bits(b.positions[i].y)) << "node " << i;
  }
}

/// Turns the obs counters on around one solve and reads the pair-list work:
/// builds, evaluations and active constraint pairs.
struct ListWork {
  std::uint64_t rebuilds = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t active_pairs = 0;
};
template <typename Fn>
ListWork count_list_work(Fn&& solve) {
  namespace obs = resloc::obs;
  obs::reset();
  obs::set_enabled(true);
  solve();
  obs::set_enabled(false);
  const obs::TelemetrySnapshot snap = obs::snapshot();
  obs::reset();
  return {snap.counter(obs::Counter::kLssListRebuilds),
          snap.counter(obs::Counter::kGdEvaluations),
          snap.counter(obs::Counter::kLssConstraintPairs)};
}

TEST(LssGridEquivalence, SolvesIdentically) {
  // Whole solves (restarts, backtracking, the lot) agree bit-for-bit with
  // math::minimize_with_restarts over the dense reference objective when
  // seeded identically: the pair list changes the cost of a solve, never its
  // trajectory.
  Rng noise(3);
  const auto town = resloc::sim::town_blocks_59();
  const auto meas = resloc::sim::gaussian_measurements(town, {}, noise);
  LssOptions opt;
  opt.independent_inits = 1;
  opt.restarts.rounds = 2;
  opt.gd.max_iterations = 400;
  const std::size_t n = meas.node_count();

  Rng r1(17);
  const LssResult a = localize_lss(meas, opt, r1);

  // localize_lss's draws (x then y per node) into the [xs.., ys..] layout.
  Rng r2(17);
  std::vector<double> p(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = r2.uniform(0.0, opt.init_box_m);
    p[n + i] = r2.uniform(0.0, opt.init_box_m);
  }
  resloc::reference::DenseStressObjective dense(meas, opt);
  const auto b =
      resloc::math::minimize_with_restarts(dense, std::move(p), opt.gd, opt.restarts, r2);
  EXPECT_EQ(bits(a.stress), bits(b.error));
  EXPECT_EQ(a.iterations, b.iterations);
  ASSERT_EQ(a.positions.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(bits(a.positions[i].x), bits(b.x[i]));
    EXPECT_EQ(bits(a.positions[i].y), bits(b.x[n + i]));
  }
}

// --- Pair-list reuse: whole solves against the dense reference ---

TEST(LssListReuse, FoldedRandomInitSolve) {
  // Random init of 120 nodes squeezed into a box far smaller than the field:
  // the early descent is deeply folded, with hundreds of active constraint
  // pairs per evaluation, and the list is reused across most of them.
  Rng deploy_rng(31);
  resloc::sim::ScenarioParams params;
  params.node_count = 120;
  const auto deployment = resloc::sim::build_scenario("uniform_n", params, deploy_rng);
  Rng noise(32);
  const auto meas = resloc::sim::gaussian_measurements(deployment, {}, noise);
  LssOptions opt;
  opt.independent_inits = 2;
  opt.restarts.rounds = 2;
  opt.gd.max_iterations = 600;
  opt.init_box_m = 25.0;

  LssResult a;
  Rng r1(33);
  const ListWork work = count_list_work([&] { a = localize_lss(meas, opt, r1); });
  Rng r2(33);
  expect_solves_identical(a, resloc::reference::dense_localize_lss(meas, opt, r2));

  EXPECT_GT(work.active_pairs / std::max<std::uint64_t>(work.evaluations, 1), 100u)
      << "the solve must stay folded long enough to load the list";
  EXPECT_GT(work.rebuilds, 4u);  // one exact + one skin build per solve, at least
  EXPECT_LT(work.rebuilds * 4, work.evaluations) << "the list must actually be reused";
}

TEST(LssListReuse, AnchoredSolve) {
  Rng deploy_rng(41);
  auto deployment = resloc::sim::offset_grid(7, 7);
  resloc::sim::choose_random_anchors(deployment, 8, deploy_rng);
  Rng noise(42);
  const auto meas = resloc::sim::gaussian_measurements(deployment, {}, noise);
  std::vector<std::pair<NodeId, Vec2>> anchors;
  for (const NodeId id : deployment.anchors) anchors.emplace_back(id, deployment.positions[id]);
  LssOptions opt;
  opt.restarts.rounds = 3;
  opt.gd.max_iterations = 800;

  LssResult a;
  Rng r1(43);
  const ListWork work = count_list_work([&] { a = localize_lss_anchored(meas, anchors, opt, r1); });
  Rng r2(43);
  const LssResult b = resloc::reference::dense_localize_lss_anchored(meas, anchors, opt, r2);
  expect_solves_identical(a, b);
  for (const auto& [id, pos] : anchors) {  // pinned nodes never move
    EXPECT_EQ(a.positions[id].x, pos.x);
    EXPECT_EQ(a.positions[id].y, pos.y);
  }
  EXPECT_LT(work.rebuilds * 4, work.evaluations);
}

TEST(LssListReuse, RestartPerturbationsWiderThanTheSkin) {
  // Perturbation stddev 7 m, above the skin (d_min / 2): every restart seed
  // moves nodes far past the reuse radius and must rebuild, never reuse.
  Rng noise(51);
  const auto town = resloc::sim::town_blocks_59();
  const auto meas = resloc::sim::gaussian_measurements(town, {}, noise);
  LssOptions opt;
  opt.independent_inits = 1;
  opt.restarts.rounds = 6;
  opt.restarts.perturbation_stddev = 7.0;
  opt.gd.max_iterations = 300;
  ASSERT_GT(opt.restarts.perturbation_stddev, 0.5 * *opt.min_spacing_m);

  LssResult a;
  Rng r1(52);
  const ListWork work = count_list_work([&] { a = localize_lss(meas, opt, r1); });
  Rng r2(52);
  expect_solves_identical(a, resloc::reference::dense_localize_lss(meas, opt, r2));
  EXPECT_GE(work.rebuilds, static_cast<std::uint64_t>(opt.restarts.rounds));
}

/// build_local_map over the dense reference solver: same membership, same
/// local measurement set, same draws.
LocalMap dense_local_map(NodeId owner, const MeasurementSet& measurements,
                         const LssOptions& options, Rng& rng) {
  LocalMap map;
  map.owner = owner;
  map.members.push_back(owner);
  for (const auto& [neighbor, dist] : measurements.neighbors(owner)) {
    (void)dist;
    map.members.push_back(neighbor);
  }
  std::sort(map.members.begin() + 1, map.members.end());
  MeasurementSet local(map.members.size());
  double max_dist = 1.0;
  for (std::size_t a = 0; a < map.members.size(); ++a) {
    for (std::size_t b = a + 1; b < map.members.size(); ++b) {
      const auto edge = measurements.between(map.members[a], map.members[b]);
      if (!edge) continue;
      local.add(static_cast<NodeId>(a), static_cast<NodeId>(b), edge->distance_m, edge->weight);
      max_dist = std::max(max_dist, edge->distance_m);
    }
  }
  LssOptions local_options = options;
  local_options.init_box_m = 2.0 * max_dist;
  const LssResult fit = resloc::reference::dense_localize_lss(local, local_options, rng);
  map.coords = fit.positions;
  map.stress = fit.stress;
  return map;
}

TEST(LssListReuse, DistributedOnTheGrassGrid) {
  // The 46-node grass grid (three of 49 motes dropped) with a mote-grade
  // local-map budget: 46 small solves sharing one RNG stream, then alignment.
  Rng drop_rng(61);
  const auto deployment = resloc::sim::offset_grid_with_failures(3, drop_rng);
  ASSERT_EQ(deployment.size(), 46u);
  Rng noise(62);
  const auto meas = resloc::sim::gaussian_measurements(deployment, {}, noise);
  DistributedLssOptions opt;
  opt.local_lss.min_spacing_m = 9.0;
  opt.local_lss.independent_inits = 3;
  opt.local_lss.restarts.rounds = 2;
  opt.local_lss.gd.max_iterations = 600;
  opt.local_lss.target_stress_per_edge = 0.3;

  Rng r1(63);
  const DistributedLssResult a = localize_distributed(meas, 0, opt, r1);

  Rng r2(63);
  std::vector<LocalMap> maps;
  for (NodeId node = 0; node < meas.node_count(); ++node) {
    maps.push_back(dense_local_map(node, meas, opt.local_lss, r2));
  }
  const DistributedLssResult b = align_local_maps(std::move(maps), 0, opt);

  ASSERT_EQ(a.maps.size(), b.maps.size());
  for (std::size_t m = 0; m < a.maps.size(); ++m) {
    EXPECT_EQ(bits(a.maps[m].stress), bits(b.maps[m].stress)) << "map " << m;
    ASSERT_EQ(a.maps[m].coords.size(), b.maps[m].coords.size());
    for (std::size_t k = 0; k < a.maps[m].coords.size(); ++k) {
      EXPECT_EQ(bits(a.maps[m].coords[k].x), bits(b.maps[m].coords[k].x));
      EXPECT_EQ(bits(a.maps[m].coords[k].y), bits(b.maps[m].coords[k].y));
    }
  }
  ASSERT_EQ(a.result.positions.size(), b.result.positions.size());
  EXPECT_GT(a.result.localized_count(), 40u);
  for (std::size_t i = 0; i < a.result.positions.size(); ++i) {
    ASSERT_EQ(a.result.positions[i].has_value(), b.result.positions[i].has_value());
    if (!a.result.positions[i]) continue;
    EXPECT_EQ(bits(a.result.positions[i]->x), bits(b.result.positions[i]->x)) << "node " << i;
    EXPECT_EQ(bits(a.result.positions[i]->y), bits(b.result.positions[i]->y)) << "node " << i;
  }
}

TEST(LssListReuse, NonFiniteDistancesAndIterates) {
  // Corrupted measurements (NaN and inf distances) poison every evaluation:
  // each round stops at its seed, identically on both paths.
  Rng noise(71);
  const auto grid = resloc::sim::offset_grid(5, 5);
  MeasurementSet corrupt = resloc::sim::gaussian_measurements(grid, {}, noise);
  corrupt.add(0, 1, std::numeric_limits<double>::quiet_NaN());
  corrupt.add(2, 3, std::numeric_limits<double>::infinity());
  LssOptions opt;
  opt.independent_inits = 2;
  opt.restarts.rounds = 3;
  {
    Rng r1(72);
    const LssResult a = localize_lss(corrupt, opt, r1);
    Rng r2(72);
    const LssResult b = resloc::reference::dense_localize_lss(corrupt, opt, r2);
    EXPECT_TRUE(a.non_finite);
    expect_solves_identical(a, b);
  }

  // A first step so long that it overflows coordinates to +-inf: every
  // round's line search evaluates non-finite iterates until it gives up, and
  // the next round restarts from the finite best. Each non-finite iterate
  // must take an exact build, and an exact build is never reused, so here
  // every evaluation builds. Every node has a measured edge, so a non-finite
  // iterate poisons the error on both paths alike.
  const MeasurementSet clean = resloc::sim::gaussian_measurements(grid, {}, noise);
  opt.gd.step_size = 1e307;
  opt.gd.max_iterations = 400;
  std::uint64_t non_finite_iterates = 0;
  const resloc::reference::DenseStressObjective dense(clean, opt);
  const auto counting_dense = [&](const std::vector<double>& p, std::vector<double>& grad) {
    if (!std::all_of(p.begin(), p.end(), [](double v) { return std::isfinite(v); })) {
      ++non_finite_iterates;
    }
    return dense(p, grad);
  };

  LssResult a;
  Rng r1(73);
  const ListWork work =
      count_list_work([&] { a = localize_lss_from(clean, grid.positions, opt, r1); });
  Rng r2(73);
  const auto b = resloc::math::minimize_with_restarts(
      counting_dense, resloc::reference::pack(grid.positions, clean.node_count()), opt.gd,
      opt.restarts, r2);
  EXPECT_EQ(bits(a.stress), bits(b.error));
  EXPECT_EQ(a.iterations, b.iterations);
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    EXPECT_EQ(bits(a.positions[i].x), bits(b.x[i]));
    EXPECT_EQ(bits(a.positions[i].y), bits(b.x[clean.node_count() + i]));
  }
  EXPECT_TRUE(std::isfinite(a.stress));
  EXPECT_GT(non_finite_iterates, 0u) << "the test must reach non-finite iterates";
  EXPECT_EQ(work.rebuilds, work.evaluations);
}

// --- SpatialHashGrid unit tests ---

TEST(SpatialHashGrid, CandidatePairsCoverAllCloseOnes) {
  Rng rng(42);
  const std::size_t n = 300;
  const double cell = 5.0;
  std::vector<double> xs(n);
  std::vector<double> ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Mix of a dense clump and a spread field, including negative coords.
    const bool clump = i % 3 == 0;
    xs[i] = clump ? rng.uniform(-3.0, 3.0) : rng.uniform(-80.0, 80.0);
    ys[i] = clump ? rng.uniform(-3.0, 3.0) : rng.uniform(-80.0, 80.0);
  }
  SpatialHashGrid grid;
  grid.rebuild(xs.data(), ys.data(), n, cell);

  std::set<std::pair<std::size_t, std::size_t>> emitted;
  grid.for_each_candidate_pair([&](std::size_t i, std::size_t j) {
    ASSERT_LT(i, j);
    EXPECT_TRUE(emitted.emplace(i, j).second) << "pair emitted twice: " << i << "," << j;
  });
  for (std::size_t i = 0; i + 1 < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double dx = xs[i] - xs[j];
      const double dy = ys[i] - ys[j];
      if (dx * dx + dy * dy < cell * cell) {
        EXPECT_TRUE(emitted.count({i, j})) << "missed close pair " << i << "," << j;
      }
    }
  }
}

TEST(SpatialHashGrid, SurvivesExtremeAndNonFiniteCoordinates) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> xs{0.0, 1e12, -1e12, inf, -inf, nan, 3.0};
  const std::vector<double> ys{0.0, -1e12, 1e12, -inf, inf, nan, 4.0};
  SpatialHashGrid grid;
  grid.rebuild(xs.data(), ys.data(), xs.size(), 9.0);
  // Points 0 and 6 are 5 m apart and must be candidates regardless of the
  // garbage around them.
  bool found = false;
  grid.for_each_candidate_pair([&](std::size_t i, std::size_t j) { found |= i == 0 && j == 6; });
  EXPECT_TRUE(found);
}

TEST(SpatialHashGrid, EmptyAndSingle) {
  SpatialHashGrid grid;
  grid.rebuild(nullptr, nullptr, 0, 5.0);
  EXPECT_EQ(grid.point_count(), 0u);
  std::size_t emissions = 0;
  grid.for_each_candidate_pair([&](std::size_t, std::size_t) { ++emissions; });
  EXPECT_EQ(emissions, 0u);

  const double x = 2.0;
  const double y = -3.0;
  grid.rebuild(&x, &y, 1, 5.0);
  grid.for_each_candidate_pair([&](std::size_t, std::size_t) { ++emissions; });
  EXPECT_EQ(emissions, 0u);
  EXPECT_EQ(grid.point_count(), 1u);
}

// --- Finite-difference gradient checks ---

/// The LSS stress at `positions` (lss_stress_with_gradient, gradient dropped).
double stress_at(const MeasurementSet& meas, const std::vector<Vec2>& positions,
                 const LssOptions& options) {
  std::vector<double> grad;
  return lss_stress_with_gradient(meas, positions, options, grad);
}

/// Central-difference check of lss_stress_with_gradient around `config`.
void expect_gradient_matches_fd(const MeasurementSet& meas, const std::vector<Vec2>& config,
                                const LssOptions& options) {
  std::vector<double> grad;
  lss_stress_with_gradient(meas, config, options, grad);
  const double h = 1e-6;
  const std::size_t n = config.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (int axis = 0; axis < 2; ++axis) {
      std::vector<Vec2> plus = config;
      std::vector<Vec2> minus = config;
      (axis == 0 ? plus[i].x : plus[i].y) += h;
      (axis == 0 ? minus[i].x : minus[i].y) -= h;
      const double fd =
          (stress_at(meas, plus, options) - stress_at(meas, minus, options)) / (2.0 * h);
      const double analytic = grad[axis == 0 ? i : n + i];
      EXPECT_NEAR(analytic, fd, 1e-4 * std::max(1.0, std::abs(fd)))
          << "node " << i << " axis " << axis;
    }
  }
}

TEST(LssGradient, MeasuredEdgeTermMatchesFiniteDifference) {
  Rng rng(55);
  const std::size_t n = 8;
  std::vector<Vec2> config(n);
  for (auto& v : config) v = Vec2{rng.uniform(0.0, 30.0), rng.uniform(0.0, 30.0)};
  MeasurementSet meas(n);
  for (NodeId i = 0; i + 1 < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      if (rng.bernoulli(0.6)) meas.add(i, j, rng.uniform(2.0, 25.0), rng.uniform(0.5, 2.0));
    }
  }
  LssOptions opt;
  opt.min_spacing_m.reset();  // edge term only
  expect_gradient_matches_fd(meas, config, opt);
}

TEST(LssGradient, SoftConstraintTermMatchesFiniteDifference) {
  Rng rng(56);
  const std::size_t n = 8;
  std::vector<Vec2> config(n);
  // Cramped: most pairs violate the 9 m spacing, none measured.
  for (auto& v : config) v = Vec2{rng.uniform(0.0, 14.0), rng.uniform(0.0, 14.0)};
  MeasurementSet meas(n);  // empty: every pair is a constraint candidate
  LssOptions opt;
  opt.min_spacing_m = 9.0;
  opt.constraint_weight = 10.0;
  EXPECT_GT(stress_at(meas, config, opt), 0.0);  // the term must actually fire
  expect_gradient_matches_fd(meas, config, opt);
}

TEST(LssGradient, CombinedObjectiveMatchesFiniteDifference) {
  Rng rng(57);
  const std::size_t n = 10;
  std::vector<Vec2> config(n);
  for (auto& v : config) v = Vec2{rng.uniform(0.0, 20.0), rng.uniform(0.0, 20.0)};
  MeasurementSet meas(n);
  for (NodeId i = 0; i + 1 < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      if (rng.bernoulli(0.3)) meas.add(i, j, rng.uniform(2.0, 18.0));
    }
  }
  LssOptions opt;
  opt.min_spacing_m = 9.14;
  expect_gradient_matches_fd(meas, config, opt);
}

// --- Large-scale scenarios and the DV-hop-seeded pipeline ---

TEST(ScaleScenarios, RegistryEntriesBuildAtNativeSize) {
  Rng rng(9);
  resloc::sim::ScenarioParams params;
  EXPECT_EQ(resloc::sim::build_scenario("campus_500", params, rng).size(), 500u);
  EXPECT_EQ(resloc::sim::build_scenario("city_1000", params, rng).size(), 1000u);
  EXPECT_EQ(resloc::sim::build_scenario("uniform_n", params, rng).size(), 100u);
  params.node_count = 37;
  EXPECT_EQ(resloc::sim::build_scenario("uniform_n", params, rng).size(), 37u);
  EXPECT_EQ(resloc::sim::scenario_environment("city_1000"), "urban");
}

TEST(ScaleScenarios, SaturatedFieldThrowsInsteadOfUnderfilling) {
  Rng rng(10);
  resloc::sim::ScenarioParams params;
  params.node_count = 5000;  // cannot fit 5000 nodes at 7 m spacing in 320x240
  EXPECT_THROW(resloc::sim::build_scenario("campus_500", params, rng), std::invalid_argument);
}

TEST(ScalePipeline, DvHopSeededLssLocalizesMidSizeField) {
  Rng deploy_rng(21);
  resloc::sim::ScenarioParams params;
  params.node_count = 150;
  auto deployment = resloc::sim::build_scenario("uniform_n", params, deploy_rng);
  Rng anchor_rng(22);
  resloc::sim::choose_random_anchors(deployment, 15, anchor_rng);

  resloc::pipeline::PipelineConfig config;
  config.source = resloc::pipeline::MeasurementSource::kSyntheticGaussian;
  config.solver = resloc::pipeline::Solver::kCentralizedLss;
  config.lss_init = resloc::pipeline::LssInit::kDvHopSeeded;
  config.lss.restarts.rounds = 3;
  const resloc::pipeline::LocalizationPipeline pipe(config);
  Rng run_rng(23);
  const auto run = pipe.run(deployment, run_rng);
  // 150 nodes is far beyond what random-init LSS unfolds reliably; the
  // DV-hop seed must bring the refined error down to ranging-noise scale.
  EXPECT_GT(run.report.localized, 140u);
  EXPECT_LT(run.report.average_error_m, 1.5);
}

// --- MeasurementSet adjacency index ---

TEST(MeasurementSetAdjacency, ReplacementUpdatesDistanceWithoutDuplicates) {
  MeasurementSet set(3);
  set.add(0, 1, 5.0);
  set.add(1, 2, 2.0);
  set.add(1, 0, 7.5);  // replaces 0-1, reversed order
  const auto n1 = set.neighbors(1);
  ASSERT_EQ(n1.size(), 2u);
  EXPECT_EQ(n1[0].first, 0u);
  EXPECT_DOUBLE_EQ(n1[0].second, 7.5);
  EXPECT_EQ(n1[1].first, 2u);
  EXPECT_EQ(set.degree(1), 2u);
  EXPECT_EQ(set.degree(2), 1u);
  EXPECT_EQ(set.degree(99), 0u);  // out of range: no neighbors, no throw
  EXPECT_TRUE(set.neighbors(99).empty());
}

}  // namespace
