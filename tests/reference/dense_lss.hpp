// Dense O(n^2) reference of the LSS stress objective and solver, for the
// equivalence tests (tests/test_lss_scale.cpp) and bench_lss_scale.
//
// The production objective in core/lss.cpp reads the soft constraint's active
// set off a Verlet neighbor list; this one scans all n(n-1)/2 pairs on every
// evaluation, as the seed implementation did. It runs the same arithmetic in
// the same order -- measured edges in MeasurementSet order, then the active
// pairs in (i asc, j asc) order, then the anchors' gradients zeroed -- so the
// production error, gradient and whole-solve trajectory must match it to the
// last bit. The solve entry points mirror localize_lss, localize_lss_from and
// localize_lss_anchored draw for draw, swapping only the objective.
#pragma once

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/lss.hpp"
#include "core/types.hpp"
#include "math/gradient_descent.hpp"
#include "math/rng.hpp"
#include "math/vec2.hpp"

namespace resloc::reference {

/// Stress objective over [x_0..x_{n-1}, y_0..y_{n-1}] with the all-pairs
/// soft-constraint scan; `fixed` lists nodes whose gradient entries are zeroed.
class DenseStressObjective {
 public:
  DenseStressObjective(const core::MeasurementSet& measurements, const core::LssOptions& options,
                       std::vector<core::NodeId> fixed = {})
      : measurements_(measurements),
        options_(options),
        fixed_(std::move(fixed)),
        n_(measurements.node_count()) {}

  double operator()(const std::vector<double>& p, std::vector<double>& grad) const {
    constexpr double kMinSeparation = 1e-9;
    for (double& g : grad) g = 0.0;
    double error = 0.0;
    const auto accumulate = [&](std::size_t i, std::size_t j, double target, double weight,
                                double dx, double dy, double d_sq) {
      const double dcomp = std::max(std::sqrt(d_sq), kMinSeparation);
      const double residual = dcomp - target;
      error += weight * residual * residual;
      const double scale = 2.0 * weight * residual / dcomp;
      grad[i] += scale * dx;
      grad[j] -= scale * dx;
      grad[n_ + i] += scale * dy;
      grad[n_ + j] -= scale * dy;
    };
    for (const core::DistanceEdge& e : measurements_.edges()) {
      const double dx = p[e.i] - p[e.j];
      const double dy = p[n_ + e.i] - p[n_ + e.j];
      accumulate(e.i, e.j, e.distance_m, e.weight, dx, dy, dx * dx + dy * dy);
    }
    if (options_.min_spacing_m.has_value()) {
      const double dmin = *options_.min_spacing_m;
      const double dmin_sq = dmin * dmin;
      for (std::size_t i = 0; i + 1 < n_; ++i) {
        for (std::size_t j = i + 1; j < n_; ++j) {
          const double dx = p[i] - p[j];
          const double dy = p[n_ + i] - p[n_ + j];
          const double d_sq = dx * dx + dy * dy;
          if (d_sq >= dmin_sq) continue;
          if (measurements_.has(static_cast<core::NodeId>(i), static_cast<core::NodeId>(j))) {
            continue;
          }
          accumulate(i, j, dmin, options_.constraint_weight, dx, dy, d_sq);
        }
      }
    }
    for (const core::NodeId i : fixed_) {
      grad[i] = 0.0;
      grad[n_ + i] = 0.0;
    }
    return error;
  }

 private:
  const core::MeasurementSet& measurements_;
  const core::LssOptions options_;
  const std::vector<core::NodeId> fixed_;
  const std::size_t n_;
};

/// [x_0..x_{n-1}, y_0..y_{n-1}] from positions (missing entries are 0).
inline std::vector<double> pack(const std::vector<math::Vec2>& positions, std::size_t n) {
  std::vector<double> p(2 * n, 0.0);
  for (std::size_t i = 0; i < n && i < positions.size(); ++i) {
    p[i] = positions[i].x;
    p[n + i] = positions[i].y;
  }
  return p;
}

/// core::lss_stress_with_gradient on the dense objective.
inline double dense_stress_with_gradient(const core::MeasurementSet& measurements,
                                         const std::vector<math::Vec2>& positions,
                                         const core::LssOptions& options,
                                         std::vector<double>& grad) {
  const std::size_t n = measurements.node_count();
  grad.assign(2 * n, 0.0);
  return DenseStressObjective(measurements, options)(pack(positions, n), grad);
}

/// The solve shared by the entry points below (core/lss.cpp's run()).
inline core::LssResult dense_solve(const core::MeasurementSet& measurements,
                                   std::vector<double> initial,
                                   std::vector<core::NodeId> fixed,
                                   const core::LssOptions& options, math::Rng& rng) {
  const std::size_t n = measurements.node_count();
  DenseStressObjective objective(measurements, options, std::move(fixed));
  const math::GradientDescentResult gd = math::minimize_with_restarts(
      objective, std::move(initial), options.gd, options.restarts, rng);
  core::LssResult result;
  result.positions.resize(n);
  for (std::size_t i = 0; i < n; ++i) result.positions[i] = math::Vec2{gd.x[i], gd.x[n + i]};
  result.stress = gd.error;
  result.iterations = gd.iterations;
  result.converged = gd.converged;
  result.non_finite = gd.non_finite || !std::isfinite(gd.error);
  result.error_trace = gd.error_trace;
  return result;
}

/// core::localize_lss_from on the dense objective.
inline core::LssResult dense_localize_lss_from(const core::MeasurementSet& measurements,
                                               const std::vector<math::Vec2>& initial,
                                               const core::LssOptions& options, math::Rng& rng) {
  return dense_solve(measurements, pack(initial, measurements.node_count()), {}, options, rng);
}

/// core::localize_lss on the dense objective: the same initial draws, the
/// same NaN-aware best selection and early stop.
inline core::LssResult dense_localize_lss(const core::MeasurementSet& measurements,
                                          const core::LssOptions& options, math::Rng& rng) {
  const std::size_t n = measurements.node_count();
  const double stress_target =
      options.target_stress_per_edge > 0.0
          ? options.target_stress_per_edge *
                static_cast<double>(std::max<std::size_t>(measurements.edge_count(), 1))
          : -1.0;
  core::LssResult best;
  bool have_best = false;
  for (int attempt = 0; attempt < std::max(options.independent_inits, 1); ++attempt) {
    std::vector<math::Vec2> initial(n);
    for (auto& v : initial) {
      v = math::Vec2{rng.uniform(0.0, options.init_box_m), rng.uniform(0.0, options.init_box_m)};
    }
    core::LssResult candidate = dense_localize_lss_from(measurements, initial, options, rng);
    const bool better =
        !have_best || (std::isfinite(candidate.stress) && !std::isfinite(best.stress)) ||
        (!(std::isfinite(best.stress) && !std::isfinite(candidate.stress)) &&
         candidate.stress < best.stress);
    if (better) {
      best = std::move(candidate);
      have_best = true;
    }
    if (stress_target >= 0.0 && best.stress <= stress_target) break;
  }
  return best;
}

/// core::localize_lss_anchored on the dense objective.
inline core::LssResult dense_localize_lss_anchored(
    const core::MeasurementSet& measurements,
    const std::vector<std::pair<core::NodeId, math::Vec2>>& anchors,
    const core::LssOptions& options, math::Rng& rng) {
  const std::size_t n = measurements.node_count();
  std::vector<double> p(2 * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = rng.uniform(0.0, options.init_box_m);
    p[n + i] = rng.uniform(0.0, options.init_box_m);
  }
  std::vector<core::NodeId> fixed;
  for (const auto& [id, pos] : anchors) {
    p[id] = pos.x;
    p[n + id] = pos.y;
    fixed.push_back(id);
  }
  return dense_solve(measurements, std::move(p), std::move(fixed), options, rng);
}

}  // namespace resloc::reference
