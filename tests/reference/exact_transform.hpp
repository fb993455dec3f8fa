// Exact transform estimation of Section 4.3.1: minimize
//   E_f(theta, tx, ty) = sum_i |T_f(theta, t)(src[i]) - dst[i]|^2
// over (theta, tx, ty) by gradient descent with perturbation restarts, for
// f = +1 and f = -1, and keep the better. The paper finds it "fairly
// accurate ... but too computationally intensive" for motes; the library
// runs the closed form (math::fit_rigid) instead. This reference exists to
// be compared against it (tests/test_core_distributed.cpp, ablation A4 in
// bench_ablation_transform_method).
#pragma once

#include <cmath>
#include <vector>

#include "math/gradient_descent.hpp"
#include "math/procrustes.hpp"
#include "math/rng.hpp"
#include "math/transform2d.hpp"
#include "math/vec2.hpp"

namespace resloc::reference {

/// E_f(theta, tx, ty) and its gradient for one reflection hypothesis.
inline math::Objective exact_transform_objective(const std::vector<math::Vec2>& source,
                                                 const std::vector<math::Vec2>& target,
                                                 bool reflect) {
  return [&source, &target, reflect](const std::vector<double>& p, std::vector<double>& grad) {
    const double theta = p[0];
    const math::Transform2D transform(theta, reflect, math::Vec2{p[1], p[2]});
    const double f = reflect ? -1.0 : 1.0;
    const double c = std::cos(theta);
    const double s = std::sin(theta);

    double error = 0.0;
    grad[0] = grad[1] = grad[2] = 0.0;
    for (std::size_t i = 0; i < source.size(); ++i) {
      const math::Vec2 r = transform.apply(source[i]) - target[i];
      error += r.norm_sq();
      // d(mapped)/dtheta with the paper's matrix convention:
      //   x = u c + v f s + tx -> dx/dtheta = -u s + v f c
      //   y = -u s + v f c + ty -> dy/dtheta = -u c - v f s
      const double u = source[i].x;
      const double v = source[i].y;
      const double dx_dtheta = -u * s + v * f * c;
      const double dy_dtheta = -u * c - v * f * s;
      grad[0] += 2.0 * (r.x * dx_dtheta + r.y * dy_dtheta);
      grad[1] += 2.0 * r.x;
      grad[2] += 2.0 * r.y;
    }
    return error;
  };
}

/// The exact estimate, in the closed form's result type. Invalid for empty
/// or mismatched inputs.
inline math::RigidFit exact_transform(const std::vector<math::Vec2>& source,
                                      const std::vector<math::Vec2>& target, math::Rng& rng) {
  math::RigidFit best;
  if (source.empty() || source.size() != target.size()) return best;

  math::GradientDescentOptions gd;
  gd.step_size = 1e-3;
  gd.max_iterations = 3000;
  gd.gradient_tolerance = 1e-10;
  gd.relative_tolerance = 1e-14;
  const math::RestartOptions restarts{.rounds = 4, .perturbation_stddev = 0.8};

  // Seed translation with the centroid displacement, rotation at zero.
  math::Vec2 mu_src, mu_dst;
  for (const math::Vec2& v : source) mu_src += v;
  for (const math::Vec2& v : target) mu_dst += v;
  mu_src /= static_cast<double>(source.size());
  mu_dst /= static_cast<double>(target.size());
  const math::Vec2 t0 = mu_dst - mu_src;

  for (const bool reflect : {false, true}) {
    const auto result = math::minimize_with_restarts(
        exact_transform_objective(source, target, reflect), {0.0, t0.x, t0.y}, gd, restarts,
        rng);
    if (!best.valid || result.error < best.sum_squared_error) {
      best.transform =
          math::Transform2D(result.x[0], reflect, math::Vec2{result.x[1], result.x[2]});
      best.sum_squared_error = result.error;
      best.valid = true;
    }
  }
  return best;
}

}  // namespace resloc::reference
