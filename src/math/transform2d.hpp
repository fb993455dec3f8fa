// Rigid transforms of the plane (rotation + optional reflection + translation)
// in the homogeneous-coordinate form used by Section 4.3.1 of the paper:
//
//   [x, y, 1] = [u, v, 1] * | cos t  -sin t  0 |
//                           | f sin t f cos t 0 |
//                           | tx      ty      1 |
//
// with reflection factor f in {+1, -1}. The distributed LSS algorithm composes
// and inverts these to align per-node local coordinate systems.
#pragma once

#include <ostream>

#include "math/vec2.hpp"

namespace resloc::math {

/// A rigid transform of the plane: p_target = R_f(theta) * p_source + t,
/// where R_f applies rotation by theta with reflection across the x-axis
/// first when f = -1 (matching the paper's matrix form).
class Transform2D {
 public:
  /// Identity transform.
  Transform2D() : cos_(1.0), sin_(0.0), f_(1.0), t_{0.0, 0.0} {}

  /// Builds a transform from angle, reflection factor and translation.
  Transform2D(double theta, bool reflect, Vec2 translation);

  /// Pure translation.
  static Transform2D translation(Vec2 t) { return Transform2D(0.0, false, t); }

  /// Pure rotation about the origin.
  static Transform2D rotation(double theta) { return Transform2D(theta, false, {0.0, 0.0}); }

  /// Applies the transform to a point.
  Vec2 apply(Vec2 p) const {
    // Row-vector convention from the paper: [u v] * [[c, -s],[f s, f c]] + t.
    return {p.x * cos_ + p.y * f_ * sin_ + t_.x, -p.x * sin_ + p.y * f_ * cos_ + t_.y};
  }

  /// Applies only the rotation/reflection part (for direction vectors).
  Vec2 apply_linear(Vec2 p) const {
    return {p.x * cos_ + p.y * f_ * sin_, -p.x * sin_ + p.y * f_ * cos_};
  }

  /// Composition: (a.then(b)).apply(p) == b.apply(a.apply(p)).
  Transform2D then(const Transform2D& b) const;

  /// Inverse transform.
  Transform2D inverse() const;

  double cos_theta() const { return cos_; }
  double sin_theta() const { return sin_; }
  /// Rotation angle in (-pi, pi].
  double theta() const;
  bool reflected() const { return f_ < 0.0; }
  Vec2 translation_part() const { return t_; }

 private:
  Transform2D(double c, double s, double f, Vec2 t) : cos_(c), sin_(s), f_(f), t_(t) {}

  double cos_;
  double sin_;
  double f_;  // +1 or -1
  Vec2 t_;
};

std::ostream& operator<<(std::ostream& os, const Transform2D& t);

}  // namespace resloc::math
