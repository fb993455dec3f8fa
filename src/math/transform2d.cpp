#include "math/transform2d.hpp"

#include <cmath>

namespace resloc::math {

Transform2D::Transform2D(double theta, bool reflect, Vec2 translation)
    : cos_(std::cos(theta)), sin_(std::sin(theta)), f_(reflect ? -1.0 : 1.0), t_(translation) {}

Transform2D Transform2D::then(const Transform2D& b) const {
  // Linear parts in the paper's row-vector convention:
  //   L = | c      -s    |
  //       | f*s     f*c  |
  // Composite linear part is L_a * L_b, which is again of the same form with
  // f' = f_a * f_b (the determinant of L is f). Extract (c', s') from the
  // first row of the product.
  const double m11 = cos_ * b.cos_ + (-sin_) * (b.f_ * b.sin_);
  const double m12 = cos_ * (-b.sin_) + (-sin_) * (b.f_ * b.cos_);
  Transform2D out(m11, -m12, f_ * b.f_, {0.0, 0.0});
  out.t_ = b.apply_linear(t_) + b.t_;
  return out;
}

Transform2D Transform2D::inverse() const {
  // For f = +1 the linear inverse is rotation by -theta; for f = -1 the
  // linear part is an involution (its own inverse).
  Transform2D inv(cos_, f_ > 0.0 ? -sin_ : sin_, f_, {0.0, 0.0});
  inv.t_ = -inv.apply_linear(t_);
  return inv;
}

double Transform2D::theta() const { return std::atan2(sin_, cos_); }

std::ostream& operator<<(std::ostream& os, const Transform2D& t) {
  return os << "Transform2D{theta=" << t.theta() << ", f=" << (t.reflected() ? -1 : 1)
            << ", t=" << t.translation_part() << '}';
}

}  // namespace resloc::math
