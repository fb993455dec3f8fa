#include <gtest/gtest.h>

#include <cmath>

#include "math/rng.hpp"
#include "math/transform2d.hpp"

namespace {

using resloc::math::Rng;
using resloc::math::Transform2D;
using resloc::math::Vec2;

constexpr double kTol = 1e-12;

void expect_vec_near(Vec2 a, Vec2 b, double tol = kTol) {
  EXPECT_NEAR(a.x, b.x, tol);
  EXPECT_NEAR(a.y, b.y, tol);
}

TEST(Transform2D, IdentityMapsPointsToThemselves) {
  const Transform2D id;
  expect_vec_near(id.apply({3.0, -2.0}), {3.0, -2.0});
  EXPECT_FALSE(id.reflected());
  EXPECT_DOUBLE_EQ(id.theta(), 0.0);
}

TEST(Transform2D, PureTranslation) {
  const auto t = Transform2D::translation({2.0, -1.0});
  expect_vec_near(t.apply({1.0, 1.0}), {3.0, 0.0});
  expect_vec_near(t.apply_linear({1.0, 1.0}), {1.0, 1.0});
}

TEST(Transform2D, RotationMatchesPaperMatrixConvention) {
  // [x y] = [u v] * [[c, -s], [f s, f c]] with f = +1:
  // u=(1,0) -> (c, -s).
  const double theta = 0.3;
  const auto r = Transform2D::rotation(theta);
  expect_vec_near(r.apply({1.0, 0.0}), {std::cos(theta), -std::sin(theta)});
  expect_vec_near(r.apply({0.0, 1.0}), {std::sin(theta), std::cos(theta)});
}

TEST(Transform2D, ReflectionFactor) {
  const Transform2D m(0.0, /*reflect=*/true, {0.0, 0.0});
  // f=-1, theta=0: x = u, y = -v (mirror across the x axis).
  expect_vec_near(m.apply({2.0, 3.0}), {2.0, -3.0});
  EXPECT_TRUE(m.reflected());
}

TEST(Transform2D, PreservesDistances) {
  const Transform2D t(1.1, true, {4.0, -7.0});
  const Vec2 a{1.0, 2.0};
  const Vec2 b{-3.0, 5.0};
  EXPECT_NEAR(resloc::math::distance(t.apply(a), t.apply(b)), resloc::math::distance(a, b),
              1e-12);
}

TEST(Transform2D, CompositionMatchesSequentialApplication) {
  Rng rng(123);
  for (int trial = 0; trial < 50; ++trial) {
    const Transform2D a(rng.uniform(-3.0, 3.0), rng.bernoulli(0.5),
                        {rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)});
    const Transform2D b(rng.uniform(-3.0, 3.0), rng.bernoulli(0.5),
                        {rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)});
    const Transform2D ab = a.then(b);
    const Vec2 p{rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)};
    expect_vec_near(ab.apply(p), b.apply(a.apply(p)), 1e-10);
  }
}

TEST(Transform2D, CompositionReflectionParity) {
  const Transform2D r(0.4, true, {0.0, 0.0});
  EXPECT_FALSE(r.then(r).reflected());  // two reflections cancel
  const Transform2D plain(0.2, false, {1.0, 1.0});
  EXPECT_TRUE(r.then(plain).reflected());
  EXPECT_TRUE(plain.then(r).reflected());
}

TEST(Transform2D, InverseRoundTrip) {
  Rng rng(321);
  for (int trial = 0; trial < 50; ++trial) {
    const Transform2D t(rng.uniform(-3.0, 3.0), rng.bernoulli(0.5),
                        {rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)});
    const Vec2 p{rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)};
    expect_vec_near(t.inverse().apply(t.apply(p)), p, 1e-10);
    expect_vec_near(t.apply(t.inverse().apply(p)), p, 1e-10);
  }
}

TEST(Transform2D, InverseComposesToIdentity) {
  const Transform2D t(0.77, true, {3.0, 4.0});
  const Transform2D id = t.then(t.inverse());
  EXPECT_NEAR(id.cos_theta(), 1.0, kTol);
  EXPECT_NEAR(id.sin_theta(), 0.0, kTol);
  EXPECT_FALSE(id.reflected());
  expect_vec_near(id.translation_part(), {0.0, 0.0});
}

TEST(Transform2D, ThetaAccessor) {
  const Transform2D t(0.6, false, {0.0, 0.0});
  EXPECT_NEAR(t.theta(), 0.6, 1e-15);
  const Transform2D neg(-2.5, true, {0.0, 0.0});
  EXPECT_NEAR(neg.theta(), -2.5, 1e-15);
}

}  // namespace
