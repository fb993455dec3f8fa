#include <gtest/gtest.h>

#include <cmath>

#include "math/geometry.hpp"

namespace {

using namespace resloc::math;

TEST(CircleIntersection, TwoPoints) {
  const Circle a{{0.0, 0.0}, 5.0};
  const Circle b{{8.0, 0.0}, 5.0};
  const auto points = intersect(a, b);
  ASSERT_EQ(points.size(), 2u);
  for (const Vec2& p : points) {
    EXPECT_NEAR(distance(p, a.center), 5.0, 1e-9);
    EXPECT_NEAR(distance(p, b.center), 5.0, 1e-9);
  }
  EXPECT_NEAR(points[0].x, 4.0, 1e-9);
  EXPECT_NEAR(std::abs(points[0].y), 3.0, 1e-9);
}

TEST(CircleIntersection, Tangent) {
  const Circle a{{0.0, 0.0}, 2.0};
  const Circle b{{5.0, 0.0}, 3.0};
  const auto points = intersect(a, b);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_NEAR(points[0].x, 2.0, 1e-9);
  EXPECT_NEAR(points[0].y, 0.0, 1e-9);
}

TEST(CircleIntersection, Disjoint) {
  EXPECT_TRUE(intersect({{0.0, 0.0}, 1.0}, {{10.0, 0.0}, 2.0}).empty());
}

TEST(CircleIntersection, OneInsideOther) {
  EXPECT_TRUE(intersect({{0.0, 0.0}, 10.0}, {{1.0, 0.0}, 2.0}).empty());
}

TEST(CircleIntersection, Concentric) {
  EXPECT_TRUE(intersect({{0.0, 0.0}, 2.0}, {{0.0, 0.0}, 3.0}).empty());
  EXPECT_TRUE(intersect({{0.0, 0.0}, 2.0}, {{0.0, 0.0}, 2.0}).empty());
}

TEST(TriangleInequality, ValidTriples) {
  EXPECT_TRUE(satisfies_triangle_inequality(3.0, 4.0, 5.0));
  EXPECT_TRUE(satisfies_triangle_inequality(1.0, 1.0, 2.0));  // degenerate allowed
  EXPECT_TRUE(satisfies_triangle_inequality(2.0, 2.0, 2.0));
}

TEST(TriangleInequality, Violations) {
  EXPECT_FALSE(satisfies_triangle_inequality(10.0, 1.0, 2.0));
  EXPECT_FALSE(satisfies_triangle_inequality(1.0, 10.0, 2.0));
  EXPECT_FALSE(satisfies_triangle_inequality(1.0, 2.0, 10.0));
}

TEST(TriangleInequality, ToleranceAllowsSlack) {
  // 10 vs 9.5 sum: 5.3% over; allowed at 6% tolerance, rejected at 3%.
  EXPECT_TRUE(satisfies_triangle_inequality(10.0, 4.5, 5.0, 0.06));
  EXPECT_FALSE(satisfies_triangle_inequality(10.0, 4.5, 5.0, 0.03));
}

TEST(Clustering, SingleLinkageChains) {
  // A chain of points 0.9 apart forms one cluster at radius 1.0.
  std::vector<Vec2> points;
  for (int i = 0; i < 5; ++i) points.push_back({0.9 * i, 0.0});
  points.push_back({100.0, 0.0});  // far outlier
  const auto clusters = cluster_points(points, 1.0);
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0].size(), 5u);
  EXPECT_EQ(clusters[1].size(), 1u);
}

TEST(Clustering, LargestCluster) {
  const std::vector<Vec2> points{{0.0, 0.0}, {0.5, 0.0}, {0.2, 0.3},
                                 {50.0, 50.0}, {50.4, 50.0}};
  const auto cluster = largest_cluster(points, 1.0);
  EXPECT_EQ(cluster.size(), 3u);
}

TEST(Clustering, EmptyInput) {
  EXPECT_TRUE(cluster_points({}, 1.0).empty());
  EXPECT_TRUE(largest_cluster({}, 1.0).empty());
}

TEST(Centroid, Basics) {
  EXPECT_EQ(centroid({}), Vec2(0.0, 0.0));
  const Vec2 c = centroid({{0.0, 0.0}, {2.0, 0.0}, {1.0, 3.0}});
  EXPECT_DOUBLE_EQ(c.x, 1.0);
  EXPECT_DOUBLE_EQ(c.y, 1.0);
}

}  // namespace
