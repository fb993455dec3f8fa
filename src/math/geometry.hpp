// Planar geometry kernels for the intersection consistency check of
// Section 4.1.2: range-circle intersection and point clustering.
#pragma once

#include <cstddef>
#include <vector>

#include "math/vec2.hpp"

namespace resloc::math {

/// A circle in the plane; for localization, center = anchor position and
/// radius = measured distance to the node being localized.
struct Circle {
  Vec2 center;
  double radius = 0.0;
};

/// Intersection points of two circles: 0, 1 (tangency) or 2 points.
/// Concentric or identical circles yield no points.
std::vector<Vec2> intersect(const Circle& a, const Circle& b);

/// Returns true iff the three lengths can form a (possibly degenerate)
/// triangle: each side no longer than the sum of the other two. The ranging
/// service uses the converse to flag inconsistent distance triples
/// (Section 3.5, "consistency checking").
bool satisfies_triangle_inequality(double a, double b, double c);

/// Same check with a multiplicative slack: sides may exceed the sum of the
/// other two by `tolerance` fraction before being flagged. Measurements carry
/// noise, so a strict check would reject valid triples.
bool satisfies_triangle_inequality(double a, double b, double c, double tolerance);

/// Partition of points into clusters by single linkage: two points belong to
/// the same cluster iff a chain of points with consecutive gaps <= radius
/// connects them. Returned clusters hold indices into `points`.
std::vector<std::vector<std::size_t>> cluster_points(const std::vector<Vec2>& points,
                                                     double radius);

/// Indices of the largest single-linkage cluster (ties: lowest first index).
/// Empty when `points` is empty.
std::vector<std::size_t> largest_cluster(const std::vector<Vec2>& points, double radius);

/// Centroid of a point set. Zero vector for an empty set.
Vec2 centroid(const std::vector<Vec2>& points);

}  // namespace resloc::math
