#include "math/geometry.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace resloc::math {

std::vector<Vec2> intersect(const Circle& a, const Circle& b) {
  const Vec2 delta = b.center - a.center;
  const double d = delta.norm();
  if (d == 0.0) return {};  // concentric (or identical): no usable points
  if (d > a.radius + b.radius) return {};
  if (d < std::abs(a.radius - b.radius)) return {};  // one inside the other

  // Distance from a.center to the chord midpoint along the center line.
  const double along = (a.radius * a.radius - b.radius * b.radius + d * d) / (2.0 * d);
  const double h_sq = a.radius * a.radius - along * along;
  const Vec2 mid = a.center + delta * (along / d);
  if (h_sq <= 0.0) {
    return {mid};  // tangency (within FP tolerance)
  }
  const double h = std::sqrt(h_sq);
  const Vec2 offset = delta.perp() * (h / d);
  return {mid + offset, mid - offset};
}

bool satisfies_triangle_inequality(double a, double b, double c) {
  return satisfies_triangle_inequality(a, b, c, 0.0);
}

bool satisfies_triangle_inequality(double a, double b, double c, double tolerance) {
  const double slack = 1.0 + tolerance;
  return a <= (b + c) * slack && b <= (a + c) * slack && c <= (a + b) * slack;
}

namespace {

/// Minimal union-find over indices 0..n-1.
class DisjointSets {
 public:
  explicit DisjointSets(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

std::vector<std::vector<std::size_t>> cluster_points(const std::vector<Vec2>& points,
                                                     double radius) {
  const std::size_t n = points.size();
  DisjointSets sets(n);
  const double r_sq = radius * radius;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (distance_sq(points[i], points[j]) <= r_sq) sets.unite(i, j);
    }
  }
  // Group indices by root, preserving first-appearance order of clusters.
  std::vector<std::vector<std::size_t>> clusters;
  std::vector<std::ptrdiff_t> root_to_cluster(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t root = sets.find(i);
    if (root_to_cluster[root] < 0) {
      root_to_cluster[root] = static_cast<std::ptrdiff_t>(clusters.size());
      clusters.emplace_back();
    }
    clusters[static_cast<std::size_t>(root_to_cluster[root])].push_back(i);
  }
  return clusters;
}

std::vector<std::size_t> largest_cluster(const std::vector<Vec2>& points, double radius) {
  auto clusters = cluster_points(points, radius);
  if (clusters.empty()) return {};
  const auto best = std::max_element(
      clusters.begin(), clusters.end(),
      [](const auto& a, const auto& b) { return a.size() < b.size(); });
  return *best;
}

Vec2 centroid(const std::vector<Vec2>& points) {
  if (points.empty()) return {};
  Vec2 sum;
  for (const auto& p : points) sum += p;
  return sum / static_cast<double>(points.size());
}

}  // namespace resloc::math
