// In-range pair enumeration over a 2-D point set by spatial-grid culling,
// replayed in the dense scan's order.
//
// The measurement-acquisition front end (acoustic campaigns, synthetic
// measurement generators, augmentation) repeatedly needs "every unordered
// pair closer than a cutoff" over deployments whose measurement graphs are
// sparse -- the paper's own premise (Section 3: acoustic ranging is
// short-range, so almost every pair of a large field is out of range). A
// dense scan pays O(n^2) distance computations to find O(n) survivors; this
// enumerator buckets the points into cells of (slightly more than) the cutoff
// via SpatialHashGrid and keeps only candidate pairs sharing a 3x3 cell
// block, O(n + candidates).
//
// Replay order is the contract: the kept pairs are stored grouped by i with
// ascending j (the dense scan's (i, j)-lexicographic order, restored by the
// counting-bucket + insertion sort the LSS soft-constraint pair list also
// uses), and the per-node neighbor lists visit ascending ids (the order a
// dense per-source receiver loop visits them). Every distance is computed
// once, by the same math::distance(points[i], points[j]) call the dense scan
// makes -- distance is bitwise symmetric in its arguments -- so consumers
// that draw RNG per kept pair in replay order produce byte-identical results
// to their dense counterparts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "math/spatial_hash_grid.hpp"
#include "math/vec2.hpp"

namespace resloc::math {

class GridPairEnumerator {
 public:
  /// Rebuilds over points[0..n): keeps every unordered pair (i < j) whose
  /// distance d satisfies d < cutoff_m, or d <= cutoff_m when include_equal
  /// is set (the two comparisons the measurement generators and the campaign
  /// cutoff use, respectively). Internal buffers are reused across rebuilds.
  /// A negative cutoff keeps nothing; cutoff 0 with include_equal keeps only
  /// coincident pairs. Throws std::length_error past SpatialHashGrid's 2^21
  /// point cap.
  void build(const Vec2* points, std::size_t n, double cutoff_m, bool include_equal);

  std::size_t point_count() const { return n_; }
  std::size_t pair_count() const { return js_.size(); }

  /// In-range neighbor count of node i (both directions), O(1).
  std::size_t degree(std::size_t i) const {
    return adj_offsets_[i + 1] - adj_offsets_[i];
  }

  /// Invokes fn(i, j, distance_m) for every kept pair, i < j, in the dense
  /// scan's (i asc, j asc) order.
  template <typename Fn>
  void for_each_pair(Fn&& fn) const {
    std::size_t t = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      const std::size_t end = pair_offsets_[i + 1];
      for (; t < end; ++t) fn(i, static_cast<std::size_t>(js_[t]), dist_[t]);
    }
  }

  /// Invokes fn(j, distance_m) for every in-range neighbor j of node i
  /// (either side of the unordered pair), in ascending j -- the order a
  /// dense receiver scan `for (j = 0; j < n; ++j)` visits the survivors.
  template <typename Fn>
  void for_each_neighbor(std::size_t i, Fn&& fn) const {
    for (std::size_t t = adj_offsets_[i]; t < adj_offsets_[i + 1]; ++t) {
      fn(static_cast<std::size_t>(adj_ids_[t]), adj_dist_[t]);
    }
  }

 private:
  std::size_t n_ = 0;
  SpatialHashGrid grid_;
  std::vector<double> xs_, ys_;  // split coordinates for the grid rebuild

  // Kept pairs as CSR over i: js_/dist_[pair_offsets_[i] .. pair_offsets_[i+1])
  // are node i's ascending partners j > i with their distances.
  std::vector<std::uint32_t> pair_offsets_;
  std::vector<std::uint32_t> js_;
  std::vector<double> dist_;

  // Symmetric adjacency as CSR: both directions of every kept pair, ascending.
  std::vector<std::uint32_t> adj_offsets_;
  std::vector<std::uint32_t> adj_ids_;
  std::vector<double> adj_dist_;

  // Scatter scratch, reused across builds.
  std::vector<std::uint64_t> cand_;       // packed (i << 32) | j, emission order
  std::vector<double> cand_dist_;
  std::vector<std::uint32_t> walk_;
};

}  // namespace resloc::math
