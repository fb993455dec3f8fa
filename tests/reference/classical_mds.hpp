// Classical multidimensional scaling, the Section 4.2 background baseline
// ([18], [19]) the paper contrasts LSS against, with the dense matrix and the
// cyclic-Jacobi symmetric eigensolver it needs.
//
// Classical MDS double-centers the squared-distance matrix and takes the top
// two principal components as coordinates. Its "critical requirement is that
// distances between all pairs of nodes be known a priori"; the MDS-MAP remedy
// completes a sparse measurement set with shortest-path distances first. No
// production path runs it: it is the comparison baseline of ablation A5
// (bench/bench_paper.cpp) and is checked by tests/test_core_lss.cpp,
// tests/test_math_matrix.cpp and tests/test_math_optim.cpp.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <initializer_list>
#include <numeric>
#include <optional>
#include <vector>

#include "core/types.hpp"
#include "math/vec2.hpp"

namespace resloc::reference {

/// Row-major dense matrix of doubles; matrices here are at most a few
/// hundred rows (one per sensor node).
class Matrix {
 public:
  Matrix() = default;

  /// Creates a `rows` x `cols` matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Creates a matrix from nested initializer lists (row by row).
  Matrix(std::initializer_list<std::initializer_list<double>> init) {
    rows_ = init.size();
    cols_ = rows_ == 0 ? 0 : init.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& row : init) {
      assert(row.size() == cols_ && "ragged initializer");
      data_.insert(data_.end(), row.begin(), row.end());
    }
  }

  /// The n x n identity matrix.
  static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  bool operator==(const Matrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_ && data_ == o.data_;
  }

  Matrix operator+(const Matrix& o) const { return plus_scaled(o, 1.0); }
  Matrix operator-(const Matrix& o) const { return plus_scaled(o, -1.0); }
  Matrix operator*(double s) const {
    Matrix out = *this;
    for (double& v : out.data_) v *= s;
    return out;
  }

  /// Matrix product.
  Matrix operator*(const Matrix& o) const {
    assert(cols_ == o.rows_);
    Matrix out(rows_, o.cols_);
    for (std::size_t i = 0; i < rows_; ++i) {
      for (std::size_t k = 0; k < cols_; ++k) {
        const double a = (*this)(i, k);
        if (a == 0.0) continue;
        for (std::size_t j = 0; j < o.cols_; ++j) out(i, j) += a * o(k, j);
      }
    }
    return out;
  }

  /// Transposed copy.
  Matrix transposed() const {
    Matrix out(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
      for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
    return out;
  }

  /// Largest absolute off-diagonal element; convergence measure for Jacobi.
  double max_off_diagonal() const {
    double best = 0.0;
    for (std::size_t r = 0; r < rows_; ++r) {
      for (std::size_t c = 0; c < cols_; ++c) {
        if (r != c) best = std::max(best, std::abs((*this)(r, c)));
      }
    }
    return best;
  }

  /// Frobenius norm.
  double frobenius_norm() const {
    double sum = 0.0;
    for (double v : data_) sum += v * v;
    return std::sqrt(sum);
  }

  /// MDS double centering: B = -1/2 * J * M * J with J = I - 11^T/n.
  /// `*this` must be square (typically a matrix of squared distances).
  Matrix double_centered() const {
    assert(rows_ == cols_);
    const std::size_t n = rows_;
    if (n == 0) return {};
    std::vector<double> row_mean(n, 0.0);
    std::vector<double> col_mean(n, 0.0);
    double total_mean = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        const double v = (*this)(r, c);
        row_mean[r] += v;
        col_mean[c] += v;
        total_mean += v;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      row_mean[i] /= static_cast<double>(n);
      col_mean[i] /= static_cast<double>(n);
    }
    total_mean /= static_cast<double>(n * n);
    Matrix out(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        out(r, c) = -0.5 * ((*this)(r, c) - row_mean[r] - col_mean[c] + total_mean);
      }
    }
    return out;
  }

 private:
  /// Elementwise *this + s * o; s = +-1 is exact addition or subtraction.
  Matrix plus_scaled(const Matrix& o, double s) const {
    assert(rows_ == o.rows_ && cols_ == o.cols_);
    Matrix out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] = data_[i] + s * o.data_[i];
    return out;
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Eigenvalues (descending) with matching eigenvectors: column i of
/// `eigenvectors` belongs to eigenvalues[i]; the columns are orthonormal.
struct EigenDecomposition {
  std::vector<double> eigenvalues;
  Matrix eigenvectors;
};

/// Cyclic Jacobi decomposition of a symmetric matrix. Asserts on non-square
/// input; symmetry is assumed. `tolerance` bounds the final max off-diagonal
/// magnitude.
inline EigenDecomposition jacobi_eigen_decomposition(Matrix a, double tolerance = 1e-12,
                                                     int max_sweeps = 100) {
  assert(a.rows() == a.cols());
  const std::size_t n = a.rows();
  Matrix v = Matrix::identity(n);

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    if (a.max_off_diagonal() <= tolerance) break;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (std::abs(apq) <= tolerance) continue;

        // Classic Jacobi rotation annihilating a(p, q): columns p, q of a,
        // then rows p, q of a, then columns p, q of v.
        const double theta = (a(q, q) - a(p, p)) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        const auto rotate = [c, s](double& x, double& y) {
          const double x0 = x;
          const double y0 = y;
          x = c * x0 - s * y0;
          y = s * x0 + c * y0;
        };
        for (std::size_t k = 0; k < n; ++k) rotate(a(k, p), a(k, q));
        for (std::size_t k = 0; k < n; ++k) rotate(a(p, k), a(q, k));
        for (std::size_t k = 0; k < n; ++k) rotate(v(k, p), v(k, q));
      }
    }
  }

  // Sort eigenpairs by descending eigenvalue.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<double> diag(n);
  for (std::size_t i = 0; i < n; ++i) diag[i] = a(i, i);
  std::sort(order.begin(), order.end(),
            [&](std::size_t lhs, std::size_t rhs) { return diag[lhs] > diag[rhs]; });

  EigenDecomposition out;
  out.eigenvalues.resize(n);
  out.eigenvectors = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    out.eigenvalues[i] = diag[order[i]];
    for (std::size_t r = 0; r < n; ++r) out.eigenvectors(r, i) = v(r, order[i]);
  }
  return out;
}

/// Classical MDS output.
struct MdsResult {
  std::vector<math::Vec2> positions;  ///< relative frame
  /// Fraction of total (positive) eigenvalue mass captured by the first two
  /// components; near 1 for genuinely 2-D data.
  double planarity = 0.0;
};

/// Classical MDS on a complete distance matrix (n x n, symmetric, zero
/// diagonal). Returns nullopt when the matrix is not square or is empty.
inline std::optional<MdsResult> classical_mds(const Matrix& distances) {
  if (distances.rows() == 0 || distances.rows() != distances.cols()) return std::nullopt;
  const std::size_t n = distances.rows();

  // Squared distances, double-centered: B = -1/2 J D^2 J.
  Matrix squared(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) squared(r, c) = distances(r, c) * distances(r, c);
  }
  const auto eigen = jacobi_eigen_decomposition(squared.double_centered());

  MdsResult result;
  result.positions.resize(n);
  // Coordinates: v_i * sqrt(lambda_i) for the top two eigenpairs.
  const double l1 = std::max(eigen.eigenvalues.size() > 0 ? eigen.eigenvalues[0] : 0.0, 0.0);
  const double l2 = std::max(eigen.eigenvalues.size() > 1 ? eigen.eigenvalues[1] : 0.0, 0.0);
  const double s1 = std::sqrt(l1);
  const double s2 = std::sqrt(l2);
  for (std::size_t i = 0; i < n; ++i) {
    result.positions[i] = math::Vec2{eigen.eigenvectors(i, 0) * s1, eigen.eigenvectors(i, 1) * s2};
  }

  double positive_mass = 0.0;
  for (double l : eigen.eigenvalues) positive_mass += std::max(l, 0.0);
  result.planarity = positive_mass > 0.0 ? (l1 + l2) / positive_mass : 0.0;
  return result;
}

/// All-pairs shortest-path completion of a sparse measurement set
/// (Floyd-Warshall over measured edges). Unreachable pairs are set to
/// `unreachable_value` (a large value keeps MDS defined but distorted --
/// exactly the failure mode that motivates LSS).
inline Matrix shortest_path_completion(const core::MeasurementSet& measurements,
                                       double unreachable_value = 1e6) {
  const std::size_t n = measurements.node_count();
  Matrix dist(n, n, unreachable_value);
  for (std::size_t i = 0; i < n; ++i) dist(i, i) = 0.0;
  for (const core::DistanceEdge& e : measurements.edges()) {
    // Keep the smaller value if duplicate paths disagree.
    dist(e.i, e.j) = std::min(dist(e.i, e.j), e.distance_m);
    dist(e.j, e.i) = dist(e.i, e.j);
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      const double dik = dist(i, k);
      if (dik >= unreachable_value) continue;
      for (std::size_t j = 0; j < n; ++j) {
        const double candidate = dik + dist(k, j);
        if (candidate < dist(i, j)) dist(i, j) = candidate;
      }
    }
  }
  return dist;
}

/// MDS-MAP: shortest-path completion followed by classical MDS. Returns
/// nullopt for empty inputs.
inline std::optional<MdsResult> mds_map(const core::MeasurementSet& measurements) {
  if (measurements.node_count() == 0) return std::nullopt;
  return classical_mds(shortest_path_completion(measurements));
}

}  // namespace resloc::reference
