#include <gtest/gtest.h>

#include "reference/classical_mds.hpp"

namespace {

using resloc::reference::Matrix;

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = 4.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 4.0);
}

TEST(Matrix, InitializerList) {
  const Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

TEST(Matrix, Identity) {
  const Matrix id = Matrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(id(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(Matrix, AddSubtractScale) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  EXPECT_EQ(a + b, Matrix({{6.0, 8.0}, {10.0, 12.0}}));
  EXPECT_EQ(b - a, Matrix({{4.0, 4.0}, {4.0, 4.0}}));
  EXPECT_EQ(a * 2.0, Matrix({{2.0, 4.0}, {6.0, 8.0}}));
}

TEST(Matrix, Product) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  EXPECT_EQ(a * b, Matrix({{19.0, 22.0}, {43.0, 50.0}}));
}

TEST(Matrix, ProductWithIdentity) {
  const Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  EXPECT_EQ(a * Matrix::identity(3), a);
  EXPECT_EQ(Matrix::identity(2) * a, a);
}

TEST(Matrix, Transpose) {
  const Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  EXPECT_EQ(t.transposed(), a);
}

TEST(Matrix, MaxOffDiagonal) {
  const Matrix m{{10.0, -3.0}, {2.0, 20.0}};
  EXPECT_DOUBLE_EQ(m.max_off_diagonal(), 3.0);
  EXPECT_DOUBLE_EQ(Matrix::identity(4).max_off_diagonal(), 0.0);
}

TEST(Matrix, FrobeniusNorm) {
  const Matrix m{{3.0, 0.0}, {0.0, 4.0}};
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), 5.0);
}

TEST(Matrix, DoubleCenteringAnnihilatesRowColumnMeans) {
  const Matrix m{{0.0, 1.0, 4.0}, {1.0, 0.0, 9.0}, {4.0, 9.0, 0.0}};
  const Matrix b = m.double_centered();
  for (std::size_t r = 0; r < 3; ++r) {
    double row_sum = 0.0;
    double col_sum = 0.0;
    for (std::size_t c = 0; c < 3; ++c) {
      row_sum += b(r, c);
      col_sum += b(c, r);
    }
    EXPECT_NEAR(row_sum, 0.0, 1e-12);
    EXPECT_NEAR(col_sum, 0.0, 1e-12);
  }
}

TEST(Matrix, DoubleCenteringRecoversGramMatrix) {
  // Points on a line: x = 0, 3, 6. Squared distances d_ij^2; B should equal
  // the Gram matrix of centered coordinates: centered x = -3, 0, 3.
  Matrix d2(3, 3, 0.0);
  const double xs[3] = {0.0, 3.0, 6.0};
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      d2(i, j) = (xs[i] - xs[j]) * (xs[i] - xs[j]);
    }
  }
  const Matrix b = d2.double_centered();
  const double centered[3] = {-3.0, 0.0, 3.0};
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_NEAR(b(i, j), centered[i] * centered[j], 1e-12);
    }
  }
}

}  // namespace
