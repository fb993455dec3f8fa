#include "math/spatial_hash_grid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace resloc::math {

namespace {

/// floor(v / cell) as a biased 21-bit cell coordinate. The clamp keeps
/// out-of-range and non-finite values (NaN fails both comparisons and lands
/// at 0) inside the packing instead of invoking UB; clamped points merge into
/// the boundary cells, which only ever adds candidates.
std::uint64_t biased_coord(double v, double inv_cell) {
  constexpr double kBias = 1048576.0;  // 2^20
  const double c = std::floor(v * inv_cell) + kBias;
  // Negated comparison so NaN takes the clamp branch: a plain `c <= 0.0` is
  // false for NaN and would fall through into an undefined float->int cast.
  if (!(c > 0.0)) return 0;
  if (c >= 2097151.0) return 2097151;  // 2^21 - 1
  return static_cast<std::uint64_t>(c);
}

}  // namespace

void SpatialHashGrid::rebuild(const double* xs, const double* ys, std::size_t n,
                              double cell_size) {
  if (n > kMaxPoints) {
    throw std::length_error("SpatialHashGrid: point count exceeds 2^21");
  }
  count_ = n;
  entries_.resize(n);
  const double inv_cell = 1.0 / cell_size;
  std::uint64_t min_row = ~std::uint64_t{0};
  std::uint64_t max_row = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t row = biased_coord(ys[i], inv_cell);
    const std::uint64_t col = biased_coord(xs[i], inv_cell);
    entries_[i] = (row << (2 * kCoordBits)) | (col << kCoordBits) | i;
    min_row = std::min(min_row, row);
    max_row = std::max(max_row, row);
  }
  if (n == 0) return;

  // Sorting the packed words is the rebuild's dominant cost, and a
  // comparison sort pays ~n log n branchy compares per evaluation. Real
  // configurations occupy a band of rows proportional to the field height,
  // so a counting sort over rows followed by small per-row sorts is ~2-4x
  // cheaper; widely scattered rows (diverged descent) fall back to one
  // comparison sort.
  const std::uint64_t row_range = max_row - min_row + 1;
  if (row_range > 4 * n + 16) {
    std::sort(entries_.begin(), entries_.end());
    return;
  }
  row_offsets_.assign(static_cast<std::size_t>(row_range) + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    ++row_offsets_[static_cast<std::size_t>((entries_[i] >> (2 * kCoordBits)) - min_row) + 1];
  }
  for (std::size_t r = 1; r < row_offsets_.size(); ++r) row_offsets_[r] += row_offsets_[r - 1];
  scratch_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto r = static_cast<std::size_t>((entries_[i] >> (2 * kCoordBits)) - min_row);
    scratch_[row_offsets_[r]++] = entries_[i];
  }
  entries_.swap(scratch_);
  // row_offsets_[r] now marks the end of row r's span; sort each row by
  // (col, id). Rows are a handful of points, so insertion sort wins there;
  // clustered configurations degrade gracefully to std::sort.
  std::size_t begin = 0;
  for (std::size_t r = 0; r < static_cast<std::size_t>(row_range); ++r) {
    const std::size_t end = row_offsets_[r];
    const std::size_t len = end - begin;
    if (len > 32) {
      std::sort(entries_.begin() + static_cast<std::ptrdiff_t>(begin),
                entries_.begin() + static_cast<std::ptrdiff_t>(end));
    } else if (len > 1) {
      for (std::size_t a = begin + 1; a < end; ++a) {
        const std::uint64_t v = entries_[a];
        std::size_t b = a;
        while (b > begin && entries_[b - 1] > v) {
          entries_[b] = entries_[b - 1];
          --b;
        }
        entries_[b] = v;
      }
    }
    begin = end;
  }
}

}  // namespace resloc::math
