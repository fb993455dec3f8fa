// Fixed-bin histogram used to reproduce the paper's ranging-error histograms
// (Figures 6 and 7) and to render ASCII versions of them in the benches.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace resloc::math {

/// Histogram over [lo, hi) with uniform bins; values outside the range are
/// counted in underflow/overflow.
class Histogram {
 public:
  /// Throws std::invalid_argument unless hi > lo and bins > 0 (this also
  /// rejects NaN bounds). Enforced in every build type -- a malformed range
  /// would silently produce a zero-or-negative bin width.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double value);
  void add_all(const std::vector<double>& values);

  std::size_t count(std::size_t bin) const { return counts_.at(bin); }
  std::size_t underflow() const { return underflow_; }
  std::size_t overflow() const { return overflow_; }
  std::size_t total() const { return total_; }

  /// Center of the given bin.
  double bin_center(std::size_t bin) const;
  /// Inclusive lower edge of the given bin.
  double bin_lower(std::size_t bin) const;
  double bin_width() const { return width_; }

  /// Index of the most populated bin.
  std::size_t peak_bin() const;

  /// Renders a row-per-bin ASCII bar chart, scaled so the largest bar is
  /// `max_bar` characters wide. Intended for bench/report output.
  std::string to_ascii(std::size_t max_bar = 60) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
  std::size_t total_ = 0;
};

}  // namespace resloc::math
