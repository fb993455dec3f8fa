// Plain-text reporting: fixed-width tables and fixed-precision number
// formatting for the campaign app and the bench records.
#pragma once

#include <string>
#include <vector>

namespace resloc::eval {

/// Simple fixed-width ASCII table builder.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);

  /// Convenience: formats each double with the given precision.
  void add_row(const std::vector<double>& row, int precision = 3);

  std::string to_string() const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision.
std::string fmt(double value, int precision = 3);

}  // namespace resloc::eval
