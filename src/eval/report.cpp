#include "eval/report.hpp"

#include <cstdio>
#include <sstream>

namespace resloc::eval {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

void Table::add_row(const std::vector<double>& row, int precision) {
  std::vector<std::string> cells;
  cells.reserve(row.size());
  for (double v : row) cells.push_back(fmt(v, precision));
  add_row(std::move(cells));
}

std::string Table::to_string() const {
  // Column widths.
  std::vector<std::size_t> widths(header_.size(), 0);
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream os;
  const auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string{};
      os << "  " << cell << std::string(widths[c] - cell.size(), ' ');
    }
    os << '\n';
  };
  emit_row(header_);
  std::size_t total = 2 * widths.size();
  for (std::size_t w : widths) total += w;
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

std::string fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

}  // namespace resloc::eval
