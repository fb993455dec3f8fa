// Localization evaluation metrics.
//
// The paper reports the "average localization error (i.e., the average of the
// distances between actual node positions and the corresponding estimated
// positions)". For relative-frame algorithms (LSS, distributed LSS) the
// computed coordinates are first "translated, rotated and flipped to achieve
// a best-fit match with the actual node coordinates" (Section 4.2.2);
// multilateration results are absolute and compared directly.
#pragma once

#include <optional>
#include <vector>

#include "core/types.hpp"
#include "math/vec2.hpp"

namespace resloc::eval {

/// Per-run localization error report.
struct LocalizationReport {
  std::size_t total_nodes = 0;
  std::size_t localized = 0;
  double average_error_m = 0.0;
  double max_error_m = 0.0;
  double median_error_m = 0.0;
  std::vector<double> per_node_errors;             ///< localized nodes only
  std::vector<std::optional<double>> node_errors;  ///< indexed by node id

  double localized_fraction() const {
    return total_nodes == 0 ? 0.0
                            : static_cast<double>(localized) / static_cast<double>(total_nodes);
  }

  /// Average error excluding the k largest per-node errors (the paper quotes
  /// "without the largest 5 errors, the average improves to 1.5m").
  double average_without_worst(std::size_t k) const;
};

/// Evaluates estimated against actual positions. When `align_first` is true
/// the estimates are best-fit aligned (translation + rotation + reflection)
/// over the localized subset before errors are measured. `exclude` lists node
/// ids ignored entirely (e.g. anchors, or nodes with no measurements).
LocalizationReport evaluate_localization(
    const std::vector<std::optional<resloc::math::Vec2>>& estimated,
    const std::vector<resloc::math::Vec2>& actual, bool align_first,
    const std::vector<resloc::core::NodeId>& exclude = {});

/// Convenience overload for algorithms returning positions for all nodes.
LocalizationReport evaluate_localization(const std::vector<resloc::math::Vec2>& estimated,
                                         const std::vector<resloc::math::Vec2>& actual,
                                         bool align_first,
                                         const std::vector<resloc::core::NodeId>& exclude = {});

/// Ranging-error summary over raw (measured - true) error samples.
struct RangingErrorReport {
  std::size_t count = 0;
  double mean_m = 0.0;
  double median_abs_m = 0.0;       ///< median of |error|
  double within_30cm_fraction = 0.0;
  double within_1m_fraction = 0.0;
  double max_abs_m = 0.0;
  std::size_t underestimates_beyond_1m = 0;
  std::size_t overestimates_beyond_1m = 0;
};

RangingErrorReport summarize_ranging_errors(const std::vector<double>& errors);

}  // namespace resloc::eval
