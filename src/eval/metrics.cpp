#include "eval/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "math/procrustes.hpp"
#include "math/stats.hpp"

namespace resloc::eval {

using resloc::core::NodeId;
using resloc::math::Vec2;

double LocalizationReport::average_without_worst(std::size_t k) const {
  if (per_node_errors.size() <= k) return 0.0;
  std::vector<double> sorted = per_node_errors;
  std::sort(sorted.begin(), sorted.end());
  sorted.resize(sorted.size() - k);
  return resloc::math::mean(sorted);
}

LocalizationReport evaluate_localization(const std::vector<std::optional<Vec2>>& estimated,
                                         const std::vector<Vec2>& actual, bool align_first,
                                         const std::vector<NodeId>& exclude) {
  LocalizationReport report;
  const std::size_t n = std::min(estimated.size(), actual.size());
  std::vector<bool> excluded(n, false);
  for (NodeId id : exclude) {
    if (id < n) excluded[id] = true;
  }

  std::vector<std::size_t> ids;
  std::vector<Vec2> est;
  std::vector<Vec2> act;
  for (std::size_t i = 0; i < n; ++i) {
    if (excluded[i]) continue;
    ++report.total_nodes;
    if (!estimated[i].has_value()) continue;
    ids.push_back(i);
    est.push_back(*estimated[i]);
    act.push_back(actual[i]);
  }
  report.localized = ids.size();
  report.node_errors.assign(n, std::nullopt);
  if (ids.empty()) return report;

  if (align_first) {
    const auto fit = resloc::math::fit_rigid(est, act, /*allow_reflection=*/true);
    if (fit.valid) {
      for (Vec2& p : est) p = fit.transform.apply(p);
    }
  }

  for (std::size_t k = 0; k < ids.size(); ++k) {
    const double err = resloc::math::distance(est[k], act[k]);
    report.per_node_errors.push_back(err);
    report.node_errors[ids[k]] = err;
  }
  report.average_error_m = resloc::math::mean(report.per_node_errors);
  report.max_error_m = *resloc::math::max_value(report.per_node_errors);
  report.median_error_m = *resloc::math::median(report.per_node_errors);
  return report;
}

LocalizationReport evaluate_localization(const std::vector<Vec2>& estimated,
                                         const std::vector<Vec2>& actual, bool align_first,
                                         const std::vector<NodeId>& exclude) {
  std::vector<std::optional<Vec2>> wrapped;
  wrapped.reserve(estimated.size());
  for (const Vec2& p : estimated) wrapped.emplace_back(p);
  return evaluate_localization(wrapped, actual, align_first, exclude);
}

RangingErrorReport summarize_ranging_errors(const std::vector<double>& errors) {
  RangingErrorReport report;
  report.count = errors.size();
  if (errors.empty()) return report;

  report.mean_m = resloc::math::mean(errors);
  std::vector<double> abs_errors;
  abs_errors.reserve(errors.size());
  for (double e : errors) abs_errors.push_back(std::abs(e));
  report.median_abs_m = *resloc::math::median(abs_errors);
  report.max_abs_m = *resloc::math::max_value(abs_errors);
  report.within_30cm_fraction = resloc::math::fraction_within(errors, 0.30);
  report.within_1m_fraction = resloc::math::fraction_within(errors, 1.0);
  for (double e : errors) {
    if (e < -1.0) ++report.underestimates_beyond_1m;
    if (e > 1.0) ++report.overestimates_beyond_1m;
  }
  return report;
}

}  // namespace resloc::eval
