#include "eval/aggregate.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "math/stats.hpp"
#include "obs/trace_export.hpp"

namespace resloc::eval {

using resloc::obs::json_escape;

namespace {

// The resilience statistics (failed_trials, coverage, degraded rate) are
// emitted only for campaigns that sweep a fault axis: appending columns to
// every serialization would break byte-identity of the fault-free goldens,
// and for those campaigns the new fields are degenerate anyway (0 failures,
// coverage == placement rate, 0 degraded).
bool has_fault_axes(const std::vector<CellResult>& cells) {
  if (cells.empty()) return false;
  for (const auto& [name, value] : cells.front().axes) {
    if (name == "fault_kind") return true;
  }
  return false;
}

/// One CSV field. Quoted (RFC 4180, inner quotes doubled) when it holds a
/// comma, CR or LF, or starts with a quote -- the cases a CSV reader would
/// split or unquote. Any other field, including one with a quote inside it,
/// is written raw, which keeps the existing reports byte-identical.
std::string csv_field(const std::string& field) {
  if (field.find_first_of(",\r\n") == std::string::npos && field.rfind('"', 0) != 0) {
    return field;
  }
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  return out + "\"";
}

}  // namespace

const char* failure_reason_name(FailureReason reason) {
  switch (reason) {
    case FailureReason::kNone: return "none";
    case FailureReason::kScenarioBuild: return "scenario_build";
    case FailureReason::kConfig: return "config";
    case FailureReason::kMeasurement: return "measurement";
    case FailureReason::kSolver: return "solver";
    case FailureReason::kNonStdException: return "non_std_exception";
  }
  return "unknown";
}

std::string format_value(double value) {
  if (std::isnan(value)) return "nan";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

CellAggregate aggregate_trials(const TrialOutcome* begin, const TrialOutcome* end) {
  CellAggregate agg;
  agg.trials = static_cast<std::size_t>(end - begin);

  std::vector<double> avg_errors;       // one per scored trial
  std::vector<double> stresses;         // finite stresses only
  double placement_sum = 0.0;
  double degraded_rate_sum = 0.0;
  double edges_sum = 0.0;
  double augmented_sum = 0.0;
  double skipped_sum = 0.0;
  double worst = 0.0;

  for (const TrialOutcome* it = begin; it != end; ++it) {
    const TrialOutcome& t = *it;
    if (!t.ok) continue;
    ++agg.ok_trials;
    placement_sum += t.placement_rate;
    degraded_rate_sum += t.total_nodes > 0 ? static_cast<double>(t.degraded) /
                                                 static_cast<double>(t.total_nodes)
                                           : 0.0;
    edges_sum += static_cast<double>(t.measured_edges);
    augmented_sum += static_cast<double>(t.augmented_edges);
    skipped_sum += static_cast<double>(t.skipped_pairs);
    if (t.localized == 0) continue;
    ++agg.scored_trials;
    avg_errors.push_back(t.average_error_m);
    if (t.max_error_m > worst) worst = t.max_error_m;
    if (std::isfinite(t.stress)) stresses.push_back(t.stress);
  }

  agg.failed_trials = agg.trials - agg.ok_trials;
  // Coverage averages over every attempted trial, failed ones scoring 0: a
  // cell where everything crashed covers nothing (0), which is different
  // from "no data" (NaN, only when the cell has no trials at all).
  agg.mean_coverage = agg.trials > 0
                          ? placement_sum / static_cast<double>(agg.trials)
                          : std::numeric_limits<double>::quiet_NaN();

  if (agg.ok_trials > 0) {
    agg.mean_degraded_rate = degraded_rate_sum / static_cast<double>(agg.ok_trials);
  } else {
    agg.mean_degraded_rate = std::numeric_limits<double>::quiet_NaN();
  }
  if (agg.ok_trials > 0) {
    const auto n = static_cast<double>(agg.ok_trials);
    agg.mean_placement_rate = placement_sum / n;
    agg.mean_measured_edges = edges_sum / n;
    agg.mean_augmented_edges = augmented_sum / n;
    agg.mean_skipped_pairs = skipped_sum / n;
  } else {
    // No trial ran to completion: these statistics are absent, not zero.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    agg.mean_placement_rate = nan;
    agg.mean_measured_edges = nan;
    agg.mean_augmented_edges = nan;
    agg.mean_skipped_pairs = nan;
  }
  if (!avg_errors.empty()) {
    agg.mean_error_m = resloc::math::mean(avg_errors);
    agg.median_error_m = resloc::math::median(avg_errors).value_or(0.0);
    agg.p95_error_m = resloc::math::percentile(avg_errors, 95.0).value_or(0.0);
    agg.max_error_m = worst;
  } else {
    // No trial localized anything: error statistics are absent, not zero --
    // a 0 here would read as perfect localization in a plotted report.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    agg.mean_error_m = nan;
    agg.median_error_m = nan;
    agg.p95_error_m = nan;
    agg.max_error_m = nan;
  }
  agg.mean_stress = stresses.empty() ? std::numeric_limits<double>::quiet_NaN()
                                     : resloc::math::mean(stresses);
  return agg;
}

std::string campaign_to_json(const std::string& sweep_name, std::uint64_t seed,
                             const std::vector<CellResult>& cells) {
  const bool resilience_fields = has_fault_axes(cells);
  std::string out;
  out += "{\n";
  out += "  \"sweep\": \"" + json_escape(sweep_name) + "\",\n";
  out += "  \"seed\": " + std::to_string(seed) + ",\n";
  out += "  \"cells\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& cell = cells[i];
    out += (i == 0 ? "\n" : ",\n");
    out += "    {\n      \"axes\": {";
    for (std::size_t a = 0; a < cell.axes.size(); ++a) {
      if (a != 0) out += ", ";
      out += "\"" + json_escape(cell.axes[a].first) + "\": \"" +
             json_escape(cell.axes[a].second) + "\"";
    }
    out += "},\n";
    const CellAggregate& g = cell.aggregate;
    // NaN and infinity are not valid JSON; absent statistics (no scored
    // trials, solvers without a global stress) and diverged solves are
    // emitted as null.
    const auto number = [](double v) {
      return std::isfinite(v) ? format_value(v) : std::string("null");
    };
    out += "      \"trials\": " + std::to_string(g.trials) + ",\n";
    out += "      \"ok_trials\": " + std::to_string(g.ok_trials) + ",\n";
    out += "      \"scored_trials\": " + std::to_string(g.scored_trials) + ",\n";
    out += "      \"mean_error_m\": " + number(g.mean_error_m) + ",\n";
    out += "      \"median_error_m\": " + number(g.median_error_m) + ",\n";
    out += "      \"p95_error_m\": " + number(g.p95_error_m) + ",\n";
    out += "      \"max_error_m\": " + number(g.max_error_m) + ",\n";
    out += "      \"mean_placement_rate\": " + number(g.mean_placement_rate) + ",\n";
    if (resilience_fields) {
      out += "      \"failed_trials\": " + std::to_string(g.failed_trials) + ",\n";
      out += "      \"mean_coverage\": " + number(g.mean_coverage) + ",\n";
      out += "      \"mean_degraded_rate\": " + number(g.mean_degraded_rate) + ",\n";
    }
    out += "      \"mean_stress\": " + number(g.mean_stress) + ",\n";
    out += "      \"mean_measured_edges\": " + number(g.mean_measured_edges) + ",\n";
    out += "      \"mean_augmented_edges\": " + number(g.mean_augmented_edges) + ",\n";
    out += "      \"mean_skipped_pairs\": " + number(g.mean_skipped_pairs) + "\n";
    out += "    }";
  }
  out += cells.empty() ? "],\n" : "\n  ],\n";
  out += "  \"cell_count\": " + std::to_string(cells.size()) + "\n";
  out += "}\n";
  return out;
}

std::string campaign_to_csv(const std::vector<CellResult>& cells) {
  const bool resilience_fields = has_fault_axes(cells);
  std::string out;
  // Header: axis names from the first cell (all cells of a sweep share them),
  // then the aggregate columns.
  if (!cells.empty()) {
    for (const auto& [name, value] : cells.front().axes) out += csv_field(name) + ",";
  }
  out +=
      "trials,ok_trials,scored_trials,mean_error_m,median_error_m,p95_error_m,"
      "max_error_m,mean_placement_rate,mean_stress,mean_measured_edges,"
      "mean_augmented_edges,mean_skipped_pairs";
  if (resilience_fields) out += ",failed_trials,mean_coverage,mean_degraded_rate";
  out += "\n";
  for (const CellResult& cell : cells) {
    for (const auto& [name, value] : cell.axes) out += csv_field(value) + ",";
    const CellAggregate& g = cell.aggregate;
    out += std::to_string(g.trials) + "," + std::to_string(g.ok_trials) + "," +
           std::to_string(g.scored_trials) + "," + format_value(g.mean_error_m) + "," +
           format_value(g.median_error_m) + "," + format_value(g.p95_error_m) + "," +
           format_value(g.max_error_m) + "," + format_value(g.mean_placement_rate) + "," +
           format_value(g.mean_stress) + "," + format_value(g.mean_measured_edges) + "," +
           format_value(g.mean_augmented_edges) + "," + format_value(g.mean_skipped_pairs);
    if (resilience_fields) {
      out += "," + std::to_string(g.failed_trials) + "," + format_value(g.mean_coverage) +
             "," + format_value(g.mean_degraded_rate);
    }
    out += "\n";
  }
  return out;
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

}  // namespace resloc::eval
