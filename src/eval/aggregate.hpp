// Campaign aggregation: per-trial outcomes folded into per-cell summary
// statistics, with deterministic CSV and JSON emitters.
//
// A "cell" is one point of a parameter sweep's cross product; the experiment
// runner executes `trials` repetitions per cell and this layer reduces them
// to the statistics the paper's figures plot (mean/median/p95 localization
// error, placement rate, stress). Emitters are byte-deterministic for a given
// input: doubles are printed with a fixed %.12g format, cells in index order,
// and wall-clock timing is kept out of the serialized aggregates (it is the
// one per-trial quantity that legitimately varies run to run, so including
// it would break the same-seed byte-identity guarantee the runner's tests
// enforce).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace resloc::eval {

/// Why a trial failed -- the stage that threw. A taxonomy rather than a
/// string so the runner can count per-reason (obs counters, CLI breakdown)
/// and tests can assert on classification.
enum class FailureReason : std::uint8_t {
  kNone = 0,             ///< the trial completed
  kScenarioBuild,        ///< scenario lookup / deployment sampling threw
  kConfig,               ///< sweep-cell -> pipeline config mapping threw
  kMeasurement,          ///< measurement acquisition (campaign) threw
  kSolver,               ///< solver or evaluation threw
  kNonStdException,      ///< something not derived from std::exception
};

/// Stable report name ("none", "scenario_build", "config", "measurement",
/// "solver", "non_std_exception").
const char* failure_reason_name(FailureReason reason);

/// Number of FailureReason values (for per-reason count arrays).
inline constexpr std::size_t kFailureReasonCount = 6;

/// Reduced result of one trial (one pipeline run on one sampled deployment).
struct TrialOutcome {
  std::size_t cell_index = 0;    ///< which sweep cell the trial belongs to
  std::size_t trial_index = 0;   ///< repetition index within the cell
  bool ok = false;               ///< false: scenario build or solve failed
  std::size_t total_nodes = 0;   ///< scored nodes (non-anchors for multilat)
  std::size_t localized = 0;
  /// Nodes placed with a degraded-confidence fix (LocalizationStatus::
  /// kDegraded): under-constrained multilateration, non-finite LSS solves.
  std::size_t degraded = 0;
  /// Pipeline attempts consumed: 1 for a first-try success, 1 + retries
  /// otherwise (bounded by SweepSpec::max_trial_retries).
  std::size_t attempts = 1;
  /// Failure classification when !ok (kNone for completed trials).
  FailureReason failure = FailureReason::kNone;
  double placement_rate = 0.0;   ///< localized / total
  double average_error_m = 0.0;
  double median_error_m = 0.0;
  double max_error_m = 0.0;
  double stress = 0.0;           ///< NaN for solvers without a global stress
  std::size_t measured_edges = 0;
  std::size_t augmented_edges = 0;
  /// Pairs the acoustic campaign skipped as beyond its range cutoff (0 for
  /// synthetic sources). Lets sparse-campaign cells be told apart from
  /// detector failures in the aggregates.
  std::size_t skipped_pairs = 0;
  double wall_time_s = 0.0;      ///< excluded from deterministic emitters
  /// Per-stage wall-clock split of wall_time_s (measure / solve / eval, from
  /// PipelineRun). Diagnostics only, excluded from the emitters like
  /// wall_time_s: wall clocks are the non-deterministic per-trial quantities.
  double measure_wall_s = 0.0;
  double solve_wall_s = 0.0;
  double eval_wall_s = 0.0;
  /// What went wrong when !ok (e.g. "unknown scenario: ..."). Diagnostics
  /// only; not part of the serialized aggregates.
  std::string error;
  /// The failing thread's most recent telemetry spans at the point of
  /// failure, newest last (empty when telemetry is off or the trial passed).
  /// Post-hoc debugging context for the error report; never serialized.
  std::vector<std::string> error_spans;
};

/// Summary statistics over one cell's trials. Error statistics are computed
/// over the trials that localized at least one node; placement/edge
/// statistics over all ok trials. Statistics with no contributing trials are
/// NaN (serialized as null in JSON, "nan" in CSV) -- absent, not zero.
struct CellAggregate {
  std::size_t trials = 0;          ///< trials attempted
  std::size_t ok_trials = 0;       ///< trials that ran to completion
  std::size_t failed_trials = 0;   ///< trials - ok_trials (explicit, not derived)
  std::size_t scored_trials = 0;   ///< ok trials with >= 1 localized node
  /// Coverage: mean placement rate over ALL attempted trials, with failed
  /// trials contributing 0 -- the resilience headline. Unlike
  /// mean_placement_rate (ok trials only), a cell where every trial crashes
  /// scores 0 coverage, not NaN-absent; NaN only when the cell has no trials.
  double mean_coverage = 0.0;
  /// Mean fraction of scored nodes whose fix was degraded, over ok trials
  /// (NaN when none completed).
  double mean_degraded_rate = 0.0;
  double mean_error_m = 0.0;       ///< mean over trial average errors
  double median_error_m = 0.0;     ///< median over trial average errors
  double p95_error_m = 0.0;        ///< 95th percentile of trial average errors
  double max_error_m = 0.0;        ///< worst single-node error in the cell
  double mean_placement_rate = 0.0;
  double mean_stress = 0.0;        ///< over trials with finite stress; NaN if none
  double mean_measured_edges = 0.0;
  double mean_augmented_edges = 0.0;
  double mean_skipped_pairs = 0.0;
};

/// One sweep cell: its axis coordinates (name -> value, in axis order) and
/// the aggregate over its trials.
struct CellResult {
  std::vector<std::pair<std::string, std::string>> axes;
  CellAggregate aggregate;
};

/// Folds one cell's trial outcomes into summary statistics. The range form
/// lets callers aggregate a contiguous slice (e.g. one cell of a cell-major
/// campaign) without copying.
CellAggregate aggregate_trials(const TrialOutcome* begin, const TrialOutcome* end);

/// Deterministic double formatting shared by the emitters (%.12g; NaN -> "nan").
std::string format_value(double value);

/// Serializes a campaign to pretty-printed JSON. Deterministic: same cells in,
/// same bytes out. `sweep_name` and `seed` identify the campaign.
std::string campaign_to_json(const std::string& sweep_name, std::uint64_t seed,
                             const std::vector<CellResult>& cells);

/// Serializes the per-cell table to CSV (one row per cell, axis columns
/// first). Deterministic like the JSON emitter.
std::string campaign_to_csv(const std::vector<CellResult>& cells);

/// Writes `content` to `path` (best effort; returns false on I/O error).
bool write_text_file(const std::string& path, const std::string& content);

}  // namespace resloc::eval
