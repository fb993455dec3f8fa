// Directional measurement storage plus the consistency checks of Section 3.5.
//
// The table keeps every raw directional estimate (from -> to may differ from
// to -> from). Consistency checking then:
//   - discards bidirectional pairs whose two filtered estimates disagree
//     beyond a tolerance ("bidirectional range estimates between a pair of
//     nodes are discarded if they are inconsistent"),
//   - flags triples violating the triangle inequality ("if three nodes have
//     measurements to each other, we use the triangle inequality to identify
//     inconsistent one"); the paper cautions that no check can tell *which*
//     measurement is wrong, so triangle violations are reported rather than
//     silently dropped.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "ranging/statistical_filter.hpp"

namespace resloc::ranging {

using NodeId = std::uint32_t;

/// A filtered symmetric pair estimate.
struct PairEstimate {
  NodeId a = 0;
  NodeId b = 0;  ///< a < b always
  double distance_m = 0.0;
  bool bidirectional = false;  ///< both directions measured and consistent
};

/// A triangle-inequality violation among three filtered pair estimates.
struct TriangleViolation {
  NodeId a = 0, b = 0, c = 0;
  double ab = 0.0, bc = 0.0, ca = 0.0;
};

/// Raw directional measurement store.
class MeasurementTable {
 public:
  /// (from, to) -> that direction's raw estimates in insertion order.
  using Entries = std::map<std::pair<NodeId, NodeId>, std::vector<double>>;

  /// Records one raw estimate of the distance from `from` to `to`.
  void add(NodeId from, NodeId to, double distance_m);

  /// Filtered estimate for the direction from -> to. `stats`, when given,
  /// receives the robust-rejection diagnostics of the underlying
  /// filter_measurements call.
  std::optional<double> filtered(NodeId from, NodeId to, const FilterPolicy& policy,
                                 FilterStats* stats = nullptr) const;

  /// Every directed entry, ascending by (from, to).
  const Entries& entries() const { return table_; }

  /// Number of directed pairs with at least one measurement.
  std::size_t directed_pair_count() const { return table_.size(); }

  /// Total raw measurements stored.
  std::size_t measurement_count() const { return total_; }

  /// Symmetric pair estimates: for each unordered pair with at least one
  /// direction measured, filter both directions. If both exist and differ by
  /// more than `bidirectional_tolerance_m`, the pair is *discarded*. If both
  /// exist and agree, the estimate is their average and marked bidirectional.
  /// One-direction pairs pass through (the paper keeps them: "sometimes it
  /// may be beneficial to retain suspicious measurements due to the scarcity
  /// of available data").
  std::vector<PairEstimate> symmetric_estimates(const FilterPolicy& policy,
                                                double bidirectional_tolerance_m) const;

  /// Subset of symmetric_estimates with bidirectional confirmation only
  /// (the Figure 7 filter).
  std::vector<PairEstimate> bidirectional_only(const FilterPolicy& policy,
                                               double bidirectional_tolerance_m) const;

  /// Table-wide robust-filter accounting under `policy`: how many raw
  /// measurements the vote and the MAD stage rejected, and how many directed
  /// pairs ended with no consensus at all. This is what makes a filtering
  /// policy diagnosable on a real campaign -- "the vote silenced 40% of the
  /// 22-30 m links" is visible here, not inferable from the estimate list.
  struct RobustReport {
    std::size_t measurements = 0;         ///< raw measurements considered
    std::size_t vote_rejected = 0;        ///< dropped by the consistency vote
    std::size_t mad_rejected = 0;         ///< dropped by MAD rejection
    std::size_t directed_pairs = 0;       ///< directed pairs examined
    std::size_t pairs_without_consensus = 0;  ///< pairs the vote nulled
  };
  RobustReport robust_report(const FilterPolicy& policy) const;

 private:
  /// All raw estimates for the direction from -> to (empty if none).
  const std::vector<double>& directional(NodeId from, NodeId to) const;

  Entries table_;
  std::size_t total_ = 0;
};

/// Scans all triples among the given pair estimates and returns the triangle-
/// inequality violations at the given relative tolerance.
std::vector<TriangleViolation> find_triangle_violations(const std::vector<PairEstimate>& pairs,
                                                        double tolerance = 0.05);

/// Removes the pair estimates that participate in at least `min_violations`
/// triangle violations. Conservative by design: a measurement seen
/// inconsistent with several independent triangles is likely the bad one.
std::vector<PairEstimate> drop_triangle_offenders(std::vector<PairEstimate> pairs,
                                                  double tolerance = 0.05,
                                                  int min_violations = 2);

}  // namespace resloc::ranging
