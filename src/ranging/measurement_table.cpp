#include "ranging/measurement_table.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "math/geometry.hpp"

namespace resloc::ranging {

namespace {
const std::vector<double> kEmpty;

std::pair<NodeId, NodeId> ordered(NodeId a, NodeId b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}
}  // namespace

void MeasurementTable::add(NodeId from, NodeId to, double distance_m) {
  table_[{from, to}].push_back(distance_m);
  ++total_;
}

const std::vector<double>& MeasurementTable::directional(NodeId from, NodeId to) const {
  const auto it = table_.find({from, to});
  return it == table_.end() ? kEmpty : it->second;
}

std::optional<double> MeasurementTable::filtered(NodeId from, NodeId to,
                                                 const FilterPolicy& policy,
                                                 FilterStats* stats) const {
  const auto& raw = directional(from, to);
  if (raw.empty()) {
    if (stats != nullptr) *stats = FilterStats{};
    return std::nullopt;
  }
  return filter_measurements(raw, policy, stats);
}

MeasurementTable::RobustReport MeasurementTable::robust_report(
    const FilterPolicy& policy) const {
  RobustReport report;
  for (const auto& [key, raw] : table_) {
    FilterStats stats;
    filter_measurements(raw, policy, &stats);
    report.measurements += stats.input;
    report.vote_rejected += stats.input - stats.after_vote;
    report.mad_rejected += stats.after_vote - stats.after_mad;
    ++report.directed_pairs;
    if (stats.vote_failed) ++report.pairs_without_consensus;
  }
  return report;
}

std::vector<PairEstimate> MeasurementTable::symmetric_estimates(
    const FilterPolicy& policy, double bidirectional_tolerance_m) const {
  // Sorted-unique vector instead of a std::set: same iteration order, one
  // reserved allocation instead of a node per pair (this runs once per
  // campaign over every measured pair).
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(table_.size());
  for (const auto& [key, _] : table_) pairs.push_back(ordered(key.first, key.second));
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

  std::vector<PairEstimate> out;
  out.reserve(pairs.size());
  for (const auto& [a, b] : pairs) {
    const auto forward = filtered(a, b, policy);
    const auto backward = filtered(b, a, policy);
    PairEstimate estimate;
    estimate.a = a;
    estimate.b = b;
    if (forward && backward) {
      if (std::abs(*forward - *backward) > bidirectional_tolerance_m) continue;  // discard
      estimate.distance_m = 0.5 * (*forward + *backward);
      estimate.bidirectional = true;
    } else if (forward) {
      estimate.distance_m = *forward;
    } else if (backward) {
      estimate.distance_m = *backward;
    } else {
      continue;
    }
    out.push_back(estimate);
  }
  return out;
}

std::vector<PairEstimate> MeasurementTable::bidirectional_only(
    const FilterPolicy& policy, double bidirectional_tolerance_m) const {
  auto all = symmetric_estimates(policy, bidirectional_tolerance_m);
  all.erase(std::remove_if(all.begin(), all.end(),
                           [](const PairEstimate& p) { return !p.bidirectional; }),
            all.end());
  return all;
}

std::vector<TriangleViolation> find_triangle_violations(const std::vector<PairEstimate>& pairs,
                                                        double tolerance) {
  std::map<std::pair<NodeId, NodeId>, double> dist;
  std::set<NodeId> node_set;
  for (const auto& p : pairs) {
    dist[{p.a, p.b}] = p.distance_m;
    node_set.insert(p.a);
    node_set.insert(p.b);
  }
  const std::vector<NodeId> nodes(node_set.begin(), node_set.end());

  std::vector<TriangleViolation> violations;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      const auto ij = dist.find(ordered(nodes[i], nodes[j]));
      if (ij == dist.end()) continue;
      for (std::size_t k = j + 1; k < nodes.size(); ++k) {
        const auto jk = dist.find(ordered(nodes[j], nodes[k]));
        if (jk == dist.end()) continue;
        const auto ki = dist.find(ordered(nodes[k], nodes[i]));
        if (ki == dist.end()) continue;
        if (!resloc::math::satisfies_triangle_inequality(ij->second, jk->second, ki->second,
                                                         tolerance)) {
          violations.push_back(
              {nodes[i], nodes[j], nodes[k], ij->second, jk->second, ki->second});
        }
      }
    }
  }
  return violations;
}

std::vector<PairEstimate> drop_triangle_offenders(std::vector<PairEstimate> pairs,
                                                  double tolerance, int min_violations) {
  const auto violations = find_triangle_violations(pairs, tolerance);
  std::map<std::pair<NodeId, NodeId>, int> offence_count;
  for (const auto& v : violations) {
    // The longest side is the offender candidate in each violating triple:
    // an overestimate breaks the inequality as the long side, while an
    // underestimate makes one of the *other* sides look too long.
    const double longest = std::max({v.ab, v.bc, v.ca});
    if (longest == v.ab) ++offence_count[{std::min(v.a, v.b), std::max(v.a, v.b)}];
    if (longest == v.bc) ++offence_count[{std::min(v.b, v.c), std::max(v.b, v.c)}];
    if (longest == v.ca) ++offence_count[{std::min(v.c, v.a), std::max(v.c, v.a)}];
  }
  pairs.erase(std::remove_if(pairs.begin(), pairs.end(),
                             [&](const PairEstimate& p) {
                               const auto it = offence_count.find({p.a, p.b});
                               return it != offence_count.end() && it->second >= min_violations;
                             }),
              pairs.end());
  return pairs;
}

}  // namespace resloc::ranging
