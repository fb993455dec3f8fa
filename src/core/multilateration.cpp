#include "core/multilateration.hpp"

#include <cmath>

namespace resloc::core {

using resloc::math::Vec2;

namespace {

/// Weighted range-residual objective and gradient for one node.
resloc::math::Objective make_objective(const std::vector<AnchorObservation>& anchors) {
  return [&anchors](const std::vector<double>& x, std::vector<double>& grad) {
    const Vec2 p{x[0], x[1]};
    double error = 0.0;
    grad[0] = 0.0;
    grad[1] = 0.0;
    for (const AnchorObservation& a : anchors) {
      const Vec2 delta = p - a.position;
      const double dist = std::max(delta.norm(), 1e-9);
      const double residual = dist - a.distance_m;
      error += a.weight * residual * residual;
      const double scale = 2.0 * a.weight * residual / dist;
      grad[0] += scale * delta.x;
      grad[1] += scale * delta.y;
    }
    return error;
  };
}

/// Initial guess: weighted centroid of anchors, nudged toward the anchor
/// with the smallest measured distance (the node is near that anchor).
Vec2 initial_guess(const std::vector<AnchorObservation>& anchors) {
  Vec2 centroid;
  double total = 0.0;
  const AnchorObservation* nearest = &anchors.front();
  for (const AnchorObservation& a : anchors) {
    centroid += a.position * a.weight;
    total += a.weight;
    if (a.distance_m < nearest->distance_m) nearest = &a;
  }
  centroid /= total;
  return (centroid + nearest->position) / 2.0;
}

/// The least-squares fit itself, on however many observations are given.
Vec2 fit_position(const std::vector<AnchorObservation>& anchors,
                  const MultilaterationOptions& options, resloc::math::Rng& rng) {
  const auto objective = make_objective(anchors);
  const Vec2 guess = initial_guess(anchors);
  const auto result = resloc::math::minimize_with_restarts(
      objective, {guess.x, guess.y}, options.gd, options.restarts, rng);
  return Vec2{result.x[0], result.x[1]};
}

}  // namespace

std::optional<Vec2> multilaterate(const std::vector<AnchorObservation>& anchors,
                                  const MultilaterationOptions& options,
                                  resloc::math::Rng& rng) {
  if (anchors.size() < kMinAnchors) return std::nullopt;

  const std::vector<AnchorObservation>* used = &anchors;
  std::vector<AnchorObservation> filtered;
  if (options.use_intersection_check) {
    const IntersectionCheckResult check = check_intersection_consistency(anchors);
    filtered.reserve(check.consistent_anchors.size());
    for (std::size_t idx : check.consistent_anchors) filtered.push_back(anchors[idx]);
    if (filtered.size() < kMinAnchors) return std::nullopt;
    used = &filtered;
  }
  return fit_position(*used, options, rng);
}

LocalizationResult localize_by_multilateration(const Deployment& deployment,
                                               const MeasurementSet& measurements,
                                               const MultilaterationOptions& options,
                                               resloc::math::Rng& rng) {
  const std::size_t n = deployment.size();
  LocalizationResult result;
  result.positions.assign(n, std::nullopt);
  result.status.assign(n, LocalizationStatus::kUnlocalized);

  // Anchor table: position + weight (1 for true anchors; progressive anchors
  // join with reduced weight).
  std::vector<std::optional<Vec2>> anchor_pos(n);
  std::vector<double> anchor_weight(n, 0.0);
  for (NodeId a : deployment.anchors) {
    anchor_pos[a] = deployment.positions[a];
    anchor_weight[a] = 1.0;
    result.positions[a] = deployment.positions[a];
    result.status[a] = LocalizationStatus::kOk;
  }

  // Usable anchor observations for `node`: anchored neighbors with a finite
  // measured distance. Non-finite distances (injected corruption) would
  // poison the least-squares objective, so they are dropped here -- with
  // faults off every distance is finite and the filter is a no-op.
  const auto collect_observations = [&](NodeId node) {
    std::vector<AnchorObservation> observations;
    for (const auto& [neighbor, dist] : measurements.neighbors(node)) {
      if (!anchor_pos[neighbor].has_value()) continue;
      if (!std::isfinite(dist)) continue;
      observations.push_back({*anchor_pos[neighbor], dist, anchor_weight[neighbor]});
    }
    return observations;
  };

  const int rounds = options.progressive ? kMaxProgressiveRounds : 1;
  for (int round = 0; round < rounds; ++round) {
    bool any_localized = false;
    // Collect this round's results first so in-round order doesn't matter.
    std::vector<std::pair<NodeId, Vec2>> newly_localized;

    for (NodeId node = 0; node < n; ++node) {
      if (result.positions[node].has_value()) continue;  // anchors + done

      const auto fit = multilaterate(collect_observations(node), options, rng);
      if (fit) {
        newly_localized.emplace_back(node, *fit);
        any_localized = true;
      }
    }

    for (const auto& [node, position] : newly_localized) {
      result.positions[node] = position;
      result.status[node] = LocalizationStatus::kOk;
      if (options.progressive) {
        anchor_pos[node] = position;
        anchor_weight[node] = kProgressiveWeight;
      }
    }
    if (!any_localized) break;
  }

  // Degraded pass: after full-confidence localization settles, nodes that
  // remain unplaced but see at least kDegradedMinAnchors usable anchors
  // get an under-constrained fix, flagged kDegraded. Runs last so a node that
  // could have been fully localized in a later progressive round is never
  // demoted. Degraded fixes skip the intersection check and never join the
  // anchor pool.
  if (options.allow_degraded) {
    for (NodeId node = 0; node < n; ++node) {
      if (result.positions[node].has_value()) continue;
      const auto observations = collect_observations(node);
      if (observations.size() < kDegradedMinAnchors) continue;
      result.positions[node] = fit_position(observations, options, rng);
      result.status[node] = LocalizationStatus::kDegraded;
    }
  }
  return result;
}

double average_anchors_per_node(const Deployment& deployment,
                                const MeasurementSet& measurements) {
  std::size_t non_anchors = 0;
  std::size_t anchor_links = 0;
  for (NodeId node = 0; node < deployment.size(); ++node) {
    if (deployment.is_anchor(node)) continue;
    ++non_anchors;
    for (const auto& [neighbor, dist] : measurements.neighbors(node)) {
      (void)dist;
      if (deployment.is_anchor(neighbor)) ++anchor_links;
    }
  }
  if (non_anchors == 0) return 0.0;
  return static_cast<double>(anchor_links) / static_cast<double>(non_anchors);
}

}  // namespace resloc::core
