#include "sim/measurement_gen.hpp"

#include <algorithm>

#include "math/grid_pairs.hpp"

namespace resloc::sim {

using resloc::core::Deployment;
using resloc::core::MeasurementSet;
using resloc::core::NodeId;

namespace {

/// Shared front end: the in-range pairs (strict `distance < max_range_m`,
/// every generator's historical comparison) found by spatial-grid culling and
/// replayed in the dense scan's (i, j) order -- so generators drawing RNG per
/// pair stay byte-identical to their former O(n^2) loops.
resloc::math::GridPairEnumerator in_range_pairs(const Deployment& deployment,
                                                double max_range_m) {
  resloc::math::GridPairEnumerator pairs;
  pairs.build(deployment.positions.data(), deployment.size(), max_range_m,
              /*include_equal=*/false);
  return pairs;
}

}  // namespace

MeasurementSet gaussian_measurements(const Deployment& deployment,
                                     const GaussianNoiseModel& noise, resloc::math::Rng& rng) {
  const auto pairs = in_range_pairs(deployment, noise.max_range_m);
  MeasurementSet set(deployment.size());
  set.reserve(pairs.pair_count());
  pairs.for_each_pair([&](std::size_t i, std::size_t j, double d) {
    set.add(static_cast<NodeId>(i), static_cast<NodeId>(j),
            std::max(0.05, d + rng.gaussian(0.0, noise.sigma_m)));
  });
  return set;
}

std::size_t augment_with_gaussian(MeasurementSet& measurements, const Deployment& deployment,
                                  const GaussianNoiseModel& noise, resloc::math::Rng& rng,
                                  std::size_t max_added) {
  measurements.set_node_count(deployment.size());
  // The candidate carries its distance: the former implementation computed
  // math::distance twice per added pair (once to filter, again after the
  // shuffle). The cached value is bit-identical, so the draws are unchanged.
  struct Candidate {
    NodeId i = 0;
    NodeId j = 0;
    double distance_m = 0.0;
  };
  const auto pairs = in_range_pairs(deployment, noise.max_range_m);
  std::vector<Candidate> candidates;
  candidates.reserve(pairs.pair_count());
  pairs.for_each_pair([&](std::size_t i, std::size_t j, double d) {
    const auto a = static_cast<NodeId>(i);
    const auto b = static_cast<NodeId>(j);
    if (!measurements.has(a, b)) candidates.push_back({a, b, d});
  });
  rng.shuffle(candidates);
  std::size_t added = 0;
  for (const Candidate& c : candidates) {
    if (max_added > 0 && added >= max_added) break;
    measurements.add(c.i, c.j, std::max(0.05, c.distance_m + rng.gaussian(0.0, noise.sigma_m)));
    ++added;
  }
  return added;
}

MeasurementSet subsample_edges(const MeasurementSet& measurements, std::size_t count,
                               resloc::math::Rng& rng) {
  MeasurementSet out(measurements.node_count());
  auto edges = measurements.edges();
  rng.shuffle(edges);
  if (edges.size() > count) edges.resize(count);
  for (const auto& e : edges) out.add(e.i, e.j, e.distance_m, e.weight);
  return out;
}

}  // namespace resloc::sim
