// Synthetic distance measurements.
//
// The paper's own augmentation recipe (Sections 4.1.3, 4.2.2, 4.3.2): "Each
// pair of nodes which did not have a distance measured by the ranging service
// was assigned a distance generated by adding a random noise term drawn from
// N(mu = 0, sigma = 0.33m) to the actual distance ... no distances are
// assigned to node pairs separated by more than 22m."
//
// In-range pairs are found by spatial-grid culling (math::GridPairEnumerator)
// replayed in the dense scan's (i, j) order, so every generator is O(n +
// in-range pairs) instead of O(n^2) while producing byte-identical
// measurement sets and RNG consumption to the former all-pairs loops.
#pragma once

#include <cstddef>

#include "core/types.hpp"
#include "math/rng.hpp"

namespace resloc::sim {

/// The paper's synthetic noise model.
struct GaussianNoiseModel {
  double sigma_m = 0.33;
  double max_range_m = 22.0;
};

/// Gaussian-perturbed distances for every pair within range.
resloc::core::MeasurementSet gaussian_measurements(const resloc::core::Deployment& deployment,
                                                   const GaussianNoiseModel& noise,
                                                   resloc::math::Rng& rng);

/// Adds Gaussian-perturbed distances for in-range pairs *missing* from
/// `measurements` (the Figure 15 / Figure 25 augmentation). `max_added`
/// bounds how many are added (0 = no bound); pairs are considered in a
/// deterministic shuffled order. Returns the number of edges added.
std::size_t augment_with_gaussian(resloc::core::MeasurementSet& measurements,
                                  const resloc::core::Deployment& deployment,
                                  const GaussianNoiseModel& noise, resloc::math::Rng& rng,
                                  std::size_t max_added = 0);

/// Keeps only `count` randomly chosen edges (sampling without replacement);
/// models sparser campaigns than the full in-range set.
resloc::core::MeasurementSet subsample_edges(const resloc::core::MeasurementSet& measurements,
                                             std::size_t count, resloc::math::Rng& rng);

}  // namespace resloc::sim
