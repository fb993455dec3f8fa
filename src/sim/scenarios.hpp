// Named scenario builders: one canned configuration per paper experiment,
// shared by the benches, examples, and integration tests so every consumer
// reproduces the same setting.
#pragma once

#include <cstdint>

#include "core/types.hpp"
#include "sim/field_experiment.hpp"

namespace resloc::sim {

/// Refined ranging service configured for the grass field campaign
/// (Section 3.6: 8 ms chirps at 4.3 kHz, 10 chirps accumulated, T=2,
/// k=6 of m=32, 16 kHz sampling).
resloc::ranging::RangingConfig grass_refined_ranging();

/// Baseline (single-chirp, first-firing) service in the urban environment of
/// Section 3.3.
resloc::ranging::RangingConfig urban_baseline_ranging();

/// Refined service recalibrated for the noisy urban site: "a high threshold
/// is advantageous in noisy environments to limit false positives"
/// (Section 3.6) -- frequent city noise bursts would otherwise accumulate
/// past the quiet-field T=2 threshold.
resloc::ranging::RangingConfig urban_refined_ranging();

/// Grass-grid campaign config (refined service, loudspeakers, 3 rounds,
/// median filtering) -- the data behind Figures 6-8, 13-14, 17-18, 24.
FieldExperimentConfig grass_campaign_config(int rounds = 3);

/// Urban campaign config (baseline service) -- Figures 2 and 4.
FieldExperimentConfig urban_baseline_campaign_config(int rounds = 1);

/// The grass-grid scenario: deployment + completed ranging campaign.
struct GrassGridScenario {
  resloc::core::Deployment deployment;
  FieldExperimentData data;
  resloc::core::MeasurementSet measurements;
};

/// Runs the 46-node grass-grid campaign (49-position offset grid with 3
/// failed motes) with the refined service. Deterministic per seed.
GrassGridScenario grass_grid_scenario(std::uint64_t seed, int rounds = 3);

}  // namespace resloc::sim
