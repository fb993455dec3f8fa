// Single-threaded reference of sim::run_field_experiment, for the
// acquisition equivalence tests (tests/test_campaign_scale.cpp) and
// bench_campaign_scale.
//
// Two choices are independent:
//   - PairScan::kDense replays the seed's O(n^2) front end: a precomputed
//     n x n shadowing matrix filled from the per-pair substreams, a distance
//     scan for the skip count, and an all-pairs receiver scan per turn.
//     PairScan::kGrid uses the production spatial-grid enumerator.
//   - MeasurePath::kPerSample ranges every pair with the per-sample
//     reference measure (per_sample_ranging.hpp); MeasurePath::kProduction
//     with RangingService::measure.
// Every draw comes from the same counter-based substream the production
// campaign uses, so the output must be byte-equal to it at any thread count.
// The stream tags and the shadowing draw mirror the private ones of
// sim/field_experiment.cpp; the equivalence tests fail if either side drifts.
// Fault injection is out of scope: an active FaultPlan throws.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/types.hpp"
#include "math/grid_pairs.hpp"
#include "math/rng.hpp"
#include "per_sample_ranging.hpp"
#include "ranging/ranging_service.hpp"
#include "sim/channel_cache.hpp"
#include "sim/field_experiment.hpp"

namespace resloc::reference {

enum class PairScan { kGrid, kDense };
enum class MeasurePath { kProduction, kPerSample };

constexpr std::uint64_t kShadowingStreamTag = 0x5AD0;
constexpr std::uint64_t kMeasurementStreamTag = 0x3EA5;

/// The link's symmetric shadowing draw from its own substream.
inline double link_shadowing_db(const math::Rng& shadow_base, core::NodeId a, core::NodeId b,
                                std::size_t n, double stddev_db) {
  math::Rng stream =
      shadow_base.fork(static_cast<std::uint64_t>(std::min(a, b)) * n + std::max(a, b));
  return stream.gaussian(0.0, stddev_db);
}

inline sim::FieldExperimentData run_field_experiment(const core::Deployment& deployment,
                                                     const sim::FieldExperimentConfig& config,
                                                     math::Rng& rng, PairScan scan,
                                                     MeasurePath path) {
  if (config.faults.enabled()) {
    throw std::invalid_argument("the reference campaign accepts only inert fault plans");
  }
  sim::FieldExperimentData data;
  const std::size_t n = deployment.size();

  std::vector<acoustics::SpeakerUnit> speakers;
  std::vector<acoustics::MicUnit> mics;
  for (std::size_t i = 0; i < n; ++i) {
    speakers.push_back(config.units.sample_speaker(acoustics::kLoudspeakerDb, rng));
    mics.push_back(config.units.sample_mic(rng));
  }
  const ranging::RangingService service(config.ranging);
  const math::Rng shadow_base = rng.fork(kShadowingStreamTag);
  const math::Rng measurement_base = rng.fork(kMeasurementStreamTag);

  math::GridPairEnumerator pairs;
  std::vector<double> shadowing;  // dense only
  if (scan == PairScan::kDense) {
    shadowing.assign(n * n, 0.0);
    for (core::NodeId i = 0; i < n; ++i) {
      for (auto j = static_cast<core::NodeId>(i + 1); j < n; ++j) {
        const double s = link_shadowing_db(shadow_base, i, j, n, sim::kLinkShadowingStddevDb);
        shadowing[i * n + j] = s;
        shadowing[j * n + i] = s;
        if (math::distance(deployment.positions[i], deployment.positions[j]) >
            config.simulate_within_m) {
          ++data.skipped_pairs;
        }
      }
    }
  } else {
    pairs.build(deployment.positions.data(), n, config.simulate_within_m,
                /*include_equal=*/true);
    data.skipped_pairs = (n < 2 ? 0 : n * (n - 1) / 2) - pairs.pair_count();
  }

  ranging::RangingScratch scratch;
  PerSampleScratch per_sample_scratch;
  sim::ChannelResponseCache channel_cache(config.ranging.environment);
  const std::size_t num_turns =
      config.rounds > 0 ? static_cast<std::size_t>(config.rounds) * n : 0;
  for (std::size_t turn = 0; turn < num_turns; ++turn) {
    const auto source = static_cast<core::NodeId>(turn % n);
    math::Rng stream = measurement_base.fork(turn);
    const auto attempt = [&](core::NodeId receiver, double true_d) {
      acoustics::SpeakerUnit speaker = speakers[source];
      speaker.output_db += scan == PairScan::kDense
                               ? shadowing[source * n + receiver]
                               : link_shadowing_db(shadow_base, source, receiver, n,
                                                   sim::kLinkShadowingStddevDb);
      const acoustics::LinkResponse& link = channel_cache.lookup(true_d);
      const auto estimate =
          path == MeasurePath::kPerSample
              ? measure(service, true_d, speaker, mics[receiver], stream, per_sample_scratch,
                        &link)
                    .distance_m
              : service.measure(true_d, speaker, mics[receiver], stream, scratch, &link)
                    .distance_m;
      if (!estimate) return;
      data.raw.add(source, receiver, *estimate);
    };
    if (scan == PairScan::kDense) {
      for (core::NodeId receiver = 0; receiver < n; ++receiver) {
        if (receiver == source) continue;
        const double true_d =
            math::distance(deployment.positions[source], deployment.positions[receiver]);
        if (true_d <= config.simulate_within_m) attempt(receiver, true_d);
      }
    } else {
      pairs.for_each_neighbor(source, [&](std::size_t receiver, double true_d) {
        attempt(static_cast<core::NodeId>(receiver), true_d);
      });
    }
  }

  data.filtered = data.raw.symmetric_estimates(config.filter, config.bidirectional_tolerance_m);
  return data;
}

}  // namespace resloc::reference
