// The benchmark's workloads. Each is a SweepSpec defined here, not taken from
// resloc_campaign's catalog, so edits to the catalog cannot move the
// baseline. The workload seed is the only input that varies.
//
// One run of a workload is a series of campaigns of the same spec, campaign k
// on master seed campaign_seed(seed, k): the first `min_campaigns` always run
// (the accuracy metrics and work counts are theirs, so they are a pure
// function of the seed), more while time allows (they add timing samples).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runner/sweep_spec.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  resloc::runner::SweepSpec spec;
  /// CampaignRunner worker threads.
  unsigned threads = 1;
  /// Campaigns every run makes, whatever its time budget.
  std::size_t min_campaigns = 1;
};

/// Master seed of campaign k of a run at workload seed `seed`.
std::uint64_t campaign_seed(std::uint64_t seed, std::size_t k);

/// Builds the named workload (spec.seed left at its default; runs set it per
/// campaign), registering the pinned scenarios it uses. Throws
/// std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name);

}  // namespace perfbench
