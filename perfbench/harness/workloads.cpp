#include "harness/workloads.hpp"

#include <stdexcept>

#include "fault/fault_plan.hpp"
#include "sim/deployments.hpp"
#include "sim/scenario_registry.hpp"

namespace perfbench {

using resloc::pipeline::LssInit;
using resloc::pipeline::MeasurementSource;
using resloc::pipeline::Solver;
using resloc::runner::SweepSpec;

namespace {

/// Layout stream of every pinned scenario. An arbitrary constant, never tuned.
constexpr std::uint64_t kLayoutSeed = 2005;

/// Registers `name`: the registry's `base` scenario at `node_count` nodes with
/// `anchors` random anchors, all drawn from the fixed layout stream whatever
/// the trial's Rng. The geometry is then one fixed input of the workload, and
/// the seed varies what a user re-running a survey varies: the acoustic and
/// synthetic measurement noise, the faults and the solvers' random draws.
void register_pinned(const std::string& name, const std::string& base, std::size_t node_count,
                     std::size_t anchors) {
  resloc::sim::register_scenario(
      name,
      [base, node_count, anchors](const resloc::sim::ScenarioParams& params,
                                  resloc::math::Rng&) {
        resloc::sim::ScenarioParams p = params;
        p.node_count = node_count;
        resloc::math::Rng layout(kLayoutSeed);
        resloc::core::Deployment d = resloc::sim::build_scenario(base, p, layout);
        if (anchors > 0) resloc::sim::choose_random_anchors(d, anchors, layout);
        return d;
      },
      resloc::sim::scenario_environment(base));
}

// Section 3 acoustic campaign plus progressive multilateration on the two
// large fields, each on its canonical terrain with the robust pre-filters on:
// ranging, acoustics and sim hold ~99% of the trial time.
Workload acoustic_survey() {
  SweepSpec spec;
  spec.name = "acoustic_survey";
  spec.base.source = MeasurementSource::kAcousticRanging;
  spec.trials_per_cell = 1;
  spec.axes.scenarios = {"pinned.campus_500", "pinned.city_1000"};
  spec.axes.solvers = {Solver::kMultilateration};
  spec.axes.anchor_counts = {0};
  spec.axes.environments = {"scenario"};
  spec.base.campaign.filter.consistency_vote = true;
  spec.base.campaign.filter.mad_reject = true;
  spec.base.multilateration.progressive = true;
  return {"acoustic_survey", spec, 1, 6};
}

// Synthetic Gaussian ranges plus DV-hop-seeded centralized LSS on the same
// two fields: the solver holds ~99% of the trial time, ranging is bypassed.
Workload lss_scale() {
  SweepSpec spec;
  spec.name = "lss_scale";
  spec.base.source = MeasurementSource::kSyntheticGaussian;
  spec.trials_per_cell = 2;
  spec.axes.scenarios = {"pinned.campus_500", "pinned.city_1000"};
  spec.axes.solvers = {Solver::kCentralizedLss};
  spec.axes.noise_sigmas = {0.33};
  spec.axes.anchor_counts = {0};
  spec.base.lss_init = LssInit::kDvHopSeeded;
  spec.base.lss.restarts.rounds = 3;
  spec.base.lss.gd.max_iterations = 2500;
  spec.base.lss.init_box_m = 400.0;
  return {"lss_scale", spec, 1, 5};
}

// The fault-injection matrix: 25-node grass grid, full acoustic campaign,
// fault kind x intensity x {multilateration, random-init LSS}, degraded
// fixes on, one retry. The only workload on src/fault, retries and a
// multi-threaded runner pool.
Workload resilience() {
  SweepSpec spec;
  spec.name = "resilience";
  spec.base.source = MeasurementSource::kAcousticRanging;
  spec.trials_per_cell = 1;
  spec.max_trial_retries = 1;
  spec.axes.scenarios = {"grass_grid"};
  spec.axes.node_counts = {25};
  spec.axes.anchor_counts = {8};
  spec.axes.solvers = {Solver::kMultilateration, Solver::kCentralizedLss};
  spec.axes.fault_kinds = resloc::fault::fault_kind_names();
  spec.axes.fault_intensities = {0.5, 1.0, 2.0};
  spec.base.multilateration.allow_degraded = true;
  return {"resilience", spec, 2, 4};
}

// Synthetic ranges plus Section 4.3 distributed LSS with the Fig 24/25
// mote-grade local-map budget, on the 46-node grass grid and a 200-node
// uniform field.
Workload distributed() {
  SweepSpec spec;
  spec.name = "distributed";
  spec.base.source = MeasurementSource::kSyntheticGaussian;
  spec.trials_per_cell = 2;
  spec.axes.scenarios = {"pinned.grass_grid", "pinned.uniform_200"};
  spec.axes.solvers = {Solver::kDistributedLss};
  spec.axes.noise_sigmas = {0.33};
  spec.axes.anchor_counts = {0};
  resloc::core::LssOptions& local = spec.base.distributed.local_lss;
  local.min_spacing_m = 9.0;
  local.independent_inits = 6;
  local.restarts.rounds = 2;
  local.gd.max_iterations = 1500;
  local.target_stress_per_edge = 0.3;
  return {"distributed", spec, 1, 10};
}

}  // namespace

std::uint64_t campaign_seed(std::uint64_t seed, std::size_t k) {
  return seed * 1000003ULL + k;
}

Workload make_workload(const std::string& name) {
  register_pinned("pinned.campus_500", "campus_500", 500, 40);
  register_pinned("pinned.city_1000", "city_1000", 1000, 40);
  register_pinned("pinned.grass_grid", "grass_grid", 0, 0);
  register_pinned("pinned.uniform_200", "uniform_n", 200, 0);
  Workload w;
  if (name == "acoustic_survey") {
    w = acoustic_survey();
  } else if (name == "lss_scale") {
    w = lss_scale();
  } else if (name == "resilience") {
    w = resilience();
  } else if (name == "distributed") {
    w = distributed();
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

}  // namespace perfbench
