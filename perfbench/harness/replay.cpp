#include "harness/replay.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "acoustics/environment.hpp"
#include "acoustics/units.hpp"
#include "core/alignment_protocol.hpp"
#include "core/distributed_lss.hpp"
#include "core/dv_hop.hpp"
#include "core/lss.hpp"
#include "core/multilateration.hpp"
#include "eval/metrics.hpp"
#include "fault/fault_plan.hpp"
#include "obs/telemetry.hpp"
#include "ranging/ranging_service.hpp"
#include "ranging/signal_detection.hpp"
#include "runner/campaign_runner.hpp"
#include "sim/deployments.hpp"
#include "sim/field_experiment.hpp"
#include "sim/measurement_gen.hpp"
#include "sim/scenario_registry.hpp"

namespace perfbench {

namespace core = resloc::core;
namespace eval = resloc::eval;
namespace obs = resloc::obs;
namespace pipeline = resloc::pipeline;
namespace runner = resloc::runner;
namespace sim = resloc::sim;
using resloc::eval::FailureReason;
using resloc::eval::TrialOutcome;
using resloc::math::Rng;
using resloc::math::Vec2;

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// Appends one thread's spans in memory. With counters on, the obs snapshots
/// sit outside each span's own interval (before its start, after its end), so
/// they are charged to the parent's self time, never to the layer measured.
/// obs::snapshot() must not race live recording, so only a single-threaded
/// replay takes them.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool counters = false) : counters_(counters) {}

  std::size_t open(const char* name, std::int64_t trial) {
    Span span;
    span.name = name;
    span.trial = trial;
    span.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
    if (counters_) span.counters = obs::snapshot().counters;
    span.start_ns = now_ns();
    spans_.push_back(std::move(span));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t index) {
    Span& span = spans_[index];
    span.end_ns = now_ns();
    if (counters_) {
      const std::vector<std::uint64_t> after = obs::snapshot().counters;
      for (std::size_t c = 0; c < after.size(); ++c) span.counters[c] = after[c] - span.counters[c];
    }
    stack_.pop_back();
  }

  /// Moves this recorder's spans onto `out`, rebasing parent indices.
  void drain_into(std::vector<Span>& out) {
    const auto offset = static_cast<std::int64_t>(out.size());
    for (Span& span : spans_) {
      if (span.parent >= 0) span.parent += offset;
      out.push_back(std::move(span));
    }
    spans_.clear();
  }

 private:
  bool counters_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span: closed on scope exit, exceptions included.
class Scoped {
 public:
  Scoped(SpanRecorder& recorder, const char* name, std::int64_t trial)
      : recorder_(recorder), index_(recorder.open(name, trial)) {}
  ~Scoped() { recorder_.close(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanRecorder& recorder_;
  std::size_t index_;
};

/// Inputs of one trial's alignment-protocol run, kept for the net pass.
struct NetJob {
  std::int64_t trial = -1;
  std::vector<core::LocalMap> maps;
  std::vector<Vec2> truth;
  core::NodeId root = 0;
  core::DistributedLssOptions options;
  std::uint64_t seed = 0;
};

/// The per-trial config mapping of CampaignRunner::run_trial, line for line.
pipeline::PipelineConfig trial_config(const runner::SweepSpec& spec,
                                      const runner::TrialSpec& trial) {
  pipeline::PipelineConfig config = spec.base;
  config.solver = trial.solver;
  config.noise.sigma_m = trial.noise_sigma;
  config.augment_missing = trial.augment;
  if (!trial.environment.empty()) {
    std::string env_name = trial.environment;
    if (env_name == "scenario") {
      env_name = sim::scenario_environment(trial.scenario);
      if (env_name.empty()) {
        throw std::invalid_argument("scenario '" + trial.scenario +
                                    "' has no canonical environment");
      }
    }
    config.campaign.ranging.environment = resloc::acoustics::environment_by_name(env_name);
  }
  if (trial.chirp_count > 0) {
    if (trial.chirp_count > resloc::ranging::SignalAccumulator::kMaxChirps) {
      throw std::invalid_argument("chirp count exceeds the 4-bit counter cap");
    }
    config.campaign.ranging.pattern.num_chirps = trial.chirp_count;
  }
  if (trial.detection_threshold > 0) {
    config.campaign.ranging.detection.threshold = trial.detection_threshold;
  }
  if (!trial.unit_model.empty()) {
    config.campaign.units = resloc::acoustics::unit_model_by_name(trial.unit_model);
  }
  if (trial.interference_scale != 1.0) {
    resloc::acoustics::EnvironmentProfile& env = config.campaign.ranging.environment;
    env.echo_rate *= trial.interference_scale;
    env.noise_burst_rate_hz *= trial.interference_scale;
  }
  if (!trial.detector.empty()) {
    config.campaign.ranging.detector_mode =
        resloc::ranging::detector_mode_by_name(trial.detector);
  }
  if (!trial.fault_kind.empty()) {
    config.campaign.faults = resloc::fault::plan_from_kind(trial.fault_kind, trial.fault_intensity);
  }
  return config;
}

/// One attempt of a trial: LocalizationPipeline::measure and
/// run_on_measurements unrolled into their layer calls. `stage` tracks the
/// failure classification exactly as run_trial advances it.
void replay_attempt(const runner::SweepSpec& spec, const runner::TrialSpec& trial,
                    const Rng& attempt_rng, std::int64_t id, SpanRecorder& rec,
                    FailureReason& stage, TrialOutcome& outcome, std::optional<NetJob>& net) {
  Rng deploy_rng = attempt_rng.fork(0);
  Rng anchor_rng = attempt_rng.fork(1);
  Rng rng = attempt_rng.fork(2);

  stage = FailureReason::kScenarioBuild;
  core::Deployment deployment;
  {
    Scoped s(rec, "sim.build_scenario", id);
    sim::ScenarioParams params;
    params.node_count = trial.node_count;
    deployment = sim::build_scenario(trial.scenario, params, deploy_rng);
    if (trial.drop_rate > 0.0 && !deployment.positions.empty()) {
      const auto drops = static_cast<std::size_t>(
          std::floor(trial.drop_rate * static_cast<double>(deployment.size())));
      sim::drop_random_nodes(deployment, drops, deploy_rng);
    }
  }
  if (trial.anchor_count > 0) {
    Scoped s(rec, "sim.choose_random_anchors", id);
    sim::choose_random_anchors(deployment, trial.anchor_count, anchor_rng);
  }

  stage = FailureReason::kConfig;
  pipeline::PipelineConfig config;
  {
    Scoped s(rec, "pipeline.config", id);
    config = trial_config(spec, trial);
  }

  stage = FailureReason::kMeasurement;
  core::MeasurementSet measurements;
  std::size_t skipped = 0;
  switch (config.source) {
    case pipeline::MeasurementSource::kAcousticRanging: {
      sim::FieldExperimentData data;
      {
        Scoped s(rec, "sim.field_experiment", id);
        data = sim::run_field_experiment(deployment, config.campaign, rng);
      }
      Scoped s(rec, "sim.to_measurement_set", id);
      measurements = data.to_measurement_set(deployment.size());
      skipped = data.skipped_pairs;
      break;
    }
    case pipeline::MeasurementSource::kSyntheticGaussian: {
      Scoped s(rec, "sim.gaussian_measurements", id);
      measurements = sim::gaussian_measurements(deployment, config.noise, rng);
      break;
    }
  }
  measurements.set_node_count(deployment.size());
  std::size_t augmented = 0;
  if (config.augment_missing) {
    Scoped s(rec, "sim.augment", id);
    augmented = sim::augment_with_gaussian(measurements, deployment, config.noise, rng,
                                           config.max_augmented);
  }

  stage = FailureReason::kSolver;
  measurements.set_node_count(deployment.size());
  core::LocalizationResult estimates;
  double stress = std::numeric_limits<double>::quiet_NaN();
  bool align_for_eval = true;
  bool degrade_placed = false;
  std::vector<core::NodeId> exclude;
  switch (config.solver) {
    case pipeline::Solver::kMultilateration: {
      Scoped s(rec, "core.multilateration", id);
      estimates = core::localize_by_multilateration(deployment, measurements,
                                                    config.multilateration, rng);
      align_for_eval = false;
      exclude = deployment.anchors;
      break;
    }
    case pipeline::Solver::kCentralizedLss: {
      core::LssResult lss;
      if (config.lss_init == pipeline::LssInit::kDvHopSeeded && !deployment.anchors.empty()) {
        std::vector<Vec2> initial(deployment.size());
        {
          Scoped s(rec, "core.dv_hop", id);
          const core::DvHopResult dv =
              core::localize_dv_hop(deployment, measurements, config.dv_hop, rng);
          for (std::size_t node = 0; node < deployment.size(); ++node) {
            if (node < dv.result.positions.size() && dv.result.positions[node].has_value()) {
              initial[node] = *dv.result.positions[node];
            } else {
              initial[node] = Vec2{rng.uniform(0.0, config.lss.init_box_m),
                                   rng.uniform(0.0, config.lss.init_box_m)};
            }
          }
        }
        Scoped s(rec, "core.lss", id);
        lss = core::localize_lss_from(measurements, std::move(initial), config.lss, rng);
      } else {
        Scoped s(rec, "core.lss", id);
        lss = core::localize_lss(measurements, config.lss, rng);
      }
      Scoped s(rec, "pipeline.finalize", id);
      stress = lss.stress;
      degrade_placed = lss.non_finite;
      std::vector<bool> has_measurement(deployment.size(), false);
      for (const core::DistanceEdge& edge : measurements.edges()) {
        if (edge.i < has_measurement.size()) has_measurement[edge.i] = true;
        if (edge.j < has_measurement.size()) has_measurement[edge.j] = true;
      }
      estimates.positions.assign(deployment.size(), std::nullopt);
      for (std::size_t node = 0; node < deployment.size(); ++node) {
        if (node < lss.positions.size() && has_measurement[node]) {
          estimates.positions[node] = lss.positions[node];
        }
      }
      break;
    }
    case pipeline::Solver::kDistributedLss: {
      Scoped s(rec, "core.distributed", id);
      core::DistributedLssResult dist = core::localize_distributed(
          measurements, config.distributed_root, config.distributed, rng);
      estimates = dist.result;
      estimates.positions.resize(deployment.size());
      net = NetJob{id,
                   std::move(dist.maps),
                   deployment.positions,
                   config.distributed_root,
                   config.distributed,
                   Rng(spec.seed).fork(trial.global_index).fork(3).uniform_bits()};
      break;
    }
  }
  if (estimates.status.size() != estimates.positions.size()) {
    estimates.status.assign(estimates.positions.size(), core::LocalizationStatus::kUnlocalized);
    for (std::size_t node = 0; node < estimates.positions.size(); ++node) {
      if (estimates.positions[node].has_value()) {
        estimates.status[node] = degrade_placed ? core::LocalizationStatus::kDegraded
                                                : core::LocalizationStatus::kOk;
      }
    }
  }

  eval::LocalizationReport report;
  {
    Scoped s(rec, "eval.evaluate", id);
    report = eval::evaluate_localization(estimates.positions, deployment.positions,
                                         align_for_eval, exclude);
  }

  outcome.ok = true;
  outcome.failure = FailureReason::kNone;
  outcome.error.clear();
  outcome.total_nodes = report.total_nodes;
  outcome.localized = report.localized;
  outcome.degraded = estimates.degraded_count();
  outcome.placement_rate = report.localized_fraction();
  outcome.average_error_m = report.average_error_m;
  outcome.median_error_m = report.median_error_m;
  outcome.max_error_m = report.max_error_m;
  outcome.stress = stress;
  outcome.augmented_edges = augmented;
  outcome.measured_edges = measurements.edge_count() - augmented;
  outcome.skipped_pairs = skipped;
}

/// CampaignRunner::run_trial's attempt loop around replay_attempt.
TrialOutcome replay_trial(const runner::SweepSpec& spec, const runner::TrialSpec& trial,
                          std::int64_t id, SpanRecorder& rec, std::optional<NetJob>& net) {
  Scoped trial_span(rec, "trial", id);
  TrialOutcome outcome;
  outcome.cell_index = trial.cell_index;
  outcome.trial_index = trial.trial_index;
  const auto start = std::chrono::steady_clock::now();
  const Rng trial_rng = Rng(spec.seed).fork(trial.global_index);
  for (std::size_t attempt = 0; attempt <= spec.max_trial_retries; ++attempt) {
    if (attempt > 0) {
      Scoped s(rec, "runner.backoff", id);
      std::this_thread::sleep_for(std::chrono::milliseconds(5 * attempt));
    }
    outcome.attempts = attempt + 1;
    FailureReason stage = FailureReason::kScenarioBuild;
    net.reset();
    try {
      const Rng attempt_rng = attempt == 0 ? trial_rng : trial_rng.fork(8 + attempt);
      replay_attempt(spec, trial, attempt_rng, id, rec, stage, outcome, net);
      break;
    } catch (const std::exception& e) {
      outcome.ok = false;
      outcome.failure = stage;
      outcome.error = e.what();
    } catch (...) {
      outcome.ok = false;
      outcome.failure = FailureReason::kNonStdException;
      outcome.error = "non-std exception";
    }
  }
  outcome.wall_time_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return outcome;
}

}  // namespace

ReplayResult replay_traced(const Workload& workload) {
  const runner::SweepSpec& spec = workload.spec;
  const std::vector<runner::TrialSpec> trials = runner::expand(spec);
  const unsigned threads = static_cast<unsigned>(std::max<std::size_t>(
      1, std::min<std::size_t>(workload.threads, trials.size())));
  std::vector<SpanRecorder> recorders(threads, SpanRecorder(threads == 1));
  std::vector<std::optional<NetJob>> net_jobs(trials.size());
  ReplayResult result;
  result.trials.resize(trials.size());

  // The runner's pool: workers claim trials from one cursor.
  const auto start = std::chrono::steady_clock::now();
  std::atomic<std::size_t> cursor{0};
  const auto worker = [&](SpanRecorder& rec) {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= trials.size()) return;
      result.trials[i] = replay_trial(spec, trials[i], static_cast<std::int64_t>(i), rec,
                                      net_jobs[i]);
    }
  };
  if (threads == 1) {
    worker(recorders[0]);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (SpanRecorder& rec : recorders) pool.emplace_back(worker, std::ref(rec));
    for (std::thread& t : pool) t.join();
  }
  {
    // The runner's sequential per-cell aggregation, then its serializer.
    Scoped s(recorders[0], "eval.aggregate", -1);
    runner::CampaignResult campaign;
    campaign.sweep_name = spec.name;
    campaign.seed = spec.seed;
    campaign.cells.resize(spec.trials_per_cell == 0 ? 0 : runner::cell_count(spec));
    for (std::size_t c = 0; c < campaign.cells.size(); ++c) {
      const TrialOutcome* begin = result.trials.data() + c * spec.trials_per_cell;
      campaign.cells[c].axes = runner::cell_axes(trials[c * spec.trials_per_cell]);
      campaign.cells[c].aggregate = eval::aggregate_trials(begin, begin + spec.trials_per_cell);
    }
    result.json = campaign.to_json();
  }
  result.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  for (const std::optional<NetJob>& job : net_jobs) {
    if (!job) continue;
    Scoped s(recorders[0], "net.alignment_protocol", job->trial);
    const core::AlignmentProtocolResult protocol = core::run_alignment_protocol(
        job->maps, job->root, job->truth, job->options, resloc::net::RadioParams{}, job->seed);
    result.net_broadcasts += protocol.map_broadcasts + protocol.align_broadcasts;
    result.net_deliveries += protocol.messages_delivered;
  }
  for (SpanRecorder& rec : recorders) rec.drain_into(result.spans);
  return result;
}

}  // namespace perfbench
