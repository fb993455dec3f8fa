// LSS at production scale: the soft constraint's spatial-grid active set vs
// the dense O(n^2) scan.
//
// Two claims are measured and gated:
//   1. Speedup. The minimum-spacing soft constraint's active set is found by a
//      spatial-grid sweep (~O(n) per evaluation) instead of scanning all
//      n(n-1)/2 pairs. Every timed evaluation here is a one-shot
//      core::lss_stress_with_gradient call, i.e. a fresh objective's exact
//      pair-list build -- the cold cost, with none of the list reuse a solve
//      gets across evaluations. Both the constraint stage alone and the full
//      objective evaluation (which adds the measured-edge term, identical in
//      both paths -- the Amdahl floor) are timed per n; the gates are a >= 10x
//      constraint-stage speedup at n = 500 and a >= 10x full-evaluation
//      speedup at n = 1000, or the bench exits nonzero.
//   2. Bit-equivalence. The dense scan is the test/bench reference in
//      tests/reference/dense_lss.hpp. Both paths visit active pairs in
//      identical order with identical arithmetic, so error and every gradient
//      component must match to the last ulp (max |delta| must be exactly 0).
//      Solution quality is therefore inherited, not traded: the same seeds
//      produce the same configuration -- the end-to-end stage below records
//      identical stress and mean error from both paths, differing only in
//      wall time.
//
// Results are printed and written as JSON (default BENCH_lss.json, or
// argv[1]) so CI can archive the perf trajectory alongside BENCH_ranging.json.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/dv_hop.hpp"
#include "core/lss.hpp"
#include "eval/aggregate.hpp"
#include "eval/metrics.hpp"
#include "reference/dense_lss.hpp"
#include "sim/deployments.hpp"
#include "sim/measurement_gen.hpp"
#include "sim/scenario_registry.hpp"

using namespace resloc;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-`reps` wall time of `fn` (seconds).
template <typename Fn>
double best_of(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    fn();
    const double dt = now_s() - t0;
    if (dt < best) best = dt;
  }
  return best;
}

volatile double g_sink = 0.0;  // keeps the timed loops from being optimized away

struct EvalCase {
  std::size_t n = 0;
  bool folded = false;
  std::size_t edges = 0;
  std::size_t active_pairs = 0;
  double edge_term_us = 0.0;  ///< measured-edge term alone (constraint off)
  double dense_us = 0.0;
  double grid_us = 0.0;
  double speedup = 0.0;        ///< full objective evaluation
  double stage_speedup = 0.0;  ///< soft-constraint stage alone
};

/// One scale point: a uniform_n field, synthetic measurements, and one of two
/// configurations. `folded = false` is the late-descent steady state (truth +
/// 3 m jitter: nearly every sub-d_min pair is measured and exempt, so the
/// active set is close to empty -- the regime most evaluations run in).
/// `folded = true` compresses the truth to 35% (early descent / folded
/// minimum): unmeasured pairs pour under d_min and the active set is ~O(n),
/// exercising the grid path's ordering/replay stage under real load. Times
/// both constraint paths and checks bit-equivalence in both regimes.
EvalCase run_eval_case(std::size_t n, bool folded, double& max_error_delta,
                       double& max_grad_delta) {
  EvalCase c;
  c.n = n;
  c.folded = folded;
  math::Rng deploy_rng(0x5CA1E + n);
  sim::ScenarioParams params;
  params.node_count = n;
  const core::Deployment deployment = sim::build_scenario("uniform_n", params, deploy_rng);
  math::Rng meas_rng(0xED6E + n);
  const core::MeasurementSet measurements =
      sim::gaussian_measurements(deployment, {}, meas_rng);
  c.edges = measurements.edge_count();

  std::vector<math::Vec2> config(deployment.size());
  math::Rng jitter_rng(0x71 + n);
  const double scale = folded ? 0.35 : 1.0;
  for (std::size_t i = 0; i < deployment.size(); ++i) {
    config[i] = deployment.positions[i] * scale +
                math::Vec2{jitter_rng.gaussian(0.0, 3.0), jitter_rng.gaussian(0.0, 3.0)};
  }

  const core::LssOptions grid_options;  // default: d_min 9.14 m, w_D 10

  // Equivalence first: same error, same gradient, down to the last bit.
  std::vector<double> grid_grad;
  std::vector<double> dense_grad;
  const double grid_e = core::lss_stress_with_gradient(measurements, config, grid_options, grid_grad);
  const double dense_e =
      reference::dense_stress_with_gradient(measurements, config, grid_options, dense_grad);
  max_error_delta = std::max(max_error_delta, std::abs(grid_e - dense_e));
  for (std::size_t i = 0; i < grid_grad.size(); ++i) {
    max_grad_delta = std::max(max_grad_delta, std::abs(grid_grad[i] - dense_grad[i]));
  }

  // Count the active set so the record shows what the evaluation paid for.
  {
    const double dmin = *grid_options.min_spacing_m;
    for (std::size_t i = 0; i + 1 < config.size(); ++i) {
      for (std::size_t j = i + 1; j < config.size(); ++j) {
        const double d = math::distance(config[i], config[j]);
        if (d < dmin && !measurements.has(static_cast<core::NodeId>(i),
                                          static_cast<core::NodeId>(j))) {
          ++c.active_pairs;
        }
      }
    }
  }

  // Timed evaluations: enough iterations per rep to rise above timer noise.
  const int evals = n >= 1000 ? 20 : n >= 500 ? 40 : 100;
  std::vector<double> grad;
  const auto time_eval = [&](auto&& stress_with_gradient, const core::LssOptions& options) {
    return best_of(5, [&] {
      double sum = 0.0;
      for (int e = 0; e < evals; ++e) {
        sum += stress_with_gradient(measurements, config, options, grad);
      }
      g_sink = sum;
    });
  };
  core::LssOptions edge_only_options;  // the Amdahl floor both paths share
  edge_only_options.min_spacing_m.reset();
  const double edge_s = time_eval(core::lss_stress_with_gradient, edge_only_options);
  const double dense_s = time_eval(reference::dense_stress_with_gradient, grid_options);
  const double grid_s = time_eval(core::lss_stress_with_gradient, grid_options);
  c.edge_term_us = edge_s / evals * 1e6;
  c.dense_us = dense_s / evals * 1e6;
  c.grid_us = grid_s / evals * 1e6;
  c.speedup = dense_s / grid_s;
  c.stage_speedup = (dense_s - edge_s) / (grid_s - edge_s);
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_lss.json";
  std::puts("LSS soft-constraint active set: spatial grid vs dense O(n^2) scan\n");

  double max_error_delta = 0.0;
  double max_grad_delta = 0.0;
  std::vector<EvalCase> cases;
  for (const std::size_t n : {100u, 250u, 500u, 1000u}) {
    cases.push_back(run_eval_case(n, false, max_error_delta, max_grad_delta));
  }
  // The folded regime (compressed configuration, ~O(n) active pairs) puts
  // the grid path's ordering/replay machinery under real load -- both for
  // timing honesty and so the bit-equivalence gate covers a busy active set.
  for (const std::size_t n : {500u, 1000u}) {
    cases.push_back(run_eval_case(n, true, max_error_delta, max_grad_delta));
  }

  std::puts("objective evaluation (measured edges + soft constraint)");
  std::puts(
      "      n  config      edges    active   edge us   dense us    grid us   eval-speedup   "
      "stage-speedup");
  double stage_speedup_at_500 = 0.0;
  double eval_speedup_at_1000 = 0.0;
  for (const EvalCase& c : cases) {
    std::printf("  %5zu  %-9s %8zu  %8zu  %8.1f  %9.1f  %9.1f  %11.1fx  %13.1fx\n", c.n,
                c.folded ? "folded" : "converged", c.edges, c.active_pairs, c.edge_term_us,
                c.dense_us, c.grid_us, c.speedup, c.stage_speedup);
    if (!c.folded && c.n == 500) stage_speedup_at_500 = c.stage_speedup;
    if (!c.folded && c.n == 1000) eval_speedup_at_1000 = c.speedup;
  }
  std::puts(
      "  (the measured-edge term is identical in both paths; it bounds the full-eval\n"
      "   speedup at any n -- the stage column isolates the rewritten constraint scan;\n"
      "   gates read the converged rows, the regime most evaluations run in)");
  std::printf("  bit-equivalence: max |delta error| = %g, max |delta grad| = %g (bound: 0)\n",
              max_error_delta, max_grad_delta);

  // --- End-to-end: the 'scale' sweep's solver stage (DV-hop seed + one LSS
  // descent) at n = 500, grid vs dense. Same seeds, bit-equal objective =>
  // identical solution; only the wall clock may differ. ---
  math::Rng deploy_rng(0xE2E);
  sim::ScenarioParams params;
  const core::Deployment deployment = [&] {
    core::Deployment d = sim::build_scenario("campus_500", params, deploy_rng);
    math::Rng anchor_rng(0xA2C);
    sim::choose_random_anchors(d, 40, anchor_rng);
    return d;
  }();
  math::Rng meas_rng(0x3EA);
  const core::MeasurementSet measurements =
      sim::gaussian_measurements(deployment, {}, meas_rng);

  core::LssOptions solve_options;
  solve_options.restarts.rounds = 3;
  solve_options.gd.max_iterations = 2500;

  const auto solve = [&](bool dense, double& out_stress, double& out_error) {
    math::Rng dv_rng(0xD0);
    core::DvHopResult dv = core::localize_dv_hop(deployment, measurements, {}, dv_rng);
    std::vector<math::Vec2> initial(deployment.size());
    for (std::size_t i = 0; i < deployment.size(); ++i) {
      initial[i] = dv.result.positions[i].value_or(math::Vec2{0.0, 0.0});
    }
    math::Rng solve_rng(0x50E);
    const core::LssResult result =
        dense ? reference::dense_localize_lss_from(measurements, initial, solve_options, solve_rng)
              : core::localize_lss_from(measurements, initial, solve_options, solve_rng);
    out_stress = result.stress;
    out_error =
        eval::evaluate_localization(result.positions, deployment.positions, true).average_error_m;
  };

  double grid_stress = 0.0, grid_error = 0.0, dense_stress = 0.0, dense_error = 0.0;
  const double t_grid0 = now_s();
  solve(false, grid_stress, grid_error);
  const double solve_grid_s = now_s() - t_grid0;
  const double t_dense0 = now_s();
  solve(true, dense_stress, dense_error);
  const double solve_dense_s = now_s() - t_dense0;

  std::printf("\nend-to-end solve, campus_500 (DV-hop seed + LSS, 40 anchors)\n");
  std::printf("  dense scan        %8.2f s   stress %.3f   mean error %.3f m\n", solve_dense_s,
              dense_stress, dense_error);
  std::printf("  spatial grid      %8.2f s   stress %.3f   mean error %.3f m\n", solve_grid_s,
              grid_stress, grid_error);
  std::printf("  speedup           %8.2fx  (same seeds; solutions are identical)\n",
              solve_dense_s / solve_grid_s);

  const bool solutions_match = grid_stress == dense_stress && grid_error == dense_error;
  if (!solutions_match) {
    std::puts("  WARNING: grid and dense solves disagree -- equivalence broken");
  }

  // --- JSON record ---
  const auto v = [](double x) { return resloc::eval::format_value(x); };
  std::string json = "{\n";
  json += "  \"bench\": \"bench_lss_scale\",\n";
  json += "  \"eval_cases\": [";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const EvalCase& c = cases[i];
    json += (i == 0 ? "\n" : ",\n");
    json += "    {\"n\": " + std::to_string(c.n) +
            ", \"config\": \"" + (c.folded ? "folded" : "converged") +
            "\", \"edges\": " + std::to_string(c.edges) +
            ", \"active_pairs\": " + std::to_string(c.active_pairs) +
            ", \"edge_term_us_per_eval\": " + v(c.edge_term_us) +
            ", \"dense_us_per_eval\": " + v(c.dense_us) +
            ", \"grid_us_per_eval\": " + v(c.grid_us) + ", \"eval_speedup\": " + v(c.speedup) +
            ", \"constraint_stage_speedup\": " + v(c.stage_speedup) + "}";
  }
  json += "\n  ],\n";
  json += "  \"max_abs_error_delta\": " + v(max_error_delta) + ",\n";
  json += "  \"max_abs_gradient_delta\": " + v(max_grad_delta) + ",\n";
  json += "  \"solve_scenario\": \"campus_500\",\n";
  json += "  \"solve_dense_s\": " + v(solve_dense_s) + ",\n";
  json += "  \"solve_grid_s\": " + v(solve_grid_s) + ",\n";
  json += "  \"solve_speedup\": " + v(solve_dense_s / solve_grid_s) + ",\n";
  json += "  \"solve_stress\": " + v(grid_stress) + ",\n";
  json += "  \"solve_mean_error_m\": " + v(grid_error) + "\n";
  json += "}\n";
  if (!resloc::eval::write_text_file(json_path, json)) {
    std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nbench record: %s\n", json_path.c_str());

  const bool ok = stage_speedup_at_500 >= 10.0 && eval_speedup_at_1000 >= 10.0 &&
                  max_error_delta == 0.0 && max_grad_delta == 0.0 && solutions_match;
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: stage speedup@500 %.1fx / eval speedup@1000 %.1fx (both need >= 10x), "
                 "error delta %g, grad delta %g\n",
                 stage_speedup_at_500, eval_speedup_at_1000, max_error_delta, max_grad_delta);
  }
  return ok ? 0 : 1;
}
