// Centralized least squares scaling (LSS) localization with soft constraints
// -- the paper's primary contribution (Section 4.2).
//
// LSS seeks a configuration {(x_i, y_i)} minimizing the weighted stress
//
//   E = sum_{d_ij in D} w_ij (sqrt((x_i-x_j)^2 + (y_i-y_j)^2) - d_ij)^2
//     + sum_{d_ij not in D} w_D (min(dcomp_ij, d_min) - d_min)^2
//
// where D is the sparse set of measured distances and the second term is the
// minimum-node-spacing soft constraint: pairs *without* a measurement are
// penalized when placed closer than d_min ("this can be visualized as
// straightening a plane which is incorrectly folded"). Minimization is
// gradient descent (Equation 1) with perturbation restarts to escape local
// minima. Unlike classical MDS, no all-pairs distance matrix is required.
#pragma once

#include <optional>
#include <vector>

#include "core/types.hpp"
#include "math/gradient_descent.hpp"
#include "math/rng.hpp"
#include "math/vec2.hpp"

namespace resloc::core {

/// LSS configuration. Defaults follow the field experiment of Section 4.2.2:
/// w_ij = 1 (set per-edge in the MeasurementSet), w_D = 10, d_min = 9.14 m.
struct LssOptions {
  /// Minimum node spacing d_min (default 9.14 m = 30 ft, the paper's grid
  /// spacing); nullopt disables the soft constraint (the Figure 19 /
  /// Figure 22 ablation).
  std::optional<double> min_spacing_m = 9.14;

  /// Soft-constraint weight w_D (default 10, Section 4.2.2).
  double constraint_weight = 10.0;

  /// Side of the square in which random initial configurations are drawn
  /// (default 70 m, covering the ~63 m grass-grid extent).
  double init_box_m = 70.0;

  /// Gradient-descent tuning (Equation 1 with a backtracking step).
  resloc::math::GradientDescentOptions gd{.step_size = 1e-3,
                                          .max_iterations = 4000,
                                          .relative_tolerance = 1e-12,
                                          .gradient_tolerance = 1e-7,
                                          .record_trace = false};

  /// Perturbation-restart schedule (Section 4.2.1: each round reseeds from
  /// the best configuration so far plus noise).
  resloc::math::RestartOptions restarts{.rounds = 8, .perturbation_stddev = 4.0};

  /// Number of independent random initial configurations tried by
  /// localize_lss (each gets the full perturbation-restart schedule; the
  /// globally best configuration wins). The paper repeats minimization
  /// "until a reasonable minimum is reached or the maximum computation time
  /// limit expires"; fresh seeds are how a deep fold is escaped when
  /// perturbation alone cannot.
  int independent_inits = 16;

  /// Early-stop: when > 0, initialization attempts stop as soon as the best
  /// stress falls to `target_stress_per_edge * edge_count` ("a reasonable
  /// minimum is reached"). 0 runs all attempts.
  double target_stress_per_edge = 0.0;
};

/// LSS output. Positions are in an arbitrary rigid frame (translate / rotate
/// / flip) unless anchors pinned the frame; evaluation aligns to ground truth
/// by best-fit (Section 4.2.2).
struct LssResult {
  std::vector<resloc::math::Vec2> positions;
  double stress = 0.0;               ///< final E
  int iterations = 0;                ///< accepted gradient steps (best round)
  bool converged = false;
  /// The solve encountered a non-finite stress (NaN/inf measurements, e.g.
  /// injected corruption): positions are the last finite iterate and should
  /// be treated as degraded, not full-confidence.
  bool non_finite = false;
  std::vector<double> error_trace;   ///< E per iteration when gd.record_trace
};

/// Evaluates the LSS stress function (with the soft constraint when enabled)
/// AND its gradient at the given configuration. `grad` is
/// resized to 2n and laid out like the solver's parameter vector:
/// [dE/dx_0 .. dE/dx_{n-1}, dE/dy_0 .. dE/dy_{n-1}]. Exposed for the
/// finite-difference gradient checks, the equivalence tests against the dense
/// reference (tests/reference/dense_lss.hpp), and bench_lss_scale. Each call
/// builds a fresh objective, so it pays one exact soft-constraint pair search
/// and never reuses a pair list (see core/lss.cpp).
double lss_stress_with_gradient(const MeasurementSet& measurements,
                                const std::vector<resloc::math::Vec2>& positions,
                                const LssOptions& options, std::vector<double>& grad);

/// Runs centralized LSS over all nodes in the measurement set, starting from
/// a random configuration. All nodes receive coordinates; nodes with no
/// measurements are only constrained by the soft term and are effectively
/// unlocalized (callers can drop isolated nodes).
LssResult localize_lss(const MeasurementSet& measurements, const LssOptions& options,
                       resloc::math::Rng& rng);

/// LSS with a caller-provided initial configuration (e.g. for refinement or
/// deterministic tests).
LssResult localize_lss_from(const MeasurementSet& measurements,
                            std::vector<resloc::math::Vec2> initial, const LssOptions& options,
                            resloc::math::Rng& rng);

/// Anchored LSS: nodes listed in `anchors` are pinned to their known
/// positions (their gradient entries are zeroed), so the output frame is
/// absolute. Not used by the paper's experiments (which align post-hoc) but
/// a natural deployment mode of the same minimization.
LssResult localize_lss_anchored(const MeasurementSet& measurements,
                                const std::vector<std::pair<NodeId, resloc::math::Vec2>>& anchors,
                                const LssOptions& options, resloc::math::Rng& rng);

}  // namespace resloc::core
