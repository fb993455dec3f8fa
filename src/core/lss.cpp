#include "core/lss.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "math/spatial_hash_grid.hpp"
#include "obs/telemetry.hpp"

namespace resloc::core {

using resloc::math::Vec2;

namespace {

constexpr double kMinSeparation = 1e-9;  // guards the 1/dcomp gradient factor

/// Verlet skin of the soft-constraint pair list, as a fraction of d_min. The
/// results do not depend on it (see StressObjective); it only trades list
/// length against rebuild rate.
constexpr double kSkinFraction = 0.5;

/// Relative safety margin of the reuse test: a node may move at most
/// (1 - kReuseMargin) * skin / 2 from where the list was built. It absorbs the
/// few-ulp rounding of the distance and grid-cell arithmetic, orders of
/// magnitude below it, so the superset argument holds in floating point.
constexpr double kReuseMargin = 1e-6;

/// The stress objective over parameters [x_0..x_{n-1}, y_0..y_{n-1}]: the
/// measured-edge term plus the minimum-spacing soft constraint over
/// unmeasured pairs (Section 4.2.1). A concrete callable rather than a
/// std::function: the optimizer evaluates it ~10^5 times per solve, and the
/// pair list below must persist across evaluations.
///
/// The soft constraint's active set -- unmeasured pairs currently placed
/// closer than d_min -- is read off a Verlet neighbor list instead of being
/// searched for on every evaluation. A build collects, with a spatial-hash
/// sweep over cells of side d_min + skin, every unmeasured pair closer than
/// d_min + skin, sorted by (i, j). While no node has moved more than skin/2
/// (less the safety margin) since the build, that list is a superset of the
/// active set: two nodes closer than d_min now were closer than
/// d_min + skin then. One O(n) displacement check per evaluation decides
/// reuse; a NaN displacement fails it and forces a rebuild. Each evaluation
/// keeps the listed pairs with d^2 < d_min^2 and runs the dense scan's
/// per-pair arithmetic on them in the dense scan's (i asc, j asc) order, so
/// error and gradient are bit-equal to scanning all n(n-1)/2 pairs.
///
/// Two builds are exact (skin 0, cells of side d_min) and are never reused:
/// a fresh objective's first evaluation, so a one-shot evaluation costs one
/// sweep and no more, and any build while a coordinate is non-finite, so the
/// NaN pairs kept (NaN fails every comparison) are exactly those sharing a
/// d_min grid neighborhood, as they always were. `fixed` lists nodes whose
/// gradient entries are zeroed (anchored mode).
class StressObjective {
 public:
  StressObjective(const MeasurementSet& measurements, const LssOptions& options,
                  std::vector<NodeId> fixed)
      : measurements_(measurements),
        options_(options),
        fixed_(std::move(fixed)),
        n_(measurements.node_count()) {}

  double operator()(const std::vector<double>& p, std::vector<double>& grad) {
    for (double& g : grad) g = 0.0;
    double error = 0.0;

    // Measured-edge term: w_ij (dcomp - d_ij)^2.
    for (const DistanceEdge& e : measurements_.edges()) {
      const double dx = p[e.i] - p[e.j];
      const double dy = p[n_ + e.i] - p[n_ + e.j];
      const double dcomp = std::max(std::sqrt(dx * dx + dy * dy), kMinSeparation);
      const double residual = dcomp - e.distance_m;
      error += e.weight * residual * residual;
      const double scale = 2.0 * e.weight * residual / dcomp;
      grad[e.i] += scale * dx;
      grad[e.j] -= scale * dx;
      grad[n_ + e.i] += scale * dy;
      grad[n_ + e.j] -= scale * dy;
    }

    // Soft minimum-spacing constraint over *unmeasured* pairs placed closer
    // than d_min: w_D (dcomp - d_min)^2. The active set changes dynamically
    // as the configuration moves (Section 4.2.1).
    if (options_.min_spacing_m.has_value()) error = accumulate_constraint(p, grad, error);

    for (const NodeId i : fixed_) {
      grad[i] = 0.0;
      grad[n_ + i] = 0.0;
    }
    // Edge-term vs constraint-stage split per evaluation (the constraint
    // stage adds its own tallies): what ROADMAP items 1 and 5 read to see
    // where an LSS solve's work goes.
    obs::add(obs::Counter::kLssEdgeTerms, measurements_.edges().size());
    return error;
  }

 private:
  double accumulate_constraint(const std::vector<double>& p, std::vector<double>& grad,
                               double error) {
    const double dmin = *options_.min_spacing_m;
    const double dmin_sq = dmin * dmin;
    const double wd = options_.constraint_weight;
    if (!list_reusable(p)) build_list(p, dmin);

    std::uint64_t active_pairs = 0;
    for (const std::uint64_t pair : list_) {
      const auto i = static_cast<std::size_t>(pair >> 32);
      const auto j = static_cast<std::size_t>(pair & 0xffffffffu);
      const double dx = p[i] - p[j];
      const double dy = p[n_ + i] - p[n_ + j];
      const double d_sq = dx * dx + dy * dy;
      if (d_sq >= dmin_sq) continue;  // constraint satisfied
      ++active_pairs;
      const double dcomp = std::max(std::sqrt(d_sq), kMinSeparation);
      const double residual = dcomp - dmin;
      error += wd * residual * residual;
      const double scale = 2.0 * wd * residual / dcomp;
      grad[i] += scale * dx;
      grad[j] -= scale * dx;
      grad[n_ + i] += scale * dy;
      grad[n_ + j] -= scale * dy;
    }
    obs::add(obs::Counter::kLssConstraintPairs, active_pairs);
    return error;
  }

  /// True while the list still covers the active set: it was built with a
  /// skin and every node is within the reuse radius of its build position.
  bool list_reusable(const std::vector<double>& p) const {
    if (!reusable_) return false;
    for (std::size_t k = 0; k < n_; ++k) {
      const double dx = p[k] - built_at_[k];
      const double dy = p[n_ + k] - built_at_[n_ + k];
      if (!(dx * dx + dy * dy < reuse_radius_sq_)) return false;  // NaN fails too
    }
    return true;
  }

  /// Rebuilds the list at configuration p: bucket the nodes into cells of side
  /// d_min + skin, keep the unmeasured candidate pairs closer than that, and
  /// order them (i asc, j asc). The order is restored by a counting bucket per
  /// i followed by one insertion sort, which only moves entries within their
  /// own i bucket.
  void build_list(const std::vector<double>& p, double dmin) {
    const bool exact =
        !built_ || !std::all_of(p.begin(), p.end(), [](double v) { return std::isfinite(v); });
    built_ = true;
    reusable_ = !exact;
    const double skin = exact ? 0.0 : kSkinFraction * dmin;
    const double cutoff = dmin + skin;
    const double cutoff_sq = cutoff * cutoff;
    const double reuse_radius = 0.5 * skin * (1.0 - kReuseMargin);
    reuse_radius_sq_ = reuse_radius * reuse_radius;
    if (reusable_) built_at_ = p;
    obs::add(obs::Counter::kLssListRebuilds);

    grid_.rebuild(p.data(), p.data() + n_, n_, cutoff);
    pairs_.clear();
    grid_.for_each_candidate_pair([this, &p, cutoff_sq](std::size_t i, std::size_t j) {
      const double dx = p[i] - p[j];
      const double dy = p[n_ + i] - p[n_ + j];
      if (dx * dx + dy * dy >= cutoff_sq) return;  // NaN is kept, as the dense scan keeps it
      if (measurements_.has(static_cast<NodeId>(i), static_cast<NodeId>(j))) return;
      pairs_.push_back((static_cast<std::uint64_t>(i) << 32) | j);
    });

    // Counting sort by i: offsets_[i] walks from the start to the end of
    // node i's bucket of list_ as the scatter fills it.
    offsets_.assign(n_ + 1, 0);
    for (const std::uint64_t pair : pairs_) ++offsets_[(pair >> 32) + 1];
    for (std::size_t i = 1; i <= n_; ++i) offsets_[i] += offsets_[i - 1];
    list_.resize(pairs_.size());
    for (const std::uint64_t pair : pairs_) list_[offsets_[pair >> 32]++] = pair;
    for (std::size_t a = 1; a < list_.size(); ++a) {
      const std::uint64_t v = list_[a];
      std::size_t b = a;
      while (b > 0 && list_[b - 1] > v) {
        list_[b] = list_[b - 1];
        --b;
      }
      list_[b] = v;
    }
  }

  const MeasurementSet& measurements_;
  const LssOptions options_;
  const std::vector<NodeId> fixed_;
  const std::size_t n_;
  bool built_ = false;     // a list has been built (the first build is exact)
  bool reusable_ = false;  // the current list was built with a skin
  double reuse_radius_sq_ = 0.0;
  std::vector<double> built_at_;         // configuration the list was built at
  std::vector<std::uint64_t> list_;      // pairs (i << 32) | j, sorted
  resloc::math::SpatialHashGrid grid_;   // rebuilt per list build, alloc-free
  std::vector<std::uint64_t> pairs_;     // candidate pairs in emission order
  std::vector<std::uint32_t> offsets_;   // counting-sort scratch (per-i bucket bounds)
};

LssResult run(const MeasurementSet& measurements, std::vector<double> initial,
              std::vector<NodeId> fixed, const LssOptions& options, resloc::math::Rng& rng) {
  RESLOC_SPAN("solver/lss_solve");
  const std::size_t n = measurements.node_count();
  StressObjective objective(measurements, options, std::move(fixed));
  const auto gd_result = resloc::math::minimize_with_restarts(objective, std::move(initial),
                                                              options.gd, options.restarts, rng);
  LssResult result;
  result.positions.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.positions[i] = Vec2{gd_result.x[i], gd_result.x[n + i]};
  }
  result.stress = gd_result.error;
  result.iterations = gd_result.iterations;
  result.converged = gd_result.converged;
  result.non_finite = gd_result.non_finite || !std::isfinite(gd_result.error);
  result.error_trace = gd_result.error_trace;
  return result;
}

}  // namespace

double lss_stress(const MeasurementSet& measurements, const std::vector<Vec2>& positions,
                  const LssOptions& options) {
  std::vector<double> grad;
  return lss_stress_with_gradient(measurements, positions, options, grad);
}

double lss_stress_with_gradient(const MeasurementSet& measurements,
                                const std::vector<Vec2>& positions, const LssOptions& options,
                                std::vector<double>& grad) {
  const std::size_t n = measurements.node_count();
  std::vector<double> p(2 * n, 0.0);
  for (std::size_t i = 0; i < n && i < positions.size(); ++i) {
    p[i] = positions[i].x;
    p[n + i] = positions[i].y;
  }
  grad.assign(2 * n, 0.0);
  StressObjective objective(measurements, options, {});
  return objective(p, grad);
}

LssResult localize_lss(const MeasurementSet& measurements, const LssOptions& options,
                       resloc::math::Rng& rng) {
  const std::size_t n = measurements.node_count();
  const double stress_target =
      options.target_stress_per_edge > 0.0
          ? options.target_stress_per_edge * static_cast<double>(std::max<std::size_t>(
                                                 measurements.edge_count(), 1))
          : -1.0;

  LssResult best;
  bool have_best = false;
  const int attempts = std::max(options.independent_inits, 1);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    std::vector<Vec2> initial(n);
    for (auto& v : initial) {
      v = Vec2{rng.uniform(0.0, options.init_box_m), rng.uniform(0.0, options.init_box_m)};
    }
    LssResult candidate = localize_lss_from(measurements, std::move(initial), options, rng);
    // NaN-aware best-selection: a finite-stress attempt always beats a
    // non-finite best (plain `<` never replaces a NaN best), and a
    // non-finite attempt never displaces a finite best.
    const bool better =
        !have_best || (std::isfinite(candidate.stress) && !std::isfinite(best.stress)) ||
        (!(std::isfinite(best.stress) && !std::isfinite(candidate.stress)) &&
         candidate.stress < best.stress);
    if (better) {
      best = std::move(candidate);
      have_best = true;
    }
    if (stress_target >= 0.0 && best.stress <= stress_target) break;
  }
  return best;
}

LssResult localize_lss_from(const MeasurementSet& measurements, std::vector<Vec2> initial,
                            const LssOptions& options, resloc::math::Rng& rng) {
  const std::size_t n = measurements.node_count();
  std::vector<double> p(2 * n, 0.0);
  for (std::size_t i = 0; i < n && i < initial.size(); ++i) {
    p[i] = initial[i].x;
    p[n + i] = initial[i].y;
  }
  return run(measurements, std::move(p), {}, options, rng);
}

LssResult localize_lss_anchored(const MeasurementSet& measurements,
                                const std::vector<std::pair<NodeId, Vec2>>& anchors,
                                const LssOptions& options, resloc::math::Rng& rng) {
  const std::size_t n = measurements.node_count();
  std::vector<double> p(2 * n, 0.0);
  std::vector<NodeId> fixed;
  fixed.reserve(anchors.size());
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = rng.uniform(0.0, options.init_box_m);
    p[n + i] = rng.uniform(0.0, options.init_box_m);
  }
  for (const auto& [id, pos] : anchors) {
    p[id] = pos.x;
    p[n + id] = pos.y;
    fixed.push_back(id);
  }
  return run(measurements, std::move(p), std::move(fixed), options, rng);
}

}  // namespace resloc::core
