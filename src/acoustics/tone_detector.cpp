#include "acoustics/tone_detector.hpp"

#include <algorithm>
#include <cmath>

#include "acoustics/propagation.hpp"

namespace resloc::acoustics {

namespace {
constexpr double kFaultyMicFalsePositiveRate = 0.15;
}

ToneDetectorModel::ToneDetectorModel(EnvironmentProfile env, double sample_rate_hz)
    : env_(std::move(env)), sample_rate_hz_(sample_rate_hz) {}

void sample_bracket(double window_start_s, double dt, std::size_t num_samples, double start_s,
                    double end_s, std::size_t& lo, std::size_t& hi) {
  const double n = static_cast<double>(num_samples);
  const double lo_d = std::min(n, std::max(0.0, std::floor((start_s - window_start_s) / dt) - 1.0));
  const double hi_d = std::min(n, std::max(0.0, std::ceil((end_s - window_start_s) / dt) + 1.0));
  lo = static_cast<std::size_t>(lo_d);
  hi = static_cast<std::size_t>(hi_d);
}

SampleSpan interval_sample_span(double window_start_s, double dt, std::size_t num_samples,
                                double start_s, double end_s) {
  std::size_t lo = 0, hi = 0;
  sample_bracket(window_start_s, dt, num_samples, start_s, end_s, lo, hi);
  // Refine the conservative bracket to the exact predicate range. t(i) is
  // strictly increasing, so {i : t >= start && t < end} is contiguous; the
  // bracket has ~one sample of slack per side, so each loop runs a couple of
  // iterations at most. The comparisons are the exact ones the per-sample
  // predicate applied, evaluated on the identical t(i) expression.
  const auto t = [&](std::size_t i) {
    return window_start_s + static_cast<double>(i) * dt;
  };
  while (lo < hi && t(lo) < start_s) ++lo;
  while (hi > lo && t(hi - 1) >= end_s) --hi;
  return {lo, hi};
}

void ToneDetectorModel::threshold_runs(const ReceivedWindow& window, std::size_t num_samples,
                                       const MicUnit& mic, DetectorScratch& scratch) const {
  std::vector<ThresholdRun>& runs = scratch.runs;
  std::vector<SampleSpan>& spans = scratch.spans;
  runs.clear();
  spans.clear();
  if (num_samples == 0) return;
  const double dt = sample_period_s();

  // Off-tone probabilities are per-window constants; a faulty mic's floor is
  // folded in before thresholding (threshold-of-max == max-of-thresholds,
  // the conversion is monotone).
  double base_rate = env_.false_positive_rate;
  double burst_rate = kNoiseBurstFalsePositiveRate;
  if (mic.faulty) {
    base_rate = std::max(base_rate, kFaultyMicFalsePositiveRate);
    burst_rate = std::max(burst_rate, kFaultyMicFalsePositiveRate);
  }

  for (const NoiseBurst& b : window.bursts) {
    spans.push_back(interval_sample_span(window.start_s, dt, num_samples, b.start_s, b.end_s));
  }
  for (const SignalInterval& s : window.signals) {
    spans.push_back(interval_sample_span(window.start_s, dt, num_samples, s.start_s, s.end_s));
  }

  // Segments: the set of covering intervals only changes at span edges. Real
  // thresholds are at most 2^53, so two values above that mark a segment no
  // tone covers yet.
  constexpr std::uint64_t kUncovered = ~std::uint64_t{0};
  constexpr std::uint64_t kBurstOnly = kUncovered - 1;
  runs.push_back({0, kUncovered});
  for (const SampleSpan& span : spans) {
    if (span.lo == span.hi) continue;
    runs.push_back({span.lo, kUncovered});
    if (span.hi < num_samples) runs.push_back({span.hi, kUncovered});
  }
  const auto by_first = [](const ThresholdRun& a, const ThresholdRun& b) {
    return a.first < b.first;
  };
  std::sort(runs.begin(), runs.end(), by_first);
  runs.erase(std::unique(runs.begin(), runs.end(),
                         [](const ThresholdRun& a, const ThresholdRun& b) {
                           return a.first == b.first;
                         }),
             runs.end());

  // Paint each span onto its segments: bursts first, then tones, which
  // override the noise floors entirely and combine by max. Converting per
  // interval and maxing thresholds equals converting the strongest SNR,
  // because detection_probability and bernoulli_threshold are both monotone
  // non-decreasing: one detection_probability call per interval.
  const auto paint = [&](const SampleSpan& span, auto&& update) {
    auto it = std::lower_bound(runs.begin(), runs.end(), ThresholdRun{span.lo, 0}, by_first);
    for (; it != runs.end() && it->first < span.hi; ++it) update(it->threshold);
  };
  const std::size_t num_bursts = window.bursts.size();
  for (std::size_t i = 0; i < num_bursts; ++i) {
    paint(spans[i], [&](std::uint64_t& t) {
      if (t == kUncovered) t = kBurstOnly;
    });
  }
  for (std::size_t i = 0; i < window.signals.size(); ++i) {
    const std::uint64_t tone_threshold =
        resloc::math::Rng::bernoulli_threshold(detection_probability(window.signals[i].snr_db));
    paint(spans[num_bursts + i], [&](std::uint64_t& t) {
      t = t >= kBurstOnly ? tone_threshold : std::max(t, tone_threshold);
    });
  }

  const std::uint64_t base_threshold = resloc::math::Rng::bernoulli_threshold(base_rate);
  const std::uint64_t burst_threshold = resloc::math::Rng::bernoulli_threshold(burst_rate);
  std::size_t kept = 0;
  for (ThresholdRun run : runs) {
    if (run.threshold == kUncovered) run.threshold = base_threshold;
    if (run.threshold == kBurstOnly) run.threshold = burst_threshold;
    if (kept > 0 && runs[kept - 1].threshold == run.threshold) continue;
    runs[kept++] = run;
  }
  runs.resize(kept);
}

}  // namespace resloc::acoustics
