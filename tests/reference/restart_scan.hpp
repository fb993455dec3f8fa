// Restart-based detect-signal (Figure 3) and the per-sample silence check,
// for the scanner equivalence tests and the per-sample reference measure.
//
// The production ranging::SignalScanner scans a bitmask of qualifying
// samples and resumes across pattern-verification rejections. This is the
// form it replaced: a sliding count primed at `start_index` and slid one
// sample at a time, restarted after every rejected candidate, and a
// byte-by-byte count of the noisy samples before a candidate.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ranging/signal_detection.hpp"

namespace resloc::reference {

/// Index of the first sample of the first window of `params.window`
/// consecutive samples, starting at or after `start_index`, containing at
/// least `params.min_detections` samples with count >= params.threshold,
/// where the window's first sample itself qualifies. -1 if none does.
inline int detect_signal(const std::vector<std::uint8_t>& samples,
                         const ranging::DetectionParams& params, int start_index = 0) {
  const int n = static_cast<int>(samples.size());
  const int m = params.window;
  if (m <= 0 || start_index < 0 || start_index + m > n) return -1;

  const auto qualifies = [&](int i) {
    return samples[static_cast<std::size_t>(i)] >= params.threshold;
  };

  // Prime the sliding count over the first window [start_index, start_index + m).
  int count = 0;
  for (int i = start_index; i < start_index + m; ++i) {
    if (qualifies(i)) ++count;
  }
  if (count >= params.min_detections && qualifies(start_index)) return start_index;

  // Slide: window [start, start + m).
  for (int start = start_index + 1; start + m <= n; ++start) {
    if (qualifies(start - 1)) --count;
    if (qualifies(start + m - 1)) ++count;
    if (count >= params.min_detections && qualifies(start)) return start;
  }
  return -1;
}

/// True when at most `max_noisy` of the `gap` samples before `index`
/// (clipped at 0) meet `threshold`; false for a negative index.
inline bool verify_preceding_silence(const std::vector<std::uint8_t>& samples, int index, int gap,
                                     int threshold, int max_noisy) {
  if (index < 0) return false;
  const int start = std::max(0, index - gap);
  int noisy = 0;
  for (int i = start; i < index; ++i) {
    if (samples[static_cast<std::size_t>(i)] >= threshold) ++noisy;
  }
  return noisy <= max_noisy;
}

}  // namespace resloc::reference
