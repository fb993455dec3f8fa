// Wall-clock helpers shared by the record benches.
#pragma once

#include <chrono>

namespace resloc::bench {

/// Monotonic wall time in seconds.
inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-`reps` wall time of `fn` (seconds). Best-of suppresses scheduler
/// noise without needing long runs.
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

}  // namespace resloc::bench
